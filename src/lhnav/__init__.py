"""Desk-scale harness for long-horizon multi-stage navigation."""

from .world import (
    Action,
    AgentState,
    Observation,
    ObjectInstance,
    Region,
    RobotConfig,
    ROBOTS,
    Scene,
    apply_action,
    observe,
    subtask_success,
)
from .expert import expert_next_action, geodesic_distance
from .taskforge import Subtask, TaskSpec, sample_spawn, sample_task
from .splitter import Segment, StepByStepTask, split_trajectory
from .metrics import EpisodeResult, SubtaskRecord, aggregate, episode_metrics, tar
from .memory import (
    LongTermStore,
    ShortTermMemory,
    entropy_argmin,
    forget_and_append,
    pool_candidates,
    weight_decision,
)
from .policy import EmbeddingOracle, LinearSoftmaxBackend, MemoryPolicy, train_backend
from .runner import RunConfig, run_episode, run_suite
from .scenegen import generate_scene
from .trajectory import Trajectory

__version__ = "0.1.0"
