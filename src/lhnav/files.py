"""Every lhnav data file is read and written here, in one of two shapes.
JSON lines hold one canonical record (sorted keys, no spaces) per line:
trajectories, long-term stores, and the one-record scene and weights files.
Documents hold one sorted JSON value indented by two spaces: task lists,
reports and split output.  Both writers create the file's directory when
it is missing; a path that cannot be written raises an OutputFileError."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

# json.dumps builds a new encoder for every call with options
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class InputFileError(ValueError):
    """A missing or malformed input file; the message names the file, plus
    the line or entry where there is one."""


class OutputFileError(ValueError):
    """An output path that cannot be written; the message names the path
    and the system's reason."""


@contextmanager
def _writing(path: str | Path):
    """The text file at `path`, opened for writing after its directory is
    made; an OSError on the way becomes an OutputFileError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OutputFileError(f"{path}: cannot be written ({exc.strerror or exc})") from exc


def write_lines(path: str | Path, records, encoded=()) -> None:
    """One canonical JSON line per record, then the lines of `encoded`,
    records that the caller has already written as canonical JSON."""
    with _writing(path) as fh:
        fh.writelines(_CANONICAL.encode(record) + "\n" for record in records)
        fh.writelines(line + "\n" for line in encoded)


def write_document(path: str | Path, data) -> None:
    """One JSON document with sorted keys, indented by two spaces."""
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    with _writing(path) as fh:
        fh.write(text)


def read_document(path: str | Path):
    """The JSON value that the whole file holds."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc


def read_lines(path: str | Path):
    """(line number, record) for each nonblank line, read one line at a
    time, so that a caller can convert each record before the next."""
    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputFileError(f"{path} line {number}: not valid JSON ({exc})") from exc
                yield number, record
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc


def _unreadable(path: str | Path, exc: Exception) -> InputFileError:
    return InputFileError(f"{path}: cannot be read ({getattr(exc, 'strerror', None) or exc})")
