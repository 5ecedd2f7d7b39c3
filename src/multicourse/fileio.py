"""Whole-file JSON reads, UTF-8 line reads, and writes that leave either the old
file or the new one, never a mix."""

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, InputError


def read_json(path):
    """The value a JSON file holds; invalid JSON or bytes that are not UTF-8 raise
    ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def write_json(value, path):
    """Write a value as indented JSON with sorted keys, atomically."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def text_lines(path):
    """The lines of a UTF-8 text file, as iterating the open file yields them;
    bytes that are not UTF-8 raise InputError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


@contextmanager
def atomic_open(path, mode, **kwargs):
    """Open a temporary file beside `path` for writing.

    When the block completes, the file is flushed to disk and renamed over
    `path`. When it raises, the temporary file is removed and `path` keeps
    its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
