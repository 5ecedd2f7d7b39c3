"""Whole-file JSON reads, and writes that leave either the old file or the new one, never a mix."""

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError


def read_json(path):
    """The value a JSON file holds; invalid JSON raises ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


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
