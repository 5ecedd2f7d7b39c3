"""Whole-file writes that leave either the old file or the new one, never a mix."""

import os
from contextlib import contextmanager
from pathlib import Path


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
