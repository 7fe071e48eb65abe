import builtins
import errno
import sys
from pathlib import Path

import pytest

# make the sibling oracles module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))


class _FullDisk:
    """A file opened for writing that takes its first ``room`` bytes (or
    characters), keeps them on disk, and then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        kept = data[:self.room]
        self.fh.write(kept)
        self.room -= len(kept)
        if len(kept) < len(data):
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Call with ``room``: from then on, each file opened for writing takes
    ``room`` bytes and then raises ``OSError(ENOSPC)``."""
    real_open = builtins.open

    def fill(room):
        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh, room) if set(mode) & set("wax+") else fh

        monkeypatch.setattr(builtins, "open", open_)

    return fill
