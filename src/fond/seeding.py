"""Deterministic seed derivation.

Every stochastic component draws from its own stream, derived from a master
seed plus string tags (and optional integer indices). Runs are reproducible
from the master seed alone. ``subseed`` hashes the parts with numpy's
``SeedSequence``, and ``rng_for`` gives a fresh ``default_rng`` (PCG64) from
that seed, so a stream is numpy's own seeding of its parts. A loop that needs
one stream per step (the trainer's dropout masks) builds one per step.
"""

from __future__ import annotations

import zlib

import numpy as np


def _as_entropy(part) -> int:
    if isinstance(part, (bool,)):
        raise TypeError("bool is not a valid seed part")
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"cannot derive entropy from {type(part).__name__}")


def subseed(*parts) -> int:
    """Collapse integer/string parts into a stable 64-bit seed."""
    seq = np.random.SeedSequence([_as_entropy(p) for p in parts])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def rng_for(*parts) -> np.random.Generator:
    """Fresh generator for the stream identified by ``parts``."""
    return np.random.default_rng(subseed(*parts))
