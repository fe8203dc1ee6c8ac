"""Deterministic RNG substreams.

All randomness in the package flows from one master seed through named
substreams, so that runs are reproducible bit for bit and independent
pipeline stages cannot steal draws from each other.  Streams are backed by
the counter-based Philox generator keyed by a hash of (master seed, path),
which makes per-sample streams independent of scheduling order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(master_seed: int, *path) -> int:
    """128-bit Philox key derived from the master seed and a label path.

    Path elements may be strings or integers, e.g.
    ``stream_key(7, "noising", 12)`` for sample 12 of the noising stage.
    """
    token = repr((int(master_seed),) + tuple(path)).encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:16], "little")


def derived_seed(master_seed: int, *path) -> int:
    """Nonnegative 63-bit seed of the named substream, for calls that take a seed."""
    return stream_key(master_seed, *path) % 2**63


def substream(master_seed: int, *path) -> np.random.Generator:
    """Generator for the named substream of ``master_seed``."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *path)))


def generator_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed directly by ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed)))
