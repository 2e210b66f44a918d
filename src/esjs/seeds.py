"""Deterministic derivation of subordinate seeds from a single master seed.

Every stochastic component (data generation, model sampling, each bootstrap
replicate) gets its own seed derived from the master seed plus a label path,
so components are independently reproducible and results do not depend on
evaluation order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_seed"]


def _entropy_word(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


def derive_seed(root: int, *labels) -> int:
    """Stable integer seed for the component identified by ``labels``."""
    if root < 0:
        raise ValueError("seed must be a non-negative integer")
    entropy = [int(root)] + [_entropy_word(lab) for lab in labels]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])

