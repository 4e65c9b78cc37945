"""Deterministic sub-seed derivation.

A single master seed fans out to component seeds through stable text
labels, so a stage's seed depends on the master seed and its label
alone; every ratio of a sweep shares its "folds" and ("smote", fold) seeds.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *labels: object) -> int:
    """Derive a child seed from ``master`` and a stable label path.

    The same (master, labels) always yields the same value, on every
    platform. Distinct label paths give independent streams.
    """
    key = ":".join([str(int(master))] + [str(l) for l in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
