"""Stratified train/validation/test splitting."""
from __future__ import annotations

import numpy as np

from ..data import FeatureMatrix


def check_fractions(fractions) -> tuple[float, float, float]:
    """fractions as floats, if they are three numbers in (0, 1) summing to 1;
    the ValueError names the entry out of range, or else ``fractions``."""
    f = tuple(float(x) for x in fractions)
    rule = "fractions must be three numbers in (0, 1) summing to 1"
    for i, x in enumerate(f):
        if not 0.0 < x < 1.0:
            raise ValueError(f"fractions[{i}] is {x}: {rule}")
    if len(f) != 3 or abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"{rule}, found {list(f)}")
    return f


def _allocate(m: int, fractions: tuple[float, float, float]) -> list[int]:
    """Largest-remainder allocation of m samples, no empty part for m >= 3."""
    base = [int(m * f) for f in fractions]
    remainders = [m * f - b for f, b in zip(fractions, base)]
    for _ in range(m - sum(base)):
        i = max(range(3), key=lambda j: (remainders[j], -j))
        base[i] += 1
        remainders[i] = -1.0
    while min(base) == 0 and m >= 3:
        lo = base.index(0)
        hi = max(range(3), key=lambda j: base[j])
        base[lo] += 1
        base[hi] -= 1
    return base


def split_80_10_10(
    data: FeatureMatrix,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
    """Class-stratified seeded split into (train, validation, test).

    Within each class the rows are shuffled by a seed-derived stream, dealt
    to the three parts by largest-remainder counts, and re-sorted into the
    original row order inside each part.
    """
    if data.n_samples < 10:
        raise ValueError("split_80_10_10: need at least 10 samples")
    fractions = check_fractions(fractions)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in (0, 1):
        members = np.flatnonzero(data.labels == cls)
        if len(members) == 0:
            continue
        if len(members) < 3:
            raise ValueError(
                f"split_80_10_10: class {cls} has {len(members)} samples, need >= 3"
            )
        rng = np.random.default_rng([seed, cls])
        members = members[rng.permutation(len(members))]
        n_train, n_val, _ = _allocate(len(members), fractions)
        parts[0].append(members[:n_train])
        parts[1].append(members[n_train : n_train + n_val])
        parts[2].append(members[n_train + n_val :])
    return tuple(data.subset(np.sort(np.concatenate(p))) for p in parts)
