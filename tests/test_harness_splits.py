"""Stratified splitting: exact allocations, coverage and determinism."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedboost.data import FeatureMatrix
from guidedboost.harness.splits import _allocate, split_80_10_10


def _labeled(counts, seed=0):
    n0, n1 = counts
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return FeatureMatrix.from_arrays(rng.normal(size=(n0 + n1, 2)), labels)


def test_allocate_largest_remainder():
    assert _allocate(50, (0.8, 0.1, 0.1)) == [40, 5, 5]
    # remainders 0.6, 0.7, 0.7: the two spare slots go to indexes 1 then 2
    assert _allocate(47, (0.8, 0.1, 0.1)) == [37, 5, 5]
    assert _allocate(53, (0.8, 0.1, 0.1)) == [43, 5, 5]
    # tiny classes still land one sample in every part
    assert _allocate(3, (0.8, 0.1, 0.1)) == [1, 1, 1]
    assert _allocate(4, (0.8, 0.1, 0.1)) == [2, 1, 1]


def test_split_sizes_balanced():
    train, val, test = split_80_10_10(_labeled((50, 50)))
    assert (train.n_samples, val.n_samples, test.n_samples) == (80, 10, 10)
    for part in (train, val, test):
        counts = np.bincount(part.labels, minlength=2)
        assert counts[0] == counts[1]


def test_split_sizes_unbalanced():
    train, val, test = split_80_10_10(_labeled((47, 53)))
    assert (train.n_samples, val.n_samples, test.n_samples) == (80, 10, 10)


def test_split_is_partition():
    data = _labeled((31, 44))
    parts = split_80_10_10(data, seed=7)
    ids = np.concatenate([p.ids for p in parts])
    assert len(ids) == data.n_samples
    assert set(ids.tolist()) == set(data.ids.tolist())


def test_split_preserves_row_order_within_parts():
    parts = split_80_10_10(_labeled((20, 20)), seed=3)
    for part in parts:
        assert np.all(np.diff(part.ids) > 0)


@given(n0=st.integers(3, 40), n1=st.integers(3, 40), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_every_part_holds_both_classes(n0, n1, seed):
    if n0 + n1 < 10:
        return
    for part in split_80_10_10(_labeled((n0, n1)), seed=seed):
        assert set(np.unique(part.labels)) == {0, 1}


def test_split_determinism():
    data = _labeled((25, 25))
    a = split_80_10_10(data, seed=11)
    b = split_80_10_10(data, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.values, y.values)
    c = split_80_10_10(data, seed=12)
    assert any(not np.array_equal(x.ids, y.ids) for x, y in zip(a, c))


def _reference_split_positions(data, fractions, seed):
    """The first dealing: Python lists extended class by class, then sorted."""
    parts = [[], [], []]
    for cls in (0, 1):
        members = np.flatnonzero(data.labels == cls)
        if len(members) == 0:
            continue
        rng = np.random.default_rng([seed, cls])
        members = members[rng.permutation(len(members))]
        n_train, n_val, _ = _allocate(len(members), fractions)
        parts[0].extend(members[:n_train])
        parts[1].extend(members[n_train : n_train + n_val])
        parts[2].extend(members[n_train + n_val :])
    return [np.sort(np.asarray(p, dtype=np.int64)) for p in parts]


@pytest.mark.parametrize("counts", [(5, 5), (0, 12), (3, 40), (37, 29), (500, 123)])
@pytest.mark.parametrize("seed", [0, 7])
def test_split_matches_reference_dealing(counts, seed):
    data = _labeled(counts, seed=seed)
    for fractions in ((0.8, 0.1, 0.1), (0.5, 0.3, 0.2)):
        parts = split_80_10_10(data, fractions, seed=seed)
        for part, positions in zip(parts, _reference_split_positions(data, fractions, seed)):
            assert np.array_equal(part.ids, data.ids[positions])
            assert np.array_equal(part.values, data.values[positions])


def test_split_custom_fractions():
    train, val, test = split_80_10_10(_labeled((30, 30)), fractions=(0.5, 0.3, 0.2))
    assert (train.n_samples, val.n_samples, test.n_samples) == (30, 18, 12)
    # non-exact fit: remainder ties break toward the earlier part
    assert _allocate(30, (0.5, 0.25, 0.25)) == [15, 8, 7]


def test_split_validation():
    with pytest.raises(ValueError, match="at least 10"):
        split_80_10_10(_labeled((4, 4)))
    with pytest.raises(ValueError, match="class 0 has 2"):
        split_80_10_10(_labeled((2, 10)))
    with pytest.raises(ValueError, match="summing to 1"):
        split_80_10_10(_labeled((10, 10)), fractions=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError, match="summing to 1"):
        split_80_10_10(_labeled((10, 10)), fractions=(0.8, 0.2, 0.0))
