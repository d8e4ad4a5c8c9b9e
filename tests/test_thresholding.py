"""Threshold calibration against an independent brute-force oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedboost.data import ThresholdPair, confusion_partition
from guidedboost.thresholding import (
    CurvePoint,
    ToleranceConfig,
    ToleratedCounts,
    accumulated_error_curve,
    curve_to_csv,
    select_thresholds,
    split_dataset,
    tolerated_counts,
)

# ---------------------------------------------------------------- oracle

def oracle_thresholds(probs, confusion, tolerated):
    """Exhaustive scan over candidate cuts; the extreme cut within budget wins.

    Positive side: smallest t (among distinct positive-side probabilities and
    0.5) with at most tolerated_fps FPs at p >= t; if none qualifies the cut
    moves just past the top. Negative side mirrored.
    """
    p = np.asarray(probs, dtype=np.float64)
    is_fp = np.array([tag == "FP" for tag in confusion], dtype=bool)
    is_fn = np.array([tag == "FN" for tag in confusion], dtype=bool)
    pos = p >= 0.5

    def fp_count(t):
        return int(np.sum(is_fp & (p >= t)))

    def fn_count(t):
        return int(np.sum(is_fn & (p <= t)))

    cand_p = sorted(set(p[pos].tolist()) | {0.5})
    feasible = [t for t in cand_p if fp_count(t) <= tolerated.tolerated_fps]
    if feasible:
        th_p = min(feasible)
    else:
        th_p = min(float(np.nextafter(max(p[pos]), np.inf)), 1.0)

    cand_n = sorted(set(p[~pos].tolist()) | {0.5})
    feasible = [t for t in cand_n if fn_count(t) <= tolerated.tolerated_fns]
    if feasible:
        th_n = max(feasible)
    else:
        th_n = max(float(np.nextafter(min(p[~pos]), -np.inf)), 0.0)
    return ThresholdPair(th_n=th_n, th_p=th_p)


def random_instance(rng, n_max=200):
    """Probabilities (ties included, endpoints excluded), confusion tags, budgets."""
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.5:
        probs = np.round(rng.uniform(0.01, 0.99, size=n), 2)  # force ties
    else:
        probs = rng.uniform(0.001, 0.999, size=n)
    labels = rng.integers(0, 2, size=n)
    confusion = confusion_partition(probs, labels)
    tol = tolerated_counts(
        ToleranceConfig(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
        int(np.sum(confusion == "FP")), int(np.sum(confusion == "FN")),
    )
    return probs, confusion, tol


def tags(n, fp=(), fn=()):
    """n confusion tags: FP/FN at the given positions, TP elsewhere (calibration
    reads only the error tags)."""
    out = np.array(["TP"] * n, dtype="<U2")
    out[list(fp)] = "FP"
    out[list(fn)] = "FN"
    return out


# ------------------------------------------------------- tolerated counts

def test_tolerated_counts_arithmetic():
    assert tolerated_counts(ToleranceConfig(5, 5), 140, 0).tolerated_fps == 7
    assert tolerated_counts(ToleranceConfig(0, 0), 1000, 1000) == ToleratedCounts(0, 0)
    assert tolerated_counts(ToleranceConfig(100, 100), 33, 12) == ToleratedCounts(33, 12)
    # floor, not round: 2.5% of 99 = 2.475
    assert tolerated_counts(ToleranceConfig(2.5, 2.5), 99, 99) == ToleratedCounts(2, 2)


def test_tolerated_counts_validation():
    # the tolerance range is ToleranceConfig's check; the counts are tolerated_counts'
    with pytest.raises(ValueError, match=r"must lie in \[0, 100\]"):
        ToleranceConfig(101, 5)
    with pytest.raises(ValueError, match=r"must lie in \[0, 100\]"):
        ToleranceConfig(5, -1)
    with pytest.raises(ValueError, match="non-negative"):
        tolerated_counts(ToleranceConfig(5, 5), -1, 10)
    with pytest.raises(ValueError):
        ToleranceConfig(X=150)
    with pytest.raises(ValueError):
        ToleratedCounts(-1, 0)


# --------------------------------------------------------- hand examples

def test_positive_side_one_tolerated_fp():
    # ranking (0.99 TP)(0.95 FP)(0.90 TP)(0.80 FP): one FP fits, cut at 0.90
    probs = np.array([0.99, 0.95, 0.90, 0.80])
    th = select_thresholds(probs, tags(4, fp=[1, 3]), ToleratedCounts(1, 0))
    assert th.th_p == 0.90
    assert th.th_n == 0.5  # no negative side at all


def test_budget_exhaustion_makes_side_easy():
    probs = np.array([0.99, 0.95, 0.90, 0.80])
    th = select_thresholds(probs, tags(4, fp=[1, 3]), ToleratedCounts(2, 0))
    assert th.th_p == 0.5


def test_over_budget_top_error_leaves_side_difficult():
    # the top-ranked sample is an FP and nothing is tolerated: no cut can keep
    # it out of the easy side, so the cut moves just past the top probability
    probs = np.array([0.99, 0.95])
    th = select_thresholds(probs, tags(2, fp=[0]), ToleratedCounts(0, 0))
    assert th.th_p > 0.99
    assert th.th_p <= 1.0
    a = split_dataset(probs, th)
    assert a.easy_ids == frozenset()
    assert a.difficult_ids == frozenset({0, 1})


def test_negative_side_mirror():
    # FNs at 0.10 and 0.35; one tolerated: cut settles between them
    probs = np.array([0.10, 0.20, 0.35, 0.45])
    th = select_thresholds(probs, tags(4, fn=[0, 2]), ToleratedCounts(0, 1))
    assert th.th_n == 0.20
    assert th.th_p == 0.5


def test_over_budget_tie_blocks_at_the_ends_clamp_to_0_and_1():
    # FNs tied at exactly 0.0 and FPs tied at exactly 1.0, nothing tolerated:
    # the cuts would move past the ends, so they clamp to them. Errors at the
    # very ends stay easy; th_n is +0.0, not -0.0.
    probs = np.array([0.0, 0.0, 0.2, 0.8, 1.0, 1.0])
    th = select_thresholds(probs, tags(6, fp=[4, 5], fn=[0, 1]), ToleratedCounts(0, 0))
    assert th.th_n == 0.0
    assert math.copysign(1.0, th.th_n) == 1.0
    assert th.th_p == 1.0


def test_select_thresholds_validation():
    with pytest.raises(ValueError):
        select_thresholds(np.array([0.5, 1.2]), tags(2), ToleratedCounts(0, 0))
    with pytest.raises(ValueError):
        select_thresholds(np.array([0.5, 0.6]), tags(3), ToleratedCounts(0, 0))


def test_oracle_agreement_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        probs, confusion, tol = random_instance(rng)
        got = select_thresholds(probs, confusion, tol)
        want = oracle_thresholds(probs, confusion, tol)
        assert got == want


def test_error_budget_and_partition_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(200):
        probs, confusion, tol = random_instance(rng)
        th = select_thresholds(probs, confusion, tol)
        a = split_dataset(probs, th)
        fp_ids = set(np.flatnonzero(confusion == "FP").tolist())
        fn_ids = set(np.flatnonzero(confusion == "FN").tolist())
        assert a.easy_ids | a.difficult_ids == set(range(len(probs)))
        assert not (a.easy_ids & a.difficult_ids)
        easy_fp = len(a.easy_ids & fp_ids)
        easy_fn = len(a.easy_ids & fn_ids)
        assert easy_fp <= tol.tolerated_fps
        assert easy_fn <= tol.tolerated_fns
        assert len(a.difficult_ids & fp_ids) >= len(fp_ids) - tol.tolerated_fps
        assert len(a.difficult_ids & fn_ids) >= len(fn_ids) - tol.tolerated_fns


# -------------------------------------------------------------- splitting

def test_split_dataset_examples():
    a = split_dataset(np.array([0.1, 0.5, 0.95]), ThresholdPair(0.2, 0.9))
    assert a.easy_ids == frozenset({0, 2})
    assert a.difficult_ids == frozenset({1})

    a = split_dataset(np.array([0.1, 0.5, 0.95]), ThresholdPair(0.5, 0.5))
    assert a.difficult_ids == frozenset()

    # boundary lands easy on both sides
    a = split_dataset(np.array([0.3, 0.9]), ThresholdPair(0.3, 0.9))
    assert a.easy_ids == frozenset({0, 1})


def test_easy_rule_gives_the_boundary_to_the_positive_side():
    probs = np.array([0.2, 0.3, 0.49, 0.5, 0.7, 0.9])
    assert ThresholdPair(0.3, 0.7).easy(probs).tolist() == [True, True, False, False, True, True]
    # th_n = 0.5 claims the strict negative side only; 0.5 is easy only via th_p
    assert ThresholdPair(0.5, 0.9).easy(probs).tolist() == [True, True, True, False, False, True]
    assert ThresholdPair(0.5, 0.5).easy(probs).all()


def test_split_dataset_custom_ids():
    a = split_dataset(np.array([0.4, 0.6]), ThresholdPair(0.5, 0.5), ids=np.array([7, 9]))
    assert a.easy_ids == frozenset({7, 9})
    assert type(a.easy_ids) is frozenset
    assert all(type(i) is int for i in a.easy_ids)  # Python ints, not numpy scalars


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=80),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.5, max_value=1.0),
)
def test_split_is_always_a_partition(probs, th_n, th_p):
    a = split_dataset(np.array(probs), ThresholdPair(th_n, th_p))
    assert a.easy_ids | a.difficult_ids == set(range(len(probs)))
    assert not (a.easy_ids & a.difficult_ids)


# ----------------------------------------------------------------- curve

def _curve_fixture():
    probs = np.array([0.1, 0.3, 0.6, 0.8, 0.55])
    labels = np.array([1, 0, 0, 0, 1])  # FNs at 0.1; FPs at 0.6 and 0.8
    return probs, confusion_partition(probs, labels)


def test_curve_hand_counts():
    probs, confusion = _curve_fixture()
    pts = accumulated_error_curve(probs, confusion, np.array([0.0, 0.05, 0.2, 0.5, 0.7, 1.0]))
    by_t = {round(p.threshold, 2): p for p in pts}
    assert by_t[0.0].side == "fn" and by_t[0.0].count == 0
    assert by_t[0.2].count == 1  # the FN at 0.1
    assert by_t[0.5].side == "fp" and by_t[0.5].count == 2  # whole positive side
    assert by_t[0.7].count == 1  # only the FP at 0.8
    assert by_t[1.0].count == 0


def test_curve_grid_validation():
    probs, confusion = _curve_fixture()
    with pytest.raises(ValueError):
        accumulated_error_curve(probs, confusion, np.array([-0.1]))
    # a NaN passes a plain min/max range test
    with pytest.raises(ValueError, match="^accumulated_error_curve: grid values outside"):
        accumulated_error_curve([0.2, 0.7], ["FN", "TP"], [math.nan])
    with pytest.raises(ValueError):
        accumulated_error_curve(probs, confusion[:4], np.array([0.5]))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_curve_monotone(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    probs = rng.uniform(0.001, 0.999, size=n)
    labels = rng.integers(0, 2, size=n)
    confusion = confusion_partition(probs, labels)
    pts = accumulated_error_curve(probs, confusion, np.linspace(0, 1, 101))
    fn_counts = [p.count for p in pts if p.side == "fn"]
    fp_counts = [p.count for p in pts if p.side == "fp"]
    assert all(a <= b for a, b in zip(fn_counts, fn_counts[1:]))
    assert all(a >= b for a, b in zip(fp_counts, fp_counts[1:]))


def test_curve_to_csv():
    text = curve_to_csv([CurvePoint(0.25, "fn", 3), CurvePoint(0.75, "fp", 1)])
    lines = text.strip().splitlines()
    assert lines[0] == "threshold,side,count"
    assert lines[1] == "0.25,fn,3"
    assert lines[2] == "0.75,fp,1"
