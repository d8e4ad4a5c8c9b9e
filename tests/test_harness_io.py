"""Dense and sparse loaders: round-trips and line-tagged parse errors."""
import numpy as np
import pytest

from guidedboost.data import FeatureMatrix
from guidedboost.harness.io import load_dense_csv, load_sparse, write_dense_csv


def test_dense_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = FeatureMatrix.from_arrays(
        rng.normal(size=(17, 4)) * 100, rng.integers(0, 2, 17)
    )
    path = tmp_path / "data.csv"
    write_dense_csv(data, path)
    back = load_dense_csv(path)
    # repr() round-trips doubles exactly
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.ids, np.arange(17))


def test_dense_skips_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n1.5,0\n\n2.5,1\n")
    back = load_dense_csv(path)
    assert back.n_samples == 2
    assert np.array_equal(back.values[:, 0], [1.5, 2.5])


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "empty file"),
        ("f0,label\n", 2, "no data rows"),
        ("f0,label\n1.0,0\n1.0,1,9\n", 3, "expected 2 columns, found 3"),
        ("f0,label\nabc,0\n", 2, "non-numeric feature value"),
        ("f0,f1,label\n1.0,2.0,0\nnan,1.0,1\n", 3, "non-finite feature value"),
        ("f0,f1,label\n1.0,inf,1\n", 2, "non-finite feature value"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,1\n-inf,0.0,1\n", 4, "non-finite feature value"),
        ("f0,label\n1.0,2\n", 2, "label must be 0 or 1"),
        ("f0,label\n1.0,yes\n", 2, "not a number"),
        ("label\n", 1, "at least one feature"),
    ],
)
def test_dense_parse_errors(tmp_path, text, line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_dense_csv(path)
    assert f"{path}:{line}:" in str(err.value)
    assert fragment in str(err.value)


def test_sparse_densifies(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1 0:1.5 3:-2.0\n0 1:4.0\n\n1\n")
    back = load_sparse(path)
    expect = np.array([
        [1.5, 0.0, 0.0, -2.0],
        [0.0, 4.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(back.values, expect)
    assert np.array_equal(back.labels, [1, 0, 1])
    assert np.array_equal(back.ids, [0, 1, 2])


def test_sparse_declared_width_pads(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0 0:1.0\n1 2:3.0\n")
    assert load_sparse(path).n_features == 3
    assert load_sparse(path, n_features=7).n_features == 7


def test_sparse_declared_width_too_small(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0 5:1.0\n")
    with pytest.raises(ValueError, match="below the highest index"):
        load_sparse(path, n_features=3)


def test_sparse_all_zero_rows_get_width_one(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0\n1\n")
    back = load_sparse(path)
    assert back.values.shape == (2, 1)


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("0 0:a\n", 1, "malformed entry"),
        ("0 nocolon\n", 1, "malformed entry"),
        ("0 -1:2.0\n", 1, "negative feature index"),
        ("1 1:inf\n", 1, "non-finite feature value"),
        ("0 0:1.0\n1 0:nan\n", 2, "non-finite feature value"),
        ("0 0:1.0 2:-inf\n", 1, "non-finite feature value"),
        ("0 3:1.0 1:2.0\n", 1, "strictly ascending"),
        ("0 2:1.0 2:2.0\n", 1, "strictly ascending"),
        ("0 0:1.0\n7 0:1.0\n", 2, "label must be 0 or 1"),
        ("", 1, "no data rows"),
    ],
)
def test_sparse_parse_errors(tmp_path, text, line, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_sparse(path)
    assert f"{path}:{line}:" in str(err.value)
    assert fragment in str(err.value)
