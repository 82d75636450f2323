import io
import json
import os

import numpy as np
import pytest
from dense_oracles import frobenius_distance, hermitian_sqrt, pseudo_inverse
from numpy.testing import assert_allclose

from fuzzball.matcore import (
    JSON_BLOCK_ROWS,
    POOL_MIN_ROWS,
    dagger,
    frobenius_norm,
    matrix_from_json,
    matrix_to_json,
    max_frobenius,
    plain_json,
    random_unitary,
    write_json,
)


def test_max_frobenius_keeps_nan():
    # a NaN norm anywhere in the list wins, not only in first place
    nan = np.full((2, 2), np.nan)
    assert max_frobenius([np.eye(2), 3 * np.eye(2)]) == frobenius_norm(3 * np.eye(2))
    assert np.isnan(max_frobenius([np.eye(2), nan]))
    assert np.isnan(max_frobenius(iter([nan, np.eye(2)])))


def test_dagger_examples():
    assert_allclose(dagger(np.eye(2)), np.eye(2))
    assert_allclose(dagger(np.array([[0, 1], [0, 0]])), np.array([[0, 0], [1, 0]]))
    assert_allclose(dagger(np.array([[1j]])), np.array([[-1j]]))


def test_dagger_involution_and_norm():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    assert_allclose(dagger(dagger(a)), a)
    assert frobenius_norm(dagger(a)) == pytest.approx(frobenius_norm(a))


def test_frobenius_distance():
    assert frobenius_distance(np.eye(2), np.eye(2)) == 0.0
    assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2))
    assert frobenius_distance(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])) == pytest.approx(
        np.sqrt(2)
    )
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(3))


def test_pseudo_inverse_diagonal():
    assert_allclose(pseudo_inverse(np.diag([0.0, 1.0])), np.diag([0.0, 1.0]), atol=1e-14)
    assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)
    assert_allclose(
        pseudo_inverse(np.diag([2.0, 0.0, 4.0])), np.diag([0.5, 0.0, 0.25]), atol=1e-14
    )


@pytest.mark.parametrize("deficiency", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_pseudo_inverse_moore_penrose(deficiency, seed):
    rng = np.random.default_rng(seed)
    n = 8
    rank = n - deficiency
    a = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))) @ (
        rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    )
    p = pseudo_inverse(a)
    scale = frobenius_norm(a)
    assert frobenius_distance(a @ p @ a, a) < 1e-10 * scale
    assert frobenius_distance(p @ a @ p, p) < 1e-10 * max(frobenius_norm(p), 1)
    assert frobenius_distance(dagger(a @ p), a @ p) < 1e-10 * scale
    assert frobenius_distance(dagger(p @ a), p @ a) < 1e-10 * scale


def test_pseudo_inverse_hundred_matrices():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = 6
        rank = n - trial % 3
        a = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))) @ (
            rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
        )
        p = pseudo_inverse(a)
        scale = frobenius_norm(a)
        assert frobenius_distance(a @ p @ a, a) < 1e-10 * scale
        assert frobenius_distance(p @ a @ p, p) < 1e-10 * max(frobenius_norm(p), 1)
        assert frobenius_distance(dagger(a @ p), a @ p) < 1e-10 * scale
        assert frobenius_distance(dagger(p @ a), p @ a) < 1e-10 * scale


def test_hermitian_sqrt_examples():
    assert_allclose(hermitian_sqrt(np.diag([0.0, 4.0])), np.diag([0.0, 2.0]), atol=1e-14)
    assert_allclose(hermitian_sqrt(np.eye(5)), np.eye(5), atol=1e-14)


def test_hermitian_sqrt_conjugated():
    rng = np.random.default_rng(1)
    u = random_unitary(2, rng)
    a = u @ np.diag([1.0, 9.0]) @ dagger(u)
    expected = u @ np.diag([1.0, 3.0]) @ dagger(u)
    assert_allclose(hermitian_sqrt(a), expected, atol=1e-12)


@pytest.mark.parametrize("n", [4, 64, 256])
def test_hermitian_sqrt_squares_back(n):
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = b @ dagger(b)
    r = hermitian_sqrt(a)
    assert frobenius_distance(r @ r, a) < 1e-10 * frobenius_norm(a)
    assert frobenius_distance(dagger(r), r) < 1e-10 * frobenius_norm(a)


def test_hermitian_sqrt_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_sqrt(np.diag([-1.0, 1.0]))


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(2)
    u = random_unitary(6, rng)
    assert frobenius_distance(dagger(u) @ u, np.eye(6)) < 1e-13


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    obj = matrix_to_json(a)
    assert obj["rows"] == 3 and obj["cols"] == 4 and len(obj["data"]) == 12
    assert_allclose(matrix_from_json(obj), a)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


def test_matrix_json_roundtrip_is_exact():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)
    # integer entries are JSON numbers too
    one = matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [0, -2]]})
    assert np.array_equal(one, np.array([[1.0, -2j]]))


@pytest.mark.parametrize(
    "data",
    [
        [["1", 2]],
        [[None, 1]],
        [[1, 2], [3]],
        [[True, False]],
        [[1, 2, 3]],
        [1, 2],
        [[float("nan"), 0.0]],
        "12",
        None,
        [[True, 0]],
        [[1.0, False], [0.0, 0.0]],
        [[10**400, 0]],
    ],
)
def test_matrix_from_json_refuses_malformed_data(data):
    rows = 2 if isinstance(data, list) and len(data) == 2 and isinstance(data[0], list) else 1
    with pytest.raises(ValueError):
        matrix_from_json({"rows": rows, "cols": 1, "data": data})


def test_matrix_from_json_reads_large_integers_as_floats():
    big = matrix_from_json({"rows": 1, "cols": 2, "data": [[10**20, 0], [0, -(2**63)]]})
    assert np.array_equal(big, np.array([[1e20, -(2.0**63) * 1j]]))


def test_matrix_from_json_refuses_bad_shape_fields():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": None, "cols": 1, "data": [[0, 0]]})


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        pseudo_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# float.__repr__ edge cases: signed zero, subnormal, the exponent switches
# of repr (1e-05, 1e16) and a value with no short decimal form
EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1, 1 / 3]


def _streamed(obj):
    fh = io.StringIO()
    write_json(fh, obj)
    return fh.getvalue()


def _edge_matrix(rows, cols):
    k = np.arange(2 * rows * cols)
    vals = np.array(EDGE_VALUES)[k % len(EDGE_VALUES)] * np.where(k % 3, 1.0, -1.0)
    return vals.view(complex).reshape(rows, cols)


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 7), (7, 1), (0, 3), (3, 0), (JSON_BLOCK_ROWS, 2),
     (2 * JSON_BLOCK_ROWS + 3, 5)],
)
def test_write_json_matches_dumps_of_matrix_to_json(shape):
    a = _edge_matrix(*shape)
    assert _streamed(a) == json.dumps(matrix_to_json(a), separators=(",", ":"))
    if a.size:
        assert np.array_equal(matrix_from_json(json.loads(_streamed(a))), a)


def test_write_json_streams_arrays_nested_in_plain_values():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    obj = {
        "schema": 1,
        "label": "caf\u00e9 \"q\"",
        "partition": (2, 3),
        "matrices": [a, np.eye(2), {"inner": [a.real[:2]], "x": None}],
        "plain": {"edge": EDGE_VALUES, "ok": True},
    }
    plain = plain_json(obj)
    assert plain["matrices"][0] == matrix_to_json(a)
    assert _streamed(obj) == json.dumps(plain, separators=(",", ":"))
    # a subtree without arrays is left as it is
    assert plain["plain"] is obj["plain"]


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_write_json_dumps_a_report_without_arrays_in_one_call():
    # the shape of a decompose report: long lists of short rows, no array
    rows = [[l, m, 0.5 * l, -m / 3] for l in range(40) for m in range(-l, l + 1)]
    obj = {"schema": 1, "r": rows, "s": [tuple(r) + (1, 0) for r in rows],
           "edge": EDGE_VALUES, "label": "caf\u00e9", "none": None, 7: True}
    fh = _CountingStream()
    write_json(fh, obj)
    assert fh.getvalue() == json.dumps(plain_json(obj), separators=(",", ":"))
    assert fh.writes == 1
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        _streamed({"schema": 1, "n": np.int64(3)})


def test_write_json_finds_arrays_at_any_depth():
    a = _edge_matrix(3, 2)
    rows = [[k, 0.1 * k] for k in range(50)]
    for obj in ([rows, {"deep": [[{"x": [a]}]]}], {"rows": rows, "last": a},
                {"first": a, "rows": (rows, a.real), "empty": [[], {}]}, [a], [[a, a]]):
        assert _streamed(obj) == json.dumps(plain_json(obj), separators=(",", ":"))


def test_write_json_refuses_what_matrix_to_json_refuses():
    with pytest.raises(ValueError):
        _streamed({"g": np.array([[np.inf, 0.0]])})
    with pytest.raises(TypeError):
        _streamed({1: np.eye(2)})


# above the pool threshold, with a partial last block
POOLED_ROWS = POOL_MIN_ROWS + JSON_BLOCK_ROWS + 5


@pytest.mark.parametrize("shape", [(POOLED_ROWS, 3), (0, 3), (3, 0), (POOLED_ROWS, 0)])
def test_write_json_pooled_matches_dumps(forks, shape):
    a = _edge_matrix(*shape)
    nested = {"schema": 1, "g": [a, {"inner": a}], "edge": EDGE_VALUES, "x": None}
    for obj in (a, nested):
        assert _streamed(obj) == json.dumps(plain_json(obj), separators=(",", ":"))
    # two workers per formatted matrix; none for a matrix without two blocks
    assert len(forks) == (2 * 3 if a.size else 0)


def test_write_json_on_one_cpu_formats_in_process(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    a = _edge_matrix(POOLED_ROWS, 3)
    assert _streamed(a) == json.dumps(matrix_to_json(a), separators=(",", ":"))
    assert forks == []


def test_write_json_refuses_non_finite_before_forking(forks):
    a = np.zeros((512, 4), dtype=complex)
    a[-1, -1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        _streamed({"g": a})
    assert forks == []
