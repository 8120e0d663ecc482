import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkm.geometry import InfeasibleSimplexError, project_columns, project_mass

from conftest import grid_projection_oracle


def test_feasible_point_is_fixed():
    np.testing.assert_allclose(project_mass([0.2, 0.8], 1.0), [0.2, 0.8], atol=1e-12)


def test_single_spike():
    # frozen from the grid-refinement oracle
    np.testing.assert_allclose(project_mass([5.0, 0.0, 0.0], 1.0), [1.0, 0.0, 0.0],
                               atol=1e-10)


def test_symmetric_mass_two():
    # symmetry forces equal coordinates summing to 2
    np.testing.assert_allclose(project_mass([0.5, 0.5, 0.5], 2.0),
                               [2 / 3, 2 / 3, 2 / 3], atol=1e-10)


def test_full_mass_gives_ones():
    for y in ([3.0, -7.0, 0.1], [0.0, 0.0, 0.0]):
        np.testing.assert_array_equal(project_mass(y, 3.0), np.ones(3))


def test_zero_mass_gives_zeros():
    np.testing.assert_array_equal(project_mass([1.0, 2.0], 0.0), np.zeros(2))


def test_infeasible_spec_rejected():
    with pytest.raises(InfeasibleSimplexError):
        project_mass(np.zeros(3), 4.0)
    with pytest.raises(InfeasibleSimplexError):
        project_mass(np.zeros(3), -0.5)
    for mass in (np.nan, np.inf):
        with pytest.raises(InfeasibleSimplexError):
            project_columns(np.zeros((3, 2)), mass)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        project_mass([np.nan, 0.0], 1.0)
    with pytest.raises(ValueError):
        project_mass([np.inf, 0.0], 1.0)


def test_idempotence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        y = rng.normal(0, 4, n)
        s = float(rng.uniform(0, n))
        w = project_mass(y, s)
        np.testing.assert_allclose(project_mass(w, s), w, atol=1e-12)


def test_feasibility():
    rng = np.random.default_rng(8)
    for _ in range(500):
        n = int(rng.integers(2, 10))
        y = rng.normal(0, 10, n)
        s = float(rng.uniform(0, n))
        w = project_mass(y, s)
        assert w.min() >= 0.0 and w.max() <= 1.0
        assert abs(w.sum() - s) < 1e-10


def test_order_preservation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        y = rng.normal(0, 3, n)
        s = float(rng.integers(1, n + 1))
        w = project_mass(y, s)
        order = np.argsort(y)
        assert np.all(np.diff(w[order]) >= -1e-12)


def test_translation_covariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        y = rng.normal(0, 3, n)
        s = float(rng.integers(1, n + 1))
        c = float(rng.normal(0, 50))
        np.testing.assert_allclose(project_mass(y + c, s), project_mass(y, s),
                                   atol=1e-9)


def test_matches_grid_oracle_small():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        y = rng.normal(0, 2, n)
        s = float(rng.integers(1, n + 1))
        w = project_mass(y, s)
        w_oracle = grid_projection_oracle(y, s)
        np.testing.assert_allclose(w, w_oracle, atol=1e-6)


def test_project_columns_matches_vector_path():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        b = int(rng.integers(1, 30))
        Y = rng.normal(0, 5, (n, b))
        s = float(rng.uniform(0.1, n - 0.1))
        W = project_columns(Y, s)
        for i in range(b):
            np.testing.assert_allclose(W[:, i], project_mass(Y[:, i], s), atol=1e-12)


def test_project_columns_validates():
    with pytest.raises(InfeasibleSimplexError):
        project_columns(np.zeros((2, 3)), 5.0)
    with pytest.raises(ValueError):
        project_columns(np.array([[np.nan, 0.0]]).T, 1.0)


@st.composite
def _projection_inputs(draw):
    # Entries are drawn by numpy from a hypothesis seed: element-wise
    # hypothesis arrays of up to 60 x 40 take seconds per example.  Entries
    # on a coarse grid make ties between coordinates and between the
    # breakpoints y - 1 and y of different coordinates.
    n = draw(st.integers(1, 60))
    b = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Y = rng.integers(-8, 9, (n, b)) / 4
    else:
        Y = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 50.0])), (n, b))
    if b > 1 and draw(st.booleans()):
        Y[:, -1] = Y[:, 0]  # duplicate column
    kind = draw(st.sampled_from(["zero", "full", "integer", "fractional"]))
    if kind == "zero":
        mass = 0.0
    elif kind == "full":
        mass = float(n)
    elif kind == "integer":
        mass = float(draw(st.integers(0, n)))
    else:
        mass = draw(st.floats(0, n))
    return Y, mass


@settings(max_examples=300, deadline=None)
@given(_projection_inputs())
def test_project_columns_properties(inputs):
    Y, mass = inputs
    n, b = Y.shape
    W = project_columns(Y, mass)
    tol = 1e-9
    assert W.min() >= 0.0 and W.max() <= 1.0
    assert np.all(np.abs(W.sum(axis=0) - mass) <= tol * max(1, n))
    for i in range(b):
        y, w = Y[:, i], W[:, i]
        # threshold form: w = clip(y - tau, 0, 1) for one tau per column
        inside = (w > 0.0) & (w < 1.0)
        zeros, ones = w == 0.0, w == 1.0
        if inside.any():
            tau = float(np.mean(y[inside] - w[inside]))
            assert np.all(np.abs(y[inside] - w[inside] - tau) <= tol)
            assert np.all(y[zeros] <= tau + tol)
            assert np.all(y[ones] >= tau + 1.0 - tol)
        elif zeros.any() and ones.any():
            assert y[zeros].max() <= y[ones].min() - 1.0 + tol
        np.testing.assert_allclose(w, project_columns(Y[:, [i]], mass)[:, 0],
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(project_columns(W, mass), W, rtol=0, atol=tol)
