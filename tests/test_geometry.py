import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkm import geometry
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


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
def test_project_columns_refuses_other_than_a_matrix(shape):
    with pytest.raises(ValueError, match="matrix"):
        project_columns(np.zeros(shape), 1.0)


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


def _in_frame(Y, found):
    """The projection from a finder's (frame, tau), whose frame is Y minus
    each column's largest entry."""
    frame, tau = found
    np.testing.assert_array_equal(frame, Y - Y.max(axis=0))
    return np.clip(frame - tau, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_projection_inputs(), st.floats(0.0, 1.0, exclude_min=True),
       st.integers(0, 2**32 - 1))
def test_unit_mass_closed_form_agrees_with_the_bisection(inputs, mass, seed):
    """For 0 < mass <= 1 the cap cannot bind, and the sort-and-running-sum
    closed form stands in for the bisection when n < B.  The two agree
    within the rounding of the running sum, which grows with the row
    count: (n + 2) ulps of 1.  Both work on the column minus its largest
    entry, so they agree so closely at any scale, and the closed form's sum
    is within (n + 2) ulps of 1 of the mass, also for columns scaled to
    2**53 and beyond, where u_1 - mass rounds to u_1."""
    Y, _ = inputs
    n, b = Y.shape
    rng = np.random.default_rng(seed)
    Y = Y * 2.0 ** rng.choice([0, 0, 53, 60], size=b)
    closed = _in_frame(Y, geometry._project_simplex(Y, mass))
    bisected = _in_frame(Y, geometry._bisect_capped(Y, mass))
    ulps = (n + 2) * np.finfo(float).eps
    assert np.all((closed >= 0.0) & (closed <= 1.0))
    assert np.all(np.abs(closed.sum(axis=0) - mass) <= ulps)
    assert np.all(np.abs(closed - bisected) <= ulps)
    np.testing.assert_array_equal(project_columns(Y, mass), closed if n < b else bisected)


def _reference_project_columns(Y, mass):
    """The projection as numpy's column scans give it, in the frame of each
    column's largest entry, which project_columns must match bit for bit:
    the closed form or the search, except that at an integer mass j a column
    whose j-th and (j+1)-th largest entries a and c have a - c >= 1 takes
    tau = c, its exact 0/1 vertex."""
    Y = np.asarray(Y, dtype=float)
    n, b = Y.shape
    if mass == 0.0:
        return np.zeros_like(Y)
    if mass == n:
        return np.ones_like(Y)
    top = Y.max(axis=0)
    if mass <= 1.0 and n < b:  # the cap cannot bind: Duchi et al.'s closed form
        u = np.sort(Y, axis=0)[::-1] - top
        css = (np.cumsum(u, axis=0) - mass) / np.arange(1, n + 1)[:, None]
        support = u > css
        rho = np.array([np.flatnonzero(support[:, i])[-1] for i in range(b)], dtype=np.intp)
        return np.clip((Y - top) - css[rho, np.arange(b)], 0.0, 1.0)
    Z = Y - top
    bps = np.sort(np.concatenate((Z - 1.0, Z), axis=0), axis=0)
    cols = np.arange(b)

    def f(tau):
        return np.clip(Z - tau, 0.0, 1.0).sum(axis=0)

    lo = np.zeros(b, dtype=np.intp)
    hi = np.full(b, 2 * n - 1, dtype=np.intp)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ge = f(bps[mid, cols]) >= mass
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
    tau0 = bps[lo, cols]
    f0 = f(tau0)
    active = np.count_nonzero((Z - 1.0 <= tau0) & (Z > tau0), axis=0)
    tau = np.where(active > 0, tau0 + (f0 - mass) / np.maximum(active, 1), tau0)
    if float(mass).is_integer():  # at the vertex, tau = c clips the j largest to 1
        j, u = int(mass), np.sort(Z, axis=0)
        c, a = u[n - j - 1], u[n - j]
        tau = np.where(a - c >= 1.0, c, tau)
    return np.clip((Y - top) - tau, 0.0, 1.0)


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


@settings(max_examples=300, deadline=None)
@given(_projection_inputs(), st.integers(0, 2**32 - 1), st.sampled_from("CF"))
def test_blocked_projection_matches_reference_bit_for_bit(inputs, seed, order):
    """n and B of 1-60 and 1-40 reach both the row pass (mass <= 1, n < B)
    and the bisection (every other mass and shape)."""
    Y, mass = inputs
    rng = np.random.default_rng(seed)
    Y[rng.random(Y.shape) < 0.1] = 0.0
    Y[rng.random(Y.shape) < 0.1] = -0.0
    Y = np.asarray(Y, order=order)
    _assert_same_bits(project_columns(Y, mass), _reference_project_columns(Y, mass))


@pytest.mark.parametrize("shape", [(50, 4000), (10, 20000)])
def test_wide_unit_mass_projection_matches_reference_bit_for_bit(shape):
    """The W steps of a fit with s = 1 and many points take the row pass."""
    Y = np.random.default_rng(5).normal(0.0, 3.0, shape)
    _assert_same_bits(project_columns(Y, 1.0), _reference_project_columns(Y, 1.0))


@pytest.mark.parametrize("mass", [1.0, 0.5])
def test_long_vector_projection_matches_reference_bit_for_bit(mass):
    """A one-column call of 100000 entries takes the bisection at any mass."""
    y = np.random.default_rng(6).normal(0.0, 3.0, 100_000)
    _assert_same_bits(project_mass(y, mass), _reference_project_columns(y[:, None], mass)[:, 0])


def test_blocks_keep_the_callers_floating_point_errors():
    """The projection follows the caller's np.errstate, in both finders."""
    # the row pass, then the bisection at mass 1 and above it
    for n, b, mass in ((2, 4, 1.0), (2, 1, 1.0), (3, 1, 1.5)):
        Y = np.zeros((n, b))
        Y[:2, -1] = [1.7e308, -1.7e308]  # Y - top overflows in the last column
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            project_columns(Y, mass)
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(project_columns(Y, mass)))


@st.composite
def _shifted_grid_inputs(draw):
    """(Y, c, mass) with Y on the grid of 2**e and c a multiple of 2**e of
    up to 2**(52 + e) <= 2**60, so that every entry of Y + c is exact."""
    n = draw(st.integers(1, 12))
    b = draw(st.integers(1, 12))
    e = draw(st.integers(-4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = rng.integers(-16, 17, (n, b)) * 2.0**e
    c = draw(st.integers(-2**52, 2**52)) * 2.0**e
    mass = draw(st.floats(0, n, exclude_min=True, exclude_max=True))
    return Y, c, mass


@settings(max_examples=300, deadline=None)
@given(_shifted_grid_inputs())
def test_projection_is_exactly_translation_invariant(inputs):
    """Both finders work on Y - top, which a shift that keeps every entry
    exact does not change, so neither do the output's bits."""
    Y, c, mass = inputs
    _assert_same_bits(project_columns(Y + c, mass), project_columns(Y, mass))


def _raised_columns(rng, n, b, mass, raise_by, base):
    """(n, b) columns whose `mass` largest entries sit raise_by above a base
    of -1 give or take 3 ulps, of a grid of eighths or of small noise.  The
    first two make ties; the first also makes columns whose vertex a
    rounding in a - c decides."""
    if base == "ulps":
        Y = -1.0 + rng.integers(-3, 4, (n, b)) * np.spacing(1.0)
    elif base == "grid":
        Y = rng.integers(-4, 1, (n, b)) / 8
    else:
        Y = rng.normal(0.0, 0.1, (n, b))
    for col in range(b):
        Y[rng.permutation(n)[:mass], col] += raise_by
    return Y


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("base", ["ulps", "grid", "noise"])
@pytest.mark.parametrize("delta", [0.0, 1e-3, 5.0])
def test_vertex_columns_match_reference_bit_for_bit(delta, base, order):
    """Columns whose j largest entries are raised by 1 + delta, give or take
    2 ulps, sit on or near a vertex, where the projection settles most of
    them without the search; it must give the exact vertex there and the
    search's bits elsewhere."""
    rng = np.random.default_rng(int(delta * 1000) + len(base))
    for _ in range(40):
        n = int(rng.integers(2, 25))
        b = int(rng.integers(1, 30))
        mass = int(rng.integers(1, n))
        raise_by = 1.0 + delta + int(rng.integers(-2, 3)) * np.spacing(1.0 + delta)
        Y = np.asarray(_raised_columns(rng, n, b, mass, raise_by, base), order=order)
        _assert_same_bits(project_columns(Y, float(mass)),
                          _reference_project_columns(Y, float(mass)))


@pytest.mark.parametrize("n_points", [2000, 5000, 12000])
def test_inlier_step_shapes_match_reference_bit_for_bit(n_points):
    """The v step: one long column with a mass near its length, on or near
    a vertex (outliers pushed down by 1 and more) and away from one."""
    rng = np.random.default_rng(n_points)
    for n_out in (1, n_points // 100, n_points // 20):
        mass = float(n_points - n_out)
        y = 1.0 - rng.uniform(0.0, 0.2, n_points)
        for drop in (1.0, 1.0 + 1e-3, 3.0, 0.1):
            v = y.copy()
            v[rng.permutation(n_points)[:n_out]] -= drop
            _assert_same_bits(project_mass(v, mass),
                              _reference_project_columns(v[:, None], mass)[:, 0])


def test_vertex_is_exact_where_the_search_would_round():
    """At a vertex the exact projection is 0/1.  The search would return
    tau = a - 1 as rounded, which here rounds up to -1 and gives the entry
    a = -3 * 2**-55 the weight 1 - 2**-53; tau = c gives it 1."""
    Y = np.array([[0.0], [-3 * 2.0**-55], [-2.0], [-3.0]])
    W = project_columns(Y, 2.0)
    _assert_same_bits(W, _reference_project_columns(Y, 2.0))
    assert W[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert W[:, 0].sum() == 2.0


@st.composite
def _near_vertex_inputs(draw):
    """(Y, mass) with each column's `mass` largest entries raised by
    1 + delta, give or take 2 ulps, above a base of `_raised_columns` scaled
    by 2**e for |e| <= 20, then shifted by up to 1e8.  The shapes take the
    row pass (wide, mass 1), the bisection (mass 2 and above, or tall) and a
    long vector like the v step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["row pass", "bisection", "vector"]))
    if shape == "row pass":
        n = draw(st.integers(2, 20))
        b, mass = n + draw(st.integers(1, 30)), 1
    elif shape == "bisection":
        n, b = draw(st.integers(3, 25)), draw(st.integers(1, 30))
        mass = draw(st.integers(2, n - 1)) if n < b else draw(st.integers(1, n - 1))
    else:
        n, b = draw(st.integers(100, 3000)), 1
        mass = n - draw(st.integers(1, n // 20))
    delta = draw(st.sampled_from([0.0, 1e-3, 5.0]))
    raise_by = 1.0 + delta + draw(st.integers(-2, 2)) * np.spacing(1.0 + delta)
    scale = 2.0 ** draw(st.integers(-20, 20))
    base = draw(st.sampled_from(["ulps", "grid", "noise"]))
    # raising the unscaled base by raise_by / scale and scaling is exact
    Y = _raised_columns(rng, n, b, mass, raise_by / scale, base) * scale
    Y += draw(st.one_of(st.just(0.0), st.floats(-1e8, 1e8)))
    return np.asarray(Y, order=draw(st.sampled_from("CF"))), mass


@settings(max_examples=300, deadline=None)
@given(_near_vertex_inputs())
def test_vertex_columns_are_exact(inputs):
    """Every column whose j-th and (j+1)-th largest entries a and c have
    a - c >= 1 in the frame projects to exactly its 0/1 vertex, whichever
    finder runs, and sums to exactly j."""
    Y, mass = inputs
    n = Y.shape[0]
    Z = Y - Y.max(axis=0)
    u = np.sort(Z, axis=0)
    c, a = u[n - mass - 1], u[n - mass]
    vertex = a - c >= 1.0
    W = project_columns(Y, float(mass))[:, vertex]
    _assert_same_bits(W, (Z > c)[:, vertex].astype(float))
    assert np.all(W.sum(axis=0) == mass)


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("searched", [1, 9])
def test_columns_that_do_not_settle_fall_back_to_the_search(monkeypatch, order, searched):
    """Columns off a vertex are gathered for the search in the input's
    memory order, so their sums of 40 rows keep their bits: a C-ordered
    column alone would be summed pairwise, the others in row order."""
    rng = np.random.default_rng(searched)
    Y = _raised_columns(rng, 40, 20, 3, 5.0, "noise")
    Y[:, rng.permutation(20)[:searched]] = rng.normal(0.0, 1.0, (40, searched))
    Y = np.asarray(Y, order=order)
    widths = []
    search = geometry._search
    monkeypatch.setattr(geometry, "_search",
                        lambda z, mass: widths.append(z.shape[1]) or search(z, mass))
    W = project_columns(Y, 3.0)
    assert widths == [max(searched, 2)]
    _assert_same_bits(W, _reference_project_columns(Y, 3.0))
