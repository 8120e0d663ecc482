"""Exact Euclidean projection onto capped simplices.

The capped simplex with mass s in dimension n is the set
{w in [0,1]^n : sum(w) = s}.  The projection of y is clip(y - tau, 0, 1)
for the scalar tau solving f(tau) = sum(clip(y - tau, 0, 1)) = s.  Which
algorithm finds tau depends on the mass:

- 0 < s <= 1 (every W step with s = 1).  A point with w >= 0 and
  sum(w) = s <= 1 has no entry above 1, so the cap cannot bind and the
  set is the simplex {w >= 0, sum(w) = s}.  Its projection has a closed
  form (Duchi, Shalev-Shwartz, Singer & Chandra, ICML 2008): sort y in
  descending order into u, take css_r = (u_1 + ... + u_r - s) / r, and
  tau = css_rho for the last row rho with u_rho > css_rho.  It is taken
  on y - u_1, so that rounding stays at the scale of s.  That costs one
  sort of n entries and one running sum per column.
- 1 < s < n (W steps with s > 1, the inlier vector v).  f is piecewise
  linear and nonincreasing with breakpoints {y_j - 1, y_j}, so tau is
  found exactly by bisecting over the 2n sorted breakpoints for the
  segment where f crosses s and interpolating on it (Wang & Lu,
  "Projection onto the Capped Simplex", arXiv:1503.01002).  That costs a
  sort of 2n entries and about log2(2n) evaluations of f per column.

Every column takes the same operations in the same order, on the calling
thread.  numpy's scans over axis 0 (`cumsum`, `argmax` of the reversed
comparison) pay per column, and the `argmax` makes a transposed copy.  So
when n < B the closed form makes one pass down the rows, with the running
sum, css and tau as vectors of B entries and the sorted copy in the output
array.  A tall matrix keeps numpy's scans, since a loop over its rows
costs more.  Both give the same sums in the same order and the same tau.
"""

import numpy as np


class InfeasibleSimplexError(ValueError):
    """Requested mass lies outside [0, dimension]."""


def _project_simplex(Y, mass, out):
    """The closed form for 0 < mass <= 1, where the cap cannot bind.

    Each column is first moved by its largest entry, top.  Only entries
    within mass of top can carry weight, and their differences from it
    round at the scale of mass, not of top.  Without the move, tau =
    top - mass rounds to top once |top| >= 2**53, and every weight of such
    a column comes out 0, as in the W steps of a fit on data at a scale of
    1e8.
    """
    n, b = Y.shape
    np.copyto(out, Y)
    out.sort(axis=0)
    u = out[::-1]
    top = u[0].copy()
    u -= top  # row 0 is 0 > -mass = css_1, so the support is never empty
    # tau is css at the last row in the support
    if n < b:  # one pass down the rows: see the module docstring
        total = u[0].copy()
        css = np.empty(b)
        tau = np.full(b, -mass, dtype=float)  # css at row 0
        for r in range(1, n):
            np.add(total, u[r], out=total)
            np.subtract(total, mass, out=css)
            css /= r + 1.0
            np.copyto(tau, css, where=u[r] > css)
    else:
        css = np.cumsum(u, axis=0)
        css -= mass
        css /= np.arange(1.0, n + 1.0)[:, None]
        rho = n - 1 - np.argmax((u > css)[::-1], axis=0)
        tau = css[rho, np.arange(b)]
    np.subtract(Y, top, out=out)
    out -= tau
    np.clip(out, 0.0, 1.0, out=out)


def _bisect_capped(Y, mass, out):
    """Bisection over the breakpoints for 1 < mass < n.

    out also holds each evaluation of f and Y - 1 for the active count, so
    a call allocates only its 2n sorted breakpoints beyond a few vectors.
    """
    n, b = Y.shape
    bps = np.empty((2 * n, b))
    np.subtract(Y, 1.0, out=bps[:n])
    bps[n:] = Y
    bps.sort(axis=0)
    flat = bps.reshape(-1)
    cols = np.arange(b)

    def f(tau):  # summed over rows in order, so each column's f is monotone
        np.subtract(Y, tau, out=out)
        np.clip(out, 0.0, 1.0, out=out)
        return out.sum(axis=0)

    # Largest breakpoint index with f >= mass: f(bps[0]) = n, f(bps[-1]) = 0.
    lo = np.zeros(b, dtype=np.intp)
    hi = np.full(b, 2 * n - 1, dtype=np.intp)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ge = f(flat[mid * b + cols]) >= mass
        np.copyto(lo, mid, where=ge)
        np.copyto(hi, mid, where=~ge)
    tau0 = flat[lo * b + cols]
    f0 = f(tau0)
    np.subtract(Y, 1.0, out=out)
    active = np.count_nonzero((out <= tau0) & (Y > tau0), axis=0)
    tau = np.where(active > 0, tau0 + (f0 - mass) / np.maximum(active, 1), tau0)
    np.subtract(Y, tau, out=out)
    np.clip(out, 0.0, 1.0, out=out)


def project_columns(Y, mass: float) -> np.ndarray:
    """Project every column of an (n, B) matrix onto the mass-capped simplex.

    Exact in O(nB log n) time and O(nB) memory, on the calling thread;
    raises on non-finite input or a mass outside [0, n].
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("expected an (n, B) matrix")
    n, b = Y.shape
    if not np.all(np.isfinite(Y)):
        raise ValueError("input matrix contains non-finite entries")
    if not np.isfinite(mass) or mass < 0 or mass > n:
        raise InfeasibleSimplexError(f"mass {mass} must lie in [0, {n}]")
    if mass == 0.0:
        return np.zeros_like(Y)
    if mass == n:
        return np.ones_like(Y)
    out = np.empty_like(Y)
    if mass <= 1.0:
        _project_simplex(Y, mass, out)
    else:
        _bisect_capped(Y, mass, out)
    return out


def project_mass(y, mass: float) -> np.ndarray:
    """Project a vector onto the mass-capped simplex of len(y)."""
    return project_columns(np.asarray(y, dtype=float)[:, None], mass)[:, 0]
