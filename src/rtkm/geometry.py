"""Exact Euclidean projection onto capped simplices.

The capped simplex with mass s in dimension n is the set
{w in [0,1]^n : sum(w) = s}.  The projection of y is clip(y - tau, 0, 1)
for the scalar tau solving f(tau) = sum(clip(y - tau, 0, 1)) = s.

Every column is projected in one frame: each finder builds y - top, for
the column's largest entry top, and hands it back with the tau found in it,
and `project_columns` clips (y - top) - tau in place.  A shift of y that
leaves its entries representable does not change y - top, so it leaves
the projection's bits as they are; without the frame, tau rounds at the
scale of top, and at an offset of 1e16 a column could lose all its weight.
An entry more than 2**52 below top is a whole number in the frame, so it
cannot carry fractional weight.  Which finder runs depends on the mass and
the shape (n, B) of the matrix:

- 0 < s <= 1 and n < B (every W step with s = 1).  A point with w >= 0
  and sum(w) = s <= 1 has no entry above 1, so the cap cannot bind and the
  set is the simplex {w >= 0, sum(w) = s}.  Its projection has a closed
  form (Duchi, Shalev-Shwartz, Singer & Chandra, ICML 2008): sort y - top
  in descending order into u, take css_r = (u_1 + ... + u_r - s) / r, and
  tau = css_rho for the last row rho with u_rho > css_rho.  It makes one
  pass down the rows, with the running sum, css and tau as vectors of B
  entries, so it pays per row, not per column.
- Every other mass and shape (W steps with s > 1, the inlier vector v; a
  tall matrix or long vector, where the row pass would loop over many rows).
  f is piecewise linear and nonincreasing with breakpoints {y_j - 1, y_j}.
  The search bisects over the 2n sorted breakpoints for the segment where f
  crosses s and interpolates on it (Wang & Lu, arXiv:1503.01002): a sort of
  2n entries and about log2(2n) evaluations of f, each a whole-matrix
  operation.  At an integer mass j, a column whose j-th and (j+1)-th largest
  entries a and c have a - c >= 1 (as computed in the frame) skips it with
  tau = c and lands on the exact vertex: each of its j largest entries u has
  u - c >= a - c >= 1 as rounded and clips to 1, every other entry is at
  most c and clips to 0, so the column sums to exactly j.  Other columns
  still search.
"""

import numpy as np


class InfeasibleSimplexError(ValueError):
    """Requested mass lies outside [0, dimension]."""


def _project_simplex(Y, mass):
    """(frame, tau) by the closed form, for 0 < mass <= 1."""
    n, b = Y.shape
    frame = np.sort(Y, axis=0)
    u = frame[::-1]
    top = u[0].copy()
    u -= top  # row 0 is 0 > -mass = css_1, so the support is never empty
    total = u[0].copy()
    css = np.empty(b)
    tau = np.full(b, -mass, dtype=float)  # css at row 0
    for r in range(1, n):  # tau is css at the last row in the support
        np.add(total, u[r], out=total)
        np.subtract(total, mass, out=css)
        css /= r + 1.0
        np.copyto(tau, css, where=u[r] > css)
    np.subtract(Y, top, out=frame)
    return frame, tau


def _clipped_sums(z, tau, scratch):  # over rows in z's memory order: monotone in tau
    return np.clip(np.subtract(z, tau, out=scratch), 0.0, 1.0, out=scratch).sum(axis=0)


def _bisect_capped(Y, mass):
    """(frame, tau): settled at the exact vertex where it is one, else searched."""
    n, b = Y.shape
    top = Y.max(axis=0)
    z = np.subtract(Y, top)
    # an entry whose distance to top overflowed (under over="ignore") is
    # -inf, and -inf - -inf is nan: hold it at -max, which clips to 0 too
    np.maximum(z, -np.finfo(float).max, out=z)
    rest = np.arange(b)
    if float(mass).is_integer():
        j = int(mass)
        part = np.partition(z, n - j - 1, axis=0)  # one kth: two cost 4x at n = 14
        c, a = part[n - j - 1], part[n - j:].min(axis=0)
        tau, rest = c, np.flatnonzero(a - c < 1.0)
    if rest.size == b:
        return z, _search(z, mass)
    if rest.size:  # in z's order, and never one C column alone, which would sum pairwise
        rest = np.resize(rest, max(rest.size, 2))
        sub = np.asarray(z[:, rest], order="F" if z.flags.f_contiguous else "C")
        tau[rest] = _search(sub, mass)
    return z, tau


def _search(z, mass):
    """tau of each column of the frame z by bisection over its breakpoints."""
    n, b = z.shape
    bps = np.empty((2 * n, b))
    np.subtract(z, 1.0, out=bps[:n])
    bps[n:] = z
    bps.sort(axis=0)
    flat = bps.reshape(-1)
    cols = np.arange(b)
    scratch = np.empty_like(z)  # each evaluation of f

    # Largest breakpoint index with f >= mass: f(bps[0]) = n, f(bps[-1]) = 0.
    lo = np.zeros(b, dtype=np.intp)
    hi = np.full(b, 2 * n - 1, dtype=np.intp)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ge = _clipped_sums(z, flat[mid * b + cols], scratch) >= mass
        np.copyto(lo, mid, where=ge)
        np.copyto(hi, mid, where=~ge)
    tau0 = flat[lo * b + cols]
    f0 = _clipped_sums(z, tau0, scratch)
    np.subtract(z, 1.0, out=scratch)
    active = np.count_nonzero((scratch <= tau0) & (z > tau0), axis=0)
    return np.where(active > 0, tau0 + (f0 - mass) / np.maximum(active, 1), tau0)


def project_columns(Y, mass: float) -> np.ndarray:
    """Project every column of an (n, B) matrix onto the mass-capped simplex.

    Exact in O(nB log n) time and O(nB) memory, on the calling thread; a
    column settled at its 0/1 vertex costs a partition, not the search.
    Raises on non-finite input or a mass outside [0, n].
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
    find = _project_simplex if mass <= 1.0 and n < b else _bisect_capped
    frame, tau = find(Y, mass)
    frame -= tau
    return np.clip(frame, 0.0, 1.0, out=frame)


def project_mass(y, mass: float) -> np.ndarray:
    """Project a vector onto the mass-capped simplex of len(y)."""
    return project_columns(np.asarray(y, dtype=float)[:, None], mass)[:, 0]
