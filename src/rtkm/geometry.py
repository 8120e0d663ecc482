"""Exact Euclidean projection onto capped simplices.

The capped simplex with mass s in dimension n is the set
{w in [0,1]^n : sum(w) = s}.  The projection of y is clip(y - tau, 0, 1)
for the scalar tau solving f(tau) = sum(clip(y - tau, 0, 1)) = s; f is
piecewise linear and nonincreasing with breakpoints {y_j - 1, y_j}, so tau
is found exactly by bisecting over the 2n sorted breakpoints for the
segment where f crosses s and interpolating on it (Wang & Lu, "Projection
onto the Capped Simplex", arXiv:1503.01002).
"""

import numpy as np


class InfeasibleSimplexError(ValueError):
    """Requested mass lies outside [0, dimension]."""


def project_columns(Y, mass: float) -> np.ndarray:
    """Project every column of an (n, B) matrix onto the mass-capped simplex.

    Exact in O(nB log n) time and O(nB) memory; raises on non-finite input
    or a mass outside [0, n].
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
    bps = np.sort(np.concatenate((Y - 1.0, Y), axis=0), axis=0)  # (2n, B)
    cols = np.arange(b)

    def f(tau):  # summed over rows in order, so each column's f is monotone
        return np.clip(Y - tau, 0.0, 1.0).sum(axis=0)

    # Largest breakpoint index with f >= mass: f(bps[0]) = n, f(bps[-1]) = 0.
    lo = np.zeros(b, dtype=np.intp)
    hi = np.full(b, 2 * n - 1, dtype=np.intp)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ge = f(bps[mid, cols]) >= mass
        lo = np.where(ge, mid, lo)
        hi = np.where(ge, hi, mid)
    tau0 = bps[lo, cols]
    f0 = f(tau0)
    active = np.count_nonzero((Y - 1.0 <= tau0) & (Y > tau0), axis=0)
    tau = np.where(active > 0, tau0 + (f0 - mass) / np.maximum(active, 1), tau0)
    return np.clip(Y - tau, 0.0, 1.0)


def project_mass(y, mass: float) -> np.ndarray:
    """Project a vector onto the mass-capped simplex of len(y)."""
    return project_columns(np.asarray(y, dtype=float)[:, None], mass)[:, 0]
