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

Columns are independent, so a wide matrix is projected in contiguous blocks
of columns, one per CPU, each on its own thread.  Every column goes through
the same operations in the same order in any block, so the output does not
depend on the number of blocks.
"""

import os
import threading

import numpy as np

# Least n * B at which project_columns splits its columns over threads.
# Below it, starting threads and passing the interpreter lock between them
# costs more than the blocks save.  Medians on 2 CPUs, one thread against
# two: n=14, B=2400 took 1.4 against 3.0 ms; the two break even near
# n*B = 100000-150000; n=50, B=4000 took 8.3 against 7.0 ms and n=50,
# B=10000 23.6 against 13.6 ms.
PARALLEL_MIN_ENTRIES = 150_000


class InfeasibleSimplexError(ValueError):
    """Requested mass lies outside [0, dimension]."""


def _cpu_count():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _project_block(Y, mass, out):
    """Write the projection of every column of Y into out (same shape)."""
    if mass <= 1.0:
        _project_simplex(Y, mass, out)
    else:
        _bisect_capped(Y, mass, out)


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
    u = np.sort(Y, axis=0)[::-1]
    top = u[0].copy()
    u -= top  # row 0 is 0 > -mass = css_1, so the support is never empty
    css = np.cumsum(u, axis=0, out=out)  # in row order, in a block of any width
    css -= mass
    css /= np.arange(1.0, n + 1.0)[:, None]
    rho = n - 1 - np.argmax((u > css)[::-1], axis=0)  # the last row in the support
    tau = css[rho, np.arange(b)]
    np.subtract(Y, top, out=out)
    out -= tau
    np.clip(out, 0.0, 1.0, out=out)


def _bisect_capped(Y, mass, out):
    """Bisection over the breakpoints for 1 < mass < n.

    out also holds each evaluation of f and Y - 1 for the active count, so
    a block allocates only its 2n sorted breakpoints beyond a few vectors.
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

    Exact in O(nB log n) time and O(nB) memory; raises on non-finite input
    or a mass outside [0, n].  When n * B reaches PARALLEL_MIN_ENTRIES, the
    columns are split into contiguous blocks of at least two columns, one
    per CPU the process may run on; the calling thread projects one block
    and a thread started for this call projects each other one.  The
    output is bit-identical for any number of blocks, and an error raised
    in a block is raised here.
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
    # A block is at least two columns wide: numpy sums a one-column block
    # pairwise rather than row by row, which can change the last bit.
    blocks = min(_cpu_count(), b // 2) if n * b >= PARALLEL_MIN_ENTRIES else 1
    if blocks <= 1:
        _project_block(Y, mass, out)
        return out

    edges = [b * i // blocks for i in range(blocks + 1)]
    errors = [None] * blocks
    floating_point = np.geterr()  # numpy's error handling is per thread

    def run(i):
        try:
            with np.errstate(**floating_point):
                _project_block(Y[:, edges[i]:edges[i + 1]], mass,
                               out[:, edges[i]:edges[i + 1]])
        except BaseException as exc:  # raised again in the caller
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, blocks)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


def project_mass(y, mass: float) -> np.ndarray:
    """Project a vector onto the mass-capped simplex of len(y)."""
    return project_columns(np.asarray(y, dtype=float)[:, None], mass)[:, 0]
