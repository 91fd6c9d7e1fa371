"""NumPy kernels that stand in for SciPy.  Callers import them into their own modules (cylinder: dst, brentq,
quad, _spline; schrodinger: eigh_tridiagonal) and call them there, so swapping that binding reaches every call.

The sine transforms, the root finder (brentq) and the natural cubic spline need no SciPy.  dst(x, 1) is
SciPy's orthonormal DST-I of each column of x; dst(x, 3) and dst(x, 2) are SciPy's unnormalized DST-III and
DST-II scaled to the half-field maps (rows to odd sine modes and back), each a cached sine-matrix product or a
NumPy real FFT (Makhoul's reordering for types 2 and 3); brentq is SciPy's C Brent solver ported; the spline
takes its knot curvatures from the eigensolver's cyclic reduction.

The eigensolver's odd-even cyclic reduction (Buzbee-Golub-Nielson, SIAM J. Numer. Anal. 1970) solves a
shifted tridiagonal matrix in log2(n) NumPy steps, and its pivots count the eigenvalues below the shift, for
bisection, inverse and Rayleigh-quotient iteration (Parlett, The Symmetric Eigenvalue Problem, ch. 4) and
the final certificate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericsError


# up to this many rows a dst is a sine-matrix product, beyond it one real FFT: with 9 columns on one BLAS
# thread both cost about 40 us at 250 rows for types 2 and 3; type 1's FFT is twice as long
_DENSE_ROWS = 256


@lru_cache(maxsize=16)
def _sine_matrix(m: int, type: int) -> np.ndarray:
    """Read-only matrix of dst on m rows: sines of integer multiples j of pi / q, j reduced mod 2 q."""
    k = np.arange(1, m + 1)
    if type == 1:  # sqrt(2 / (m + 1)) sin(pi k k' / (m + 1))
        j, q, scale = np.outer(k, 2 * k), 2 * (m + 1), math.sqrt(2.0 / (m + 1))
    else:  # 2 sin(pi k (2 k' - 1) / (2 m))
        j, q, scale = np.outer(k, 2 * k - 1), 2 * m, 2.0
    S = scale * np.sin(math.pi / q * (j % (2 * q)))
    if type == 3:  # the transpose of type 2, its last column halved
        S = S.T.copy()
        S[:, -1] *= 0.5
    S.flags.writeable = False
    return S


@lru_cache(maxsize=32)
def _twiddle(m: int, type: int) -> np.ndarray:
    """Read-only Makhoul twiddle 2 exp(-i pi k/2m) (type 2) or exp(i pi k/2m), k <= m//2: a column dst broadcasts."""
    k = np.arange(m // 2 + 1)[:, None]
    w = (2.0 if type == 2 else 1.0) * np.exp((0.5j if type == 3 else -0.5j) * math.pi / m * k)
    w.flags.writeable = False
    return w


def dst(x: np.ndarray, type: int) -> np.ndarray:
    """The package's sine coefficients of each column of a 2-d float x on m rows: type 1 the orthonormal DST-I of a
    full field; type 3 the odd sine modes of a half field, its unnormalized DST-III / sqrt(m); type 2 the inverse,
    the half field of m odd modes, their unnormalized DST-II / (2 sqrt(m)).  Up to _DENSE_ROWS rows, a product with
    the cached sine matrix; longer, one real FFT: of x zero-padded to 2 (m + 1) rows for type 1, of length m in
    Makhoul's reordering (IEEE TASSP 1980), twiddle column broadcast, for types 2, 3."""
    m = len(x)
    if m <= _DENSE_ROWS:
        y = _sine_matrix(m, type) @ x
    elif type == 1:  # -Im of the DFT of (0, x, 0, ..., 0)
        z = np.zeros((2 * (m + 1), x.shape[1]))
        z[1 : m + 1] = x
        y = np.empty_like(x)
        np.multiply(np.fft.rfft(z, axis=0)[1 : m + 1].imag, -math.sqrt(2.0 / (m + 1)), out=y)
    elif type == 2:  # the DCT-II of (-1)^j x_j read backwards; FFT of the even rows, then the odd ones reversed
        y, v, h = np.empty_like(x), np.empty_like(x), (m + 1) // 2
        v[:h] = x[0::2]
        np.negative(x[1::2][::-1], out=v[h:])
        W = np.fft.rfft(v, axis=0)
        W *= _twiddle(m, 2)
        y[::-1][: len(W)] = W.real
        np.negative(W.imag[1:], out=y[: len(W) - 1])
    else:  # the inverse: the DCT-III of x read backwards, with its odd rows negated
        y, h = np.empty_like(x), m // 2 + 1
        Z = x[::-1][:h] + 0j
        np.negative(x[: h - 1], out=Z.imag[1:])
        Z *= _twiddle(m, 3)
        t = np.fft.irfft(Z, m, axis=0, norm="forward")
        y[0::2] = t[: (m + 1) // 2]
        np.negative(t[::-1][: m // 2], out=y[1::2])
    if type != 1:  # SciPy's unnormalized DST-III or DST-II, scaled to the half-field map
        y /= math.sqrt(m) if type == 3 else 2.0 * math.sqrt(m)
    return y


_EPS = float(np.finfo(float).eps)


@np.errstate(divide="ignore", invalid="ignore")  # a zero pivot counts as negative; its solve is retried
def _reduce(a, c, f=None):
    """Odd-even cyclic reduction of the tridiagonal matrix with diagonal a and off-diagonal -c:
    each level eliminates the even-indexed unknowns, whose pivots are their own diagonal entries.
    Returns the number of pivots not > 0, which is the number of negative eigenvalues, and the
    solution of the system with right-hand side f (None without f)."""
    n, positive, levels = a.size, 0, []
    while a.size > 1:
        piv, cl, cr = a[0::2], c[0::2], c[1::2]
        positive += np.count_nonzero(piv > 0)
        ql, qr = cl / piv[: cl.size], cr / piv[1 : cr.size + 1]
        a1 = a[1::2] - cl * ql
        a1[: qr.size] -= cr * qr
        if f is not None:
            levels.append((piv, cl, cr, f[0::2]))
            f, fe = f[1::2] + ql * f[0 : 2 * ql.size : 2], f[2::2]
            f[: qr.size] += qr * fe
        a, c = a1, qr[: a1.size - 1] * c[2::2]
    x = None if f is None else f / a
    for piv, cl, cr, fe in reversed(levels):  # each eliminated unknown from its kept neighbours
        full, t = np.empty(piv.size + x.size), fe.copy()
        t[: x.size] += cl * x
        t[1:] += cr * x[: t.size - 1]
        full[0::2], full[1::2], x = t / piv, x, full
    return n - positive - np.count_nonzero(a > 0), x


def _rayleigh(d, e, y):
    """x = y/|y|, its Rayleigh quotient rho for T (diagonal d, off-diagonal e) and |T x - rho x|."""
    x = y / np.linalg.norm(y)
    tx = d * x
    tx[:-1] += e * x[1:]
    tx[1:] += e * x[:-1]
    rho = float(x @ tx)
    return x, rho, float(np.linalg.norm(tx - rho * x))


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(lambda1, x, r): the lowest eigenvalue of the symmetric tridiagonal T (diagonal d, off-diagonal
    e), its unit eigenvector x and the residual r = |T x - lambda1 x|, all from the last Rayleigh pass.

    Inertia bisection from the Gershgorin bound isolates lambda1 below a shift `above` <= lambda2.
    Inverse iteration then shifts to the Kato-Temple bound rho - r^2/(above - rho) of the Rayleigh
    quotient rho and residual r when it beats the best count-certified bound lo, else to the
    bracket's midpoint.  It stops at r <= 16 eps |T|_inf and accepts rho only if no eigenvalue
    lies below rho - 16 eps |T|_inf; otherwise NumericsError."""
    c, radius = -e, np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = radius[:-1] + radius[1:]
    tol = 16 * _EPS * float(np.max(np.abs(d) + radius))
    lo, above = float(np.min(d - radius)), -math.inf
    x, rho, res = _rayleigh(d, e, np.sin(np.arange(1, d.size + 1) * (math.pi / (d.size + 1))))
    up = sigma = rho
    for _ in range(100):  # bisection from the Gershgorin bracket (width <= 2|T|) down to tol takes at most 49
        if res <= tol:
            break
        if above == -math.inf and up - lo > tol:  # isolate lambda1 by counts alone
            k, _ = _reduce(d - sigma, c)
        else:
            k, y = _reduce(d - sigma, c, x)
            if not np.isfinite(y).all():  # a zero pivot: move the shift off it
                sigma -= tol
                continue
            x, rho, res = _rayleigh(d, e, y)
        lo, up = (sigma, up) if k == 0 else (lo, min(up, sigma))
        above = max(above, sigma) if k == 1 else above
        temple = rho - res * res / (above - rho) if rho < above else lo
        sigma = temple if temple > lo else 0.5 * (lo + min(up, rho))
    else:
        raise NumericsError(f"eigh_tridiagonal: residual {res:.3g} > {tol:.3g} after 100 passes")
    if lo < rho - tol and _reduce(d - (rho - tol), c)[0]:
        raise NumericsError(f"eigh_tridiagonal: an eigenvalue lies below the Rayleigh quotient {rho!r} - {tol:.3g}")
    return rho, x, res


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * 2.0**-52, maxiter: int = 100) -> float:
    """scipy.optimize.brentq, SciPy's C ported line for line (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4): the same steps, so the same root, f calls and errors."""

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def quad(f, edges: np.ndarray) -> float:
    """Integral of f over [edges[0], edges[-1]] by the composite 6-point
    Gauss-Legendre rule on the intervals between consecutive edges (exact for
    degree 11 on each); f is called once, on the (len(edges) - 1, 6) nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(6)  # 0.1 ms; at import it would start LAPACK in every process
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * nodes
    return float(half @ (f(x) @ weights))


def _spline(s: np.ndarray, w: np.ndarray):
    """The natural cubic spline through (s, w) and its derivative (de Boor, A Practical Guide to
    Splines, ch. IV), as two functions that evaluate row k of their argument on the piece over
    [s_k, s_(k+1)].  So each row must lie in its own knot interval, as :func:`quad`'s (len(s) - 1, 6)
    nodes on the knots s do, and so do the logs of its nodes on their images e^s."""
    h = np.diff(s)
    slope = np.diff(w) / h
    # knot curvatures: h_(i-1) M_(i-1) + 2 (h_(i-1) + h_i) M_i + h_i M_(i+1) = 6 (slope_i - slope_(i-1))
    _, m = _reduce(2.0 * (h[:-1] + h[1:]), -h[1:-1], 6.0 * np.diff(slope))
    m = np.concatenate(([0.0], m, [0.0]))
    left, c0, c2 = s[:-1, None], w[:-1, None], 0.5 * m[:-1, None]
    c1 = (slope - h * (2.0 * m[:-1] + m[1:]) / 6.0)[:, None]
    c3 = (np.diff(m) / (6.0 * h))[:, None]

    def W(t):
        d = t - left
        return c0 + d * (c1 + d * (c2 + d * c3))

    def dW(t):
        d = t - left
        return c1 + d * (2.0 * c2 + 3.0 * c3 * d)

    return W, dW
