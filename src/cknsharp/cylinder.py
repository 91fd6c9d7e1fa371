"""Discretized variational problem on the cylinder R x S^(N-1).

Fields are tensor products of a Dirichlet line grid (sine-spectral calculus
in s, so derivative energies are exact for the interpolant and accurate to
spectral order for decaying profiles) and the zonal sphere basis of
:mod:`cknsharp.sphere` under the uniform probability measure.  One ledger
serves every field: its gradient energy E and mass M are sums over the
squares of its orthonormal sine coefficients (Parseval), the DST-I of a full
field or the odd modes the flow's half field holds; E and its preconditioner
are diagonal in that sine x zonal basis.  On top of that sit the Rayleigh
quotients of the plain and interpolation inequalities, a limited-memory quasi-Newton
(L-BFGS, three pairs) flow seeded with the diagonal preconditioner, with
Armijo backtracking from step 1, that runs in coefficient space (two transforms per
iteration, none per line-search trial; one nodal power per trial, none per
gradient; no shared state, so flows may run in threads), each start first
on a coarse sine grid of the same box and only the best start then on the
requested one, the Euler-Lagrange residual, the five-step
proof-chain slack evaluator, the second-variation instability detector with
its threshold root (brentq), the log-radial change of variables from Euclidean
space, the spectral-bound equivalence, and the theta < 1 sandwich verification.
Its NumPy kernels (dst, brentq, quad and _spline) live in :mod:`cknsharp._kernels`.

All angular integrals use the probability measure, so the radial benchmark
is the interpolation-family constant radial_interp_constant; the
surface-measure constant follows from the explicit sphere_area bridge.
The flow runs over fields even in s: Steiner symmetrization in s at each angle keeps M and P
and does not raise E (Polya-Szego; Lieb-Loss, Analysis, ch. 3), so their infimum is the
infimum, as Catrina-Wang (CPAM 2001) use for CKN extremals on the cylinder; it says nothing
of angular symmetry.  With n odd, such a field is its s <= 0 half or its odd sine modes.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import nullcontext
from functools import lru_cache
from dataclasses import dataclass, field, fields

import numpy as np

from . import sphere
from ._kernels import _spline, brentq, dst, quad
from .closed_forms import (
    extremal_profile,
    gap_factor,
    lt_constant,
    profile_constants,
    radial_interp_coefficient,
    radial_interp_constant,
)
from .errors import (
    DomainError, NumericsError, check_L_max, check_Lambda, check_N, check_numeric_N, check_p, check_subcritical,
    check_theta_window
)
from .params import CylinderPoint, ParamPoint, a_critical, chain_exponents, lambda_sym, theta_min, to_cylinder
from .schrodinger import LineGrid, lowest_eigenpair, sech_squared_potential

__all__ = [
    "CylField",
    "MinimizeOpts",
    "MinimizeReport",
    "ChainReport",
    "SandwichReport",
    "DEFAULT_GRID",
    "DEFAULT_L_MAX",
    "extremal_field",
    "rayleigh",
    "minimize_quotient",
    "el_residual",
    "proof_chain",
    "second_variation_mode",
    "fs_threshold",
    "emden_fowler_pushforward",
    "eigenvalue_bound",
    "symmetric_mu_threshold",
    "sandwich_check",
]

# n + 1 = 600 = 2^3 3 5^2 is 5-smooth (a fast DST-I); it holds extremals with B h <= _BH_MAX, _grid_for the rest
DEFAULT_GRID = LineGrid(20.0, 599)
DEFAULT_L_MAX = 8
_BH_MAX = 0.08
_SMOOTH = {2**a * 3**b * 5**c for a in range(1, 11) for b in range(7) for c in range(5)} & set(range(600, 2001))


def _grid_for(p: float, Lambda: float, theta: float = 1.0, S: float = 20.0) -> LineGrid:
    """The flow's default grid on [-S, S]: the fewest nodes n, n + 1 even, 5-smooth and 600 to 2000, with B h <=
    _BH_MAX, else n = 1999.  The sine error in s falls exponentially in 1/(B h) (u* is analytic for |Im s| < pi/2B).
    No amplitude, no refusal: a point or S outside its domain gets n = 1999, and the caller's checks refuse it."""
    denom = (2 * theta - 1) * p + 2
    eta_theta = (p + 2) * Lambda / denom if denom > 0 else math.nan
    width = (p - 2) * math.sqrt(eta_theta) * S if eta_theta >= 0 else math.nan  # B (n + 1) h
    return LineGrid(S, min((m for m in _SMOOTH if 0 < width / m <= _BH_MAX), default=2000) - 1)


@lru_cache(maxsize=None)
def _angular(N: int, L_max: int):
    """(quadrature, basis matrix) pair for the zonal calculus, built once per (N, L_max)."""
    quad_ = sphere.default_quadrature(N, L_max)
    return quad_, quad_.basis(L_max)


@lru_cache(maxsize=None)
def _nodal_ops(N: int, L_max: int):
    """(B^T, w B) of _angular's B: coefficients to nodal values and back, built once per (N, L_max)."""
    quad_, B = _angular(N, L_max)
    return B.T, quad_.weights[:, None] * B


@dataclass(eq=False)
class CylField:
    """Field on R x S^(N-1): coefficients indexed (s-node, zonal degree).  Fields compare by
    identity: arrays have no elementwise truth value."""

    grid: LineGrid
    N: int
    data: np.ndarray
    half = False  # a class attribute, not a field: True only for the flow's _Even

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != self.grid.n:
            raise DomainError(f"data must have shape ({self.grid.n}, L_max+1), got {self.data.shape}")
        check_numeric_N(self.N)

    @property
    def L_max(self) -> int:
        return self.data.shape[1] - 1

    def nodal(self) -> np.ndarray:
        """Values at (s-node, angular quadrature node)."""
        return self.data @ _nodal_ops(self.N, self.L_max)[0]

    @classmethod
    def from_nodal(cls, grid: LineGrid, N: int, L_max: int, values: np.ndarray) -> "CylField":
        return cls(grid, N, values @ _nodal_ops(N, L_max)[1])

    def copy(self) -> "CylField":
        return CylField(self.grid, self.N, self.data.copy())


def extremal_field(grid: LineGrid, N: int, L_max: int, Lambda: float, p: float, theta: float = 1.0) -> CylField:
    """The s-only extremal profile embedded as a cylinder field: degree 0 holds it at the grid nodes."""
    check_L_max(L_max, 0)
    data = np.zeros((grid.n, L_max + 1))
    data[:, 0] = extremal_profile(grid.nodes(), profile_constants(Lambda, p, theta), p)
    return CylField(grid, N, data)


# ---------------------------------------------------------------------------
# sine-spectral calculus in s

@lru_cache(maxsize=16)
def _omega2(grid: LineGrid, half: bool = False) -> np.ndarray:
    """Squared sine frequencies (odd-index ones if half), built once per grid; callers must not modify them."""
    return (np.arange(1, grid.n + 1, 1 + half) * math.pi / (2.0 * grid.S)) ** 2


@lru_cache(maxsize=32)
def _weights(rows: int, half: bool):
    """Row weights of sums over s-nodes, shared: 1, or for a half field 2 (a row and its mirror), 1 at s = 0."""
    return np.append(np.full(rows - 1, 2.0), 1.0)[:, None] if half else 1.0


def _stiffness(u: CylField) -> np.ndarray:
    """Diagonal of the gradient energy in the sine x zonal basis (see _stiffness_of)."""
    return _stiffness_of(u.grid, u.half, u.N, u.L_max)


@lru_cache(maxsize=16)
def _stiffness_of(grid: LineGrid, half: bool, N: int, L_max: int) -> np.ndarray:
    """_stiffness, built once per (grid, N, L_max); callers must not modify it."""
    return _omega2(grid, half)[:, None] + sphere.zonal_eigenvalues(N, L_max)[None, :]


def _refuse(u: CylField) -> None:
    """Refuse, before any transform, a zero field or one with a non-finite sample or squares past the
    float range: np.vdot sums the squares with no overflow warning, and NaN fails the comparison."""
    if not 0 < np.vdot(u.data, u.data) < math.inf:
        raise DomainError(f"zero field or non-finite samples on the grid (S={u.grid.S}, n={u.grid.n})")


def _sines(u: CylField):
    """(c, c**2): the sine coefficients of u, whose squares are the ledger of its E and M (Parseval): the
    odd modes an _Even holds, or the DST-I of a full field, refused first if zero or not finite."""
    if u.half:
        return u.c, u.c2
    _refuse(u)
    c = dst(u.data, 1)
    return c, c * c


def _nodal_stage(u: CylField, p: float):
    """(P, nl) from the nodal values U = data @ B^T: nl = aU @ (w B) the zonal
    coefficients of aU = |U|^(p-2) U = |U|^(p-1) sign U, and P = h sum(data * nl)
    the integral of |U|^p = aU U under the probability measure, by the exact
    identity sum_j w_j aU_ij U_ij = sum_l data_il nl_il (rows weighted by _weights)."""
    BT, wB = _nodal_ops(u.N, u.L_max)
    U = u.data @ BT
    aU = np.abs(U)
    aU **= p - 2
    aU *= U
    nl = aU @ wB
    return u.grid.h * float(np.vdot(_weights(len(u.data), u.half) * u.data, nl)), nl


def _pieces(u: CylField, p: float):
    """(E, M, P, nl, c) with E = h <_stiffness, c**2> the full gradient energy
    and M = h sum(c**2) the squared L2 norm, one formula on the sine
    coefficients c of a full field and an _Even alike (see _sines), P the
    integral of |u|^p, all under the probability measure, and nl the zonal
    coefficients of |u|^(p-2) u (see _nodal_stage).  A field with M or P zero
    or not finite raises DomainError, a full field's P with no overflow warning.

    An _Even keeps its pieces (one flow, one p): the line search scores
    normalized trials, so the gradient at the accepted one reuses them and
    takes no second power, and the flow's last field, which its report keeps
    privately, serves them to eigenvalue_bound and sandwich_check.
    """
    if u.half and u._pieces is not None:
        return u._pieces
    c, c2 = _sines(u)
    E, M = u.grid.h * float(np.vdot(_stiffness(u), c2)), u.grid.h * float(c2.sum())
    with nullcontext() if u.half else np.errstate(over="ignore", invalid="ignore"):  # _Even: unit mass, no overflow
        pieces = (E, M, *_nodal_stage(u, p), c)
    if not 0 < pieces[2] < math.inf:  # M by _refuse or normalization; P is NaN only as inf - inf of p-th powers
        raise DomainError(f"need a finite, positive integral of |u|^p, got {min(math.inf, pieces[2])}")
    if u.half:
        u._pieces = pieces
    return pieces


def _numerator(E: float, M: float, Lambda: float, theta: float) -> float:
    """Numerator of the quotient: E + Lambda M, or (E + Lambda M)^theta
    M^(1-theta) for theta < 1."""
    return (E + Lambda * M) if theta == 1.0 else (E + Lambda * M) ** theta * M ** (1 - theta)


def _check_scored(Lambda: float, p: float, theta: float) -> None:
    """Finite Lambda > 0, finite p > 2 and 0 < theta <= 1: the point any field is scored at."""
    check_Lambda(Lambda)
    check_p(p)
    if not 0 < theta <= 1:  # written so that NaN fails the comparison
        raise DomainError(f"need 0 < theta <= 1, got {theta}")


def rayleigh(u: CylField, Lambda: float, p: float, theta: float = 1.0) -> float:
    """Scale-invariant quotient whose infimum is the inverse best constant.

    theta = 1: (E + Lambda M) / ||u||_p^2 with E the full gradient energy
    and M the squared L2 norm; theta < 1: (E + Lambda M)^theta M^(1-theta)
    / ||u||_p^2.  Probability measure on the angular factor.  Scores any
    0 < theta <= 1: theta_min bounds only minimize_quotient.
    """
    _check_scored(Lambda, p, theta)
    E, M, P, *_ = _pieces(u, p)
    return _numerator(E, M, Lambda, theta) / P ** (2.0 / p)


def _value_and_grad(u: CylField, Lambda: float, p: float, theta: float, KL: np.ndarray):
    """Quotient value and its gradient w.r.t. the sine coefficients of u
    (see _sines), in the h-weighted (functional) scaling.

    The quadratic terms are diagonal in the sine x zonal basis, with diagonal
    KL = _stiffness(u) + Lambda; only the p-th power term needs a transform
    (one DST for an _Even, two otherwise).  A scored _Even keeps its pieces:
    no nodal evaluation.
    """
    E, M, P, nl, c = _pieces(u, p)
    # functional gradients (plain coefficient gradient divided by h), built
    # in place in one array: E and M contribute 2 (stiffness + Lambda) c, the
    # p-th power term p DST(nl)
    G = _numerator(E, M, Lambda, theta)
    if theta == 1.0:
        g = KL * 2.0
    else:
        common = (E + Lambda * M) ** (theta - 1) * M ** (-theta)
        g = KL * (theta * M)
        g += (1 - theta) * (E + Lambda * M)
        g *= 2.0 * common
    g *= c
    gP = dst(nl, 3 if u.half else 1)
    gP *= 2.0 * G / P
    g -= gP
    g /= P ** (2.0 / p)
    return G / P ** (2.0 / p), g


class _Report:
    def to_dict(self) -> dict:
        """The report's fields in declaration order, without those kept out of repr (the minimizer's arrays)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


@dataclass
class MinimizeOpts:
    """Settings of the normalized flow: multistart adds the restarts of
    :func:`minimize_quotient`, and max_iter caps the iterations of a solve,
    both levels together.  seed is accepted and unused: no start is random.
    The grid, line-search and stop constants are fixed here."""

    multistart: bool = False
    seed: int = 7
    max_iter: int = 4000


@dataclass
class MinimizeReport(_Report):
    """Outcome of a quotient minimization: every field describes the winning start, reason its
    stop (see minimize_quotient) and iterations both of its levels.  minimizer is a full CylField,
    the flow's last field mirrored; that last field itself, with the pieces (E, M, P) it was scored
    by, is kept privately (_half) for eigenvalue_bound and sandwich_check."""

    constant: float
    quotient: float
    iterations: int
    grad_norm: float
    angular_fraction: float
    converged: bool
    reason: str
    Lambda: float
    p: float
    theta: float
    N: int
    minimizer: CylField = field(repr=False, default=None)
    _half: _Even = field(repr=False, default=None)

    @property
    def broken(self) -> bool:
        """Whether the minimizer is symmetry-broken: more than 1e-3 of its
        energy lies in the angular modes."""
        return self.angular_fraction > 1e-3


def _angular_fraction(u: _Even, Lambda: float) -> float:
    """Share of E + Lambda M in the degrees >= 1, the per-degree energies from the c**2 of u (Parseval)."""
    mode_energy = ((_stiffness(u) + Lambda) * u.c2).sum(axis=0)
    return float(mode_energy[1:].sum()) / float(mode_energy.sum())


# L-BFGS memory: the number of (s, y) pairs the flow direction is built from
_LBFGS_PAIRS = 3
# the Armijo line search and stops of _descend_single (see minimize_quotient)
_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 40
_Q_REL_TOL = 1e-10
_GRAD_TOL = 1e-8


def _lbfgs_direction(g, sym, pairs):
    """Two-loop recursion (Liu-Nocedal): the inverse-Hessian estimate built
    from ``pairs``, (s, y, rho = 1/s.y) tuples oldest first, applied to g.
    The initial matrix is gamma sym with gamma = s.y / (y.sym.y) of the
    newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(np.vdot(s, q)))
        q -= alphas[-1] * y
    _, y, rho = pairs[-1]
    q *= sym
    q *= 1.0 / (rho * float(np.einsum("ij,ij,ij->", y, sym, y)))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(np.vdot(y, q))) * s
    return q


class _Even(CylField):
    """The flow's field, even in s, on a grid of odd n: its rows 1..(n+1)/2 (s <= 0, s = 0 last) and
    its odd sine modes c.  Built from either (one transform makes the other) or both, as a line-search
    trial is, from float arrays the flow has validated: not validated again.  It takes them over, not
    copies, scales them to unit mass (Parseval), and keeps c2 = c**2 and its _pieces: one flow, one p.
    Only minimize_quotient makes or keeps one; the public functions take full CylFields."""

    half = True

    def __init__(self, grid: LineGrid, N: int, values=None, c=None):
        self.grid, self.N = grid, N
        self.data = dst(c, 2) if values is None else values
        c = dst(self.data, 3) if c is None else c
        self.c, self.c2 = c, c * c
        mass = grid.h * float(self.c2.sum())
        if mass == 0.0:
            raise DomainError("zero field")
        self.data /= math.sqrt(mass)
        self.c /= math.sqrt(mass)
        self.c2 /= mass
        self._pieces = None


def _even(u0: CylField) -> _Even:
    """The flow field of a start u0: its even part in s."""
    return _Even(u0.grid, u0.N, 0.5 * (u0.data + u0.data[::-1])[: (u0.grid.n + 1) // 2])


def _descend_single(u: _Even, Lambda: float, p: float, theta: float, max_iter: int):
    """One L-BFGS descent on the grid of u: (last field, Q, preconditioned gradient norm, iterations, reason).
    The last field keeps the pieces it was scored by."""
    h = u.grid.h
    # gradient-energy preconditioner: the quotient Hessian is dominated by
    # the quadratic form, diagonal in the sine x zonal basis, so descending
    # along its inverse image removes the grid-induced stiffness.  It seeds
    # an L-BFGS direction built from the last _LBFGS_PAIRS steps, which
    # resolves the nearly flat degree-1 mode near the instability threshold.
    # The flow's fields hold their sine coefficients; direction, slope
    # (Parseval) and trials are formed in that basis, so an iteration costs
    # one transform to map the direction to nodes and one in the next
    # gradient, and none per trial
    KL = _stiffness(u) + Lambda
    sym = 1.0 / KL

    def gradient(u):
        Q, g = _value_and_grad(u, Lambda, p, theta, KL)
        return Q, g, math.sqrt(h * float(np.einsum("ij,ij,ij->", g, sym, g)))

    Q, g, gnorm = gradient(u)
    # the last pairs (s, y, 1/s.y) with s = c_new - c, y = g_new - g
    pairs = deque(maxlen=_LBFGS_PAIRS)
    iters = 0
    reason = None  # the stop that ends the descent; None while max_iter lasts
    while iters < max_iter:
        iters += 1
        if gnorm < _GRAD_TOL:
            reason = "grad_tol"
            break
        if pairs:
            dc = _lbfgs_direction(g, sym, pairs)
            slope = h * float(np.vdot(g, dc))
            if not slope > 0:
                pairs.clear()
        if not pairs:
            dc = sym * g
            slope = gnorm * gnorm  # positive: dc is a descent direction
        t = 1.0  # the natural step of either direction
        d = dst(dc, 2)
        for _ in range(_MAX_BACKTRACKS):
            target = Q - _ARMIJO * t * slope
            if target == Q:
                # the required decrease is below one ulp of Q: roundoff
                # alone would decide acceptance
                reason = "sub_ulp"
                break
            try:
                # normalized before it is scored (the quotient is scale invariant),
                # so the pieces rayleigh keeps are those the next gradient needs
                trial = _Even(u.grid, u.N, u.data - t * d, u.c - t * dc)
                Qnew = rayleigh(trial, Lambda, p, theta)
            except (DomainError, FloatingPointError):
                Qnew = math.inf
            if Qnew <= target:
                break
            t *= _SHRINK
        else:
            reason = "line_search_stall"
        if reason:  # stalled at machine precision: counted as converged
            break
        rel = abs(Q - Qnew) / abs(Q)
        s = trial.c - u.c
        u = trial
        Q, g_new, gnorm = gradient(u)
        y = g_new - g
        g = g_new
        sy = float(np.vdot(s, y))
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        else:
            pairs.clear()
        if rel < _Q_REL_TOL:
            reason = "q_rel_tol"
            break
    return u, Q, gnorm, iters, reason or "max_iter"


def _coarse_n(S: float, n: int) -> int:
    """n_c: n_c + 1 is the even integer nearest min(10 S, n + 1), so n_c is odd, n if n < 10 S; dense dst to S = 51."""
    return max(17, 2 * round(min(10.0 * S, n + 1) / 2) - 1)  # a LineGrid has at least 16 nodes


def _transfer(c: np.ndarray, rows: int) -> np.ndarray:
    """Odd sine modes c truncated or zero-padded to rows modes, rescaled: one interpolant, 2 rows - 1 nodes."""
    out = np.zeros((rows, c.shape[1]))
    out[: len(c)] = c[:rows] * math.sqrt(rows / len(c))
    return out


def _starts(start: CylField, opts: MinimizeOpts):
    """The flow's starting fields, built one at a time: the start itself and,
    with opts.multistart, its radial part and a degree-1 bump, each unless
    it is the start.  No start is random."""
    yield start
    if not opts.multistart:
        return
    if np.any(start.data[:, 1:]):
        radial = start.copy()
        radial.data[:, 1:] = 0.0
        yield radial
    if start.L_max >= 1:
        bump = start.copy()
        bump.data[:, 1] += 0.1 * np.abs(bump.data[:, 0])
        yield bump


def minimize_quotient(
    start: CylField, Lambda: float, p: float, theta: float = 1.0, opts: MinimizeOpts | None = None
) -> MinimizeReport:
    """Normalized limited-memory quasi-Newton (L-BFGS) descent on the
    quotient, seeded with the gradient-energy preconditioner, with Armijo
    backtracking.

    The grid needs odd n (even n raises DomainError), and a start of zero or
    non-finite mass is refused: each start enters the flow as its even part
    in s (see the module docstring).  Every line search starts at step 1,
    the natural length of an L-BFGS step and of the preconditioned-gradient
    step taken first and after the pair history is cleared (a non-positive
    curvature pair or a non-descent direction).  A descent stops, and its
    report's reason says why, when the preconditioned gradient norm falls
    below 1e-8 (grad_tol), the relative decrease of the quotient below
    1e-10 (q_rel_tol), the Armijo line search (fraction 1e-4, halving, at
    most 40 trials) fails (line_search_stall) or asks for a decrease below
    one ulp of the quotient (sub_ulp), or max_iter runs out (max_iter, the
    one stop not counted as converged).  Every start is screened on the
    coarse grid LineGrid(S, n_c), n_c + 1 the even integer nearest
    min(10 S, n + 1), at least 18, and the lowest (the first of equals) is polished
    on the requested grid from the zero-padded coarse minimizer, or from its
    own even part if that scores lower (translation being free, it can score
    above an off-centre start); with n_c = n the polish is a converged restart.
    max_iter is the budget of both levels, and iterations counts both.  With
    opts.multistart the start's radial part (unless it is the start) and a
    degree-1 bump if L_max >= 1 are screened too: a guard against the
    non-convexity past the instability threshold.  Nothing is drawn at random.
    (N, p, Lambda, theta) must make a CylinderPoint: supercritical p and
    theta outside [theta_min(p, N), 1], theta_min = N(p - 2)/(2p), are
    refused.  The report's minimizer is a full CylField, the flow's last field mirrored.
    """
    CylinderPoint(start.N, p, Lambda, theta)
    _refuse(start)  # a zero or non-finite start is refused before any transform
    if start.grid.n % 2 == 0:  # the flow's fields are even in s
        raise DomainError(f"the flow needs odd n, a node at s = 0; got n={start.grid.n}")
    opts = opts or MinimizeOpts()
    coarse = LineGrid(start.grid.S, _coarse_n(start.grid.S, start.grid.n))

    def screened(s: CylField):
        """(the even part of the start s, its run on the coarse grid)."""
        u = _even(s)
        first = _Even(coarse, u.N, c=_transfer(u.c, (coarse.n + 1) // 2))
        return u, _descend_single(first, Lambda, p, theta, opts.max_iter)

    # the first of the lowest coarse Q
    u, (v, _, _, iters, _) = min(map(screened, _starts(start, opts)), key=lambda run: run[1][1])
    fine = _Even(u.grid, u.N, c=_transfer(v.c, len(u.data)))
    # the fine level gets what the coarse one left of the max_iter budget
    v, Q, gnorm, spent, reason = _descend_single(min(fine, u, key=lambda w: rayleigh(w, Lambda, p, theta)),
                                                 Lambda, p, theta, opts.max_iter - iters)
    iters += spent
    return MinimizeReport(
        constant=1.0 / Q,
        quotient=Q,
        iterations=iters,
        grad_norm=gnorm,
        angular_fraction=_angular_fraction(v, Lambda),
        converged=reason != "max_iter",
        reason=reason,
        Lambda=Lambda,
        p=p,
        theta=theta,
        N=v.N,
        minimizer=CylField(v.grid, v.N, np.concatenate([v.data, v.data[-2::-1]])),
        _half=v,
    )


def el_residual(u: CylField, Lambda: float, p: float, theta: float = 1.0) -> float:
    """Relative Euler-Lagrange residual of the quotient, ||r||_h / ||u||_h in
    coefficient space (h-weighted l2 norms), the same at every scale of u.

    r = -theta (d^2/ds^2 + angular Laplacian) u + [(1 - theta) E/M + Lambda] u
    - mu |u|^(p-2) u with mu = (E + Lambda M)/P, the multiplier of the
    scale-invariant quotient, which is 1 at the Euler-Lagrange scale; theta = 1
    removes the E/M term.  (Lambda, p, theta) are checked as by rayleigh.
    """
    _check_scored(Lambda, p, theta)
    E, M, P, nl, c = _pieces(u, p)
    minus_lap = dst(_stiffness(u) * c, 1)
    r = theta * minus_lap + ((1 - theta) * E / M + Lambda) * u.data - (E + Lambda * M) / P * nl
    return math.sqrt(u.grid.h * float((r**2).sum()) / M)


@dataclass
class ChainReport(_Report):
    """Slacks of the five chained inequalities and the chain constant D."""

    slack_lt: float
    slack_schwarz: float
    slack_hoelder2p: float
    slack_poincare: float
    slack_hoelder: float
    D: float
    Lambda: float
    gamma: float
    q: float


def proof_chain(u: CylField, Lambda: float, p: float) -> ChainReport:
    """Evaluate the slack of every inequality in the symmetry proof chain.

    Steps, in order: per-angle one-bound-state spectral bound, Schwarz for
    the angular energy of the L2 trace v, Hoelder coupling the p-integral
    to v, the sharp sphere inequality for v, and the probability-measure
    power-mean step.  All five slacks are non-negative up to discretization
    and vanish simultaneously exactly at the s-only extremal profile, where
    D = Lambda.  A Lambda that is not finite and positive is refused, and so is a
    field whose integral of |u|^p leaves the float range.
    """
    check_Lambda(Lambda)
    gamma, q_exp = chain_exponents(p, 1.0)
    grid = u.grid
    quad_, B = _angular(u.N, u.L_max)
    c, c2 = _sines(u)  # refuses a zero or non-finite field before any transform
    U = np.abs(u.nodal())

    with np.errstate(over="ignore"):  # a p-th power past the float range is refused below, not warned of
        up_line = grid.h * (U**p).sum(axis=0)  # per-angle integral of u^p
        total_up = float(np.sum(quad_.weights * up_line))
    if not total_up < math.inf:
        raise DomainError(f"need a finite integral of |u|^p, got {total_up}")
    v = np.sqrt(grid.h * (U**2).sum(axis=0))  # L2 trace on the sphere

    # per-angle derivative energies from the sine-spectral form
    per_angle_coeffs = c @ B.T
    e_line = grid.h * (_omega2(grid)[:, None] * per_angle_coeffs**2).sum(axis=0)

    c_pow = lt_constant(gamma) ** (1.0 / gamma)
    slack_lt = float(np.min(e_line - up_line + c_pow * up_line ** (1.0 / gamma) * v**2))

    # angular energy of u versus the projected trace field
    e_angular = grid.h * float(np.vdot(sphere.zonal_eigenvalues(u.N, u.L_max), c2.sum(axis=0)))
    l_proj = u.L_max + 4
    vfield = sphere.field_from_nodal(v, quad_, l_proj, u.N)
    slack_schwarz = e_angular - sphere.grad_energy(vfield)

    # (int v^(q+1))^(2/(q+1)), 2/(q+1) = (gamma - 1)/gamma, the only power of that integral used.  v is
    # scaled by its maximum first: q = (3p - 2)/(6 - p) reaches hundreds near p = 6, where v^(q+1) overflows
    vmax = float(v.max())
    v_q1_norm2 = vmax**2 * float(np.sum(quad_.weights * (v / vmax) ** (q_exp + 1))) ** (2.0 / (q_exp + 1))
    int_v_2 = float(np.sum(quad_.weights * v**2))
    lhs = float(np.sum(quad_.weights * up_line ** (1.0 / gamma) * v**2))
    slack_hoelder2p = total_up ** (1.0 / gamma) * v_q1_norm2 - lhs

    slack_poincare = (q_exp - 1) / (u.N - 1) * sphere.grad_energy(vfield) - v_q1_norm2 + int_v_2
    slack_hoelder = v_q1_norm2 - int_v_2

    D = c_pow * total_up ** (1.0 / gamma)
    return ChainReport(
        slack_lt=slack_lt,
        slack_schwarz=slack_schwarz,
        slack_hoelder2p=slack_hoelder2p,
        slack_poincare=float(slack_poincare),
        slack_hoelder=float(slack_hoelder),
        D=D,
        Lambda=Lambda,
        gamma=gamma,
        q=q_exp,
    )


# ---------------------------------------------------------------------------
# second variation, instability threshold

_SV_GRID = LineGrid(25.0, 4000)


def second_variation_mode(ell: int, Lambda: float, p: float, N: int) -> float:
    """Lowest eigenvalue of the linearization around the radial extremal,
    restricted to zonal degree ell.

    The operator is -d^2/ds^2 + Lambda + ell(ell + N - 2) - (p-1) u_star^(p-2), whose well is
    V0/cosh(B s)^2 with V0 = (p-1) p Lambda/2 and B = (p-2) sqrt(Lambda)/2 (the eigenvalue is
    Lambda + ell(ell + N - 2) - p^2 Lambda / 4 in closed form).  It is solved on LineGrid(25, 4000)
    with sech_squared_potential(V0, B), which needs no amplitude of u_star.
    """
    try:  # NaN and inf are not integers
        integral = float(ell).is_integer() and ell >= 1
    except OverflowError:  # an int past the float range, which may have too many digits to print
        integral, ell = False, f"~{'-' * (ell < 0)}10^{math.log10(abs(ell)):.6g}"
    if not integral:
        raise DomainError(f"need an integer zonal degree ell >= 1, got ell={ell}")
    check_Lambda(Lambda)
    check_p(p)
    check_N(N)
    well = sech_squared_potential(_SV_GRID, (p - 1) * p * Lambda / 2, (p - 2) * math.sqrt(Lambda) / 2)
    return Lambda + sphere.zonal_eigenvalue(N, float(ell)) - lowest_eigenpair(well).lambda1


def fs_threshold(p: float, N: int) -> float:
    """Instability threshold in Lambda: root (to 1e-6) of the degree-1
    second-variation eigenvalue on its grid (see second_variation_mode).
    Matches 4(N-1)/(p^2-4).  brentq runs on the bracket [2^(k-1), 2^k], k the
    first of 0..59 whose mode is negative, or on [1e-3, 1] if k = 0."""
    check_p(p, 6)
    check_subcritical(p, N)
    # memoized, so brentq re-reads the bracket ends of k >= 1 without solving again
    mode = lru_cache(maxsize=None)(lambda lam: second_variation_mode(1, lam, p, N))
    # at Lambda = 1e-3 the mode is > N - 1 - (p - 1)p Lambda/2 > N - 1.015, as no binding exceeds max V
    for k in range(60):
        if mode(2.0**k) < 0:
            return float(brentq(mode, 2.0 ** (k - 1) if k else 1e-3, 2.0**k, xtol=1e-6))
    raise NumericsError(f"no sign change up to Lambda={2.0**59}")


# ---------------------------------------------------------------------------
# log-radial change of variables

def emden_fowler_pushforward(s_nodes: np.ndarray, w_values: np.ndarray, pt: ParamPoint):
    """Push a radial profile w(r), sampled on the log grid r = e^s, to the
    line: u(s) = e^((a_c - a) s) w(e^s).

    Returns (u_values, report); the report carries the relative mismatch of
    the weighted p-norm and gradient-norm identities.  Both sides of each
    identity integrate the natural cubic-spline interpolant of the samples by
    :func:`quad`, independently: the s side on the knot intervals, the r side
    with its nodes placed in r on their images [e^(s_i), e^(s_(i+1))].  So a
    mismatch measures the quadrature and the exponent bookkeeping, not the spline.
    """
    s = np.asarray(s_nodes, dtype=float)
    w = np.asarray(w_values, dtype=float)
    if s.ndim != 1 or s.size < 16 or s.shape != w.shape:
        raise NumericsError("profile is undersampled or mis-shaped")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(w))):
        raise NumericsError("profile samples must be finite")
    if np.any(np.diff(s) <= 0):
        raise NumericsError("s grid must be strictly increasing")
    cp = to_cylinder(pt)
    sigma = a_critical(pt.N) - pt.a
    u = np.exp(sigma * s) * w

    W, dW = _spline(s, w)

    # p-norm identity: int r^(N-1-bp) w^p dr = int u^p ds
    lhs_p = quad(lambda r: r ** (pt.N - 1 - pt.b * cp.p) * np.abs(W(np.log(r))) ** cp.p, np.exp(s))
    rhs_p = quad(lambda t: np.abs(np.exp(sigma * t) * W(t)) ** cp.p, s)

    # gradient identity: int r^(N-1-2a) w'(r)^2 dr = int (u'^2 + Lambda u^2) ds
    lhs_g = quad(lambda r: r ** (pt.N - 1 - 2 * pt.a) * (dW(np.log(r)) / r) ** 2, np.exp(s))

    def line_energy(t):
        e, Wt = np.exp(sigma * t), W(t)
        return (e * (sigma * Wt + dW(t))) ** 2 + cp.Lambda * (e * Wt) ** 2

    rhs_g = quad(line_energy, s)
    if rhs_p == 0 or rhs_g == 0:
        raise NumericsError("profile vanishes: its p-norm or gradient norm underflows to 0")
    mismatch_p = abs(lhs_p - rhs_p) / abs(rhs_p)
    mismatch_g = abs(lhs_g - rhs_g) / abs(rhs_g)

    report = {
        "p": cp.p,
        "Lambda": cp.Lambda,
        "p_norm_mismatch": mismatch_p,
        "grad_norm_mismatch": mismatch_g,
    }
    return u, report


# ---------------------------------------------------------------------------
# spectral-bound equivalence

def _linear_law_slope(p: float) -> float:
    """Slope of the certified-symmetric bound Lambda = slope * mu:
    radial_interp_coefficient(1, p)^(2p/(p+2))."""
    return radial_interp_coefficient(1.0, p) ** (2 * p / (p + 2))


def symmetric_mu_threshold(p: float, N: int) -> float:
    """Largest potential size mu for which the optimizing potential of the
    cylinder spectral bound is certified s-only, at the bound's power
    gamma = (p+2)/(2(p-2)) (2 < p < 6).  The value is lambda_sym(p, N)
    divided by the linear-law slope radial_interp_coefficient(1, p)^(2p/(p+2));
    a p supercritical for N is refused.
    """
    check_subcritical(p, N)
    return lambda_sym(p, N) / _linear_law_slope(p)


# n + 1 = 1200 = 2^4 3 5^2 is 5-smooth, so each DST-I on it is a fast transform
_BOUND_GRID = LineGrid(20.0, 1199)


def eigenvalue_bound(mu: float, p: float, N: int, grid: LineGrid | None = None, L_max: int = 6) -> float:
    """Bound Lambda(mu) on the binding energy of cylinder potentials of
    size mu, through the best interpolation constant.

    In the certified-symmetric regime the bound is the linear law
    slope * mu with slope = radial_interp_coefficient(1, p)^(2p/(p+2)); past
    it, the relation mu^((p+2)/(2p)) = Q(Lambda) = 1/K(Lambda) is inverted by
    Newton steps from the linear law: the 2-d minimizer supplies Q (with the
    default MinimizeOpts, on the default grid LineGrid(20, 1199)) and its
    slope M/P^(2/p) at the minimizer (Danskin).
    Q, an infimum of functions affine in Lambda, is concave and increasing, so
    the iterates rise to the root with no bracket.  The linear law is returned
    if Q there reaches the target; else the iteration stops at a step below
    1e-4 Lambda, and 40 solves without one raise NumericsError.

    The inversion continues in Lambda: until a solve returns a broken
    minimizer (:attr:`MinimizeReport.broken`), each Lambda gets a cold
    multistart from the radial extremal (every start on the coarse grid,
    the best one also on the fine grid), the guard against missing the
    broken branch at the first point past the instability threshold; after
    that, each Lambda gets one descent started from the latest broken
    minimizer, the nearest one since the iterates rise.  A radial result never
    seeds a descent, and the minimizer is dropped when the call returns.
    L_max >= 1 is required: with no degree-1 mode no minimizer can break
    symmetry, and the linear law would come back unchecked.
    """
    if not 0 < mu < math.inf:
        raise DomainError(f"need finite mu > 0, got {mu}")
    check_subcritical(p, N)
    check_L_max(L_max, 1)
    lam_lin = _linear_law_slope(p) * mu
    if lam_lin <= lambda_sym(p, N) + 1e-12:
        return lam_lin

    g = grid or _BOUND_GRID
    target = mu ** ((p + 2) / (2 * p))
    broken = None  # the minimizer of the latest broken solve
    lam = lam_lin
    for _ in range(40):
        if broken is not None:
            rep = minimize_quotient(broken, lam, p, 1.0)
        else:
            rep = minimize_quotient(extremal_field(g, N, L_max, lam, p), lam, p, 1.0, MinimizeOpts(multistart=True))
        if rep.broken:
            broken = rep.minimizer
        gap = target - rep.quotient  # quotient = 1/K, concave and increasing in Lambda
        if lam == lam_lin and gap <= 0:
            return lam_lin
        _, M, P, *_ = _pieces(rep._half, p)  # the pieces the flow scored its last field by
        step = gap * P ** (2.0 / p) / M  # the slope of the quotient is M/P^(2/p) at the minimizer
        lam += step
        if abs(step) <= 1e-4 * lam:
            return lam
    raise NumericsError(f"no convergence of the inversion in 40 solves, at Lambda={lam}")


# ---------------------------------------------------------------------------
# theta < 1 sandwich

@dataclass
class SandwichReport(_Report):
    """Verified two-sided bounds on the interpolation constant, and the flow's grid (S, n) and L_max."""

    theta: float
    Lambda: float
    p: float
    N: int
    k_lower: float
    k_numeric: float
    k_upper: float
    gap: float
    gamma_theta: float
    q: float
    d_value: float
    holder_theta_slack: float
    within: bool
    converged: bool
    reason: str
    S: float
    n: int
    L_max: int


def sandwich_lambda_bound(theta: float, p: float, N: int) -> float:
    """Largest Lambda admitted by the sandwich condition at (theta, p, N)."""
    return (N - 1) / gap_factor(p, theta) * ((2 * theta - 3) * p + 6) / (4 * (p - 2))


def sandwich_check(
    theta: float,
    Lambda: float,
    p: float,
    N: int,
    grid: LineGrid | None = None,
    L_max: int = DEFAULT_L_MAX,
    opts: MinimizeOpts | None = None,
) -> SandwichReport:
    """Verify the two-sided bound K_lower <= K_numeric <= K_upper.

    K_lower is the radial constant of the theta family, K_upper is
    K_lower * gap_factor^(((2 theta - 1) p + 2)/(2p)), and K_numeric comes
    from the multistart 2-d minimizer; the report is within when
    K_numeric lies in [K_lower, K_upper] up to 5e-3 relative.  Lambda must satisfy
    a_c^2 < Lambda <= sandwich_lambda_bound; an empty window is refused before
    any solve (at theta = theta_min, where the bound is 0 for N = 3, and at
    N = 2 for every theta up to 3(p - 2)/(2p)).  Also reports the chain quantities:
    gamma_theta, q, the chain constant D on the renormalized minimizer
    (Lambda <= D <= gap * Lambda on solutions) and the slack of the
    theta-Hoelder step.  L_max >= 1 is required, as in eigenvalue_bound.  The flow runs on grid, or on
    _grid_for(p, Lambda, theta): DEFAULT_GRID unless the extremal is too narrow for it (up to n = 1999).
    """
    check_theta_window(theta, theta_min(p, N))
    check_L_max(L_max, 1)
    ac2, bound = a_critical(N) ** 2, sandwich_lambda_bound(theta, p, N)
    if not bound > ac2:
        raise DomainError(f"the admissible window ({ac2}, {bound}] of Lambda is empty at theta={theta}")
    if not Lambda > ac2:  # written so that NaN fails the comparison
        raise DomainError(f"need Lambda > a_c^2 = {ac2}, got {Lambda}")
    if Lambda > bound * (1 + 1e-12):
        raise DomainError(f"Lambda={Lambda} violates the admissible window ({ac2}, {bound}]")

    # a non-empty window has (2 theta - 3) p + 6 > 0, so gamma_theta > 1 and q is finite (or, at roundoff, a refusal)
    gamma_t, q_exp = chain_exponents(p, theta)
    k_lower = radial_interp_constant(theta, Lambda, p)
    gap = gap_factor(p, theta)
    k_upper = k_lower * gap ** (((2 * theta - 1) * p + 2) / (2 * p))

    g = grid or _grid_for(p, Lambda, theta)
    opts = opts or MinimizeOpts(multistart=True)
    start = extremal_field(g, N, L_max, Lambda, p, theta)
    rep = minimize_quotient(start, Lambda, p, theta, opts)
    k_numeric = rep.constant

    # chain quantities on the Euler-Lagrange-normalized minimizer: the flow's half field, its rows weighted for
    # their mirrors, and the pieces the flow scored it by
    v = rep._half
    E, M, P, *_ = _pieces(v, p)
    scale = ((E + Lambda * M) / P) ** (1.0 / (p - 2))
    M_n = scale**2 * M
    P_n = scale**p * P
    quad_, _ = _angular(v.N, v.L_max)
    row_weights = _weights(len(v.data), True)
    theta_power = v.grid.h * float(np.vdot(row_weights, (scale * np.abs(v.nodal())) ** (theta * p) @ quad_.weights))
    holder_rhs = M_n ** ((1 - theta) * p / (p - 2)) * P_n ** ((theta * p - 2) / (p - 2))
    d_value = lt_constant(gamma_t) ** (1.0 / gamma_t) * holder_rhs ** (1.0 / gamma_t)

    within = k_lower * (1 - 5e-3) <= k_numeric <= k_upper * (1 + 5e-3)
    return SandwichReport(
        theta=theta,
        Lambda=Lambda,
        p=p,
        N=N,
        k_lower=k_lower,
        k_numeric=k_numeric,
        k_upper=k_upper,
        gap=gap,
        gamma_theta=gamma_t,
        q=q_exp,
        d_value=d_value,
        holder_theta_slack=holder_rhs - theta_power,
        within=within,
        converged=rep.converged,
        reason=rep.reason,
        S=g.S, n=g.n, L_max=L_max,
    )
