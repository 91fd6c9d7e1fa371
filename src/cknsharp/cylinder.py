"""Discretized variational problem on the cylinder R x S^(N-1).

Fields are tensor products of a Dirichlet line grid (sine-spectral calculus
in s, so derivative energies are exact for the interpolant and accurate to
spectral order for decaying profiles) and the zonal sphere basis of
:mod:`cknsharp.sphere` under the uniform probability measure.  One ledger
sums the per-degree mass and s-energy from the orthonormal DST-I sine
coefficients; the gradient energy and its preconditioner are diagonal in
that sine x zonal basis.  On top of that sit the Rayleigh quotients of the
plain and interpolation inequalities, a limited-memory quasi-Newton
(L-BFGS, three pairs) flow seeded with the diagonal preconditioner, with
Armijo backtracking, that runs in coefficient space (two DST-I per
iteration, none per line-search trial; one nodal power per trial, none per
gradient, in reused block buffers), the Euler-Lagrange residual,
the five-step proof-chain slack evaluator, the second-variation instability
detector with its threshold bisection, the log-radial change of variables
from Euclidean space, the spectral-bound equivalence, and the theta < 1
sandwich verification.

All angular integrals use the probability measure, so the radial benchmark
is the interpolation-family constant radial_interp_constant; the
surface-measure constant follows from the explicit sphere_area bridge.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass, field, fields

import numpy as np

from . import sphere
from ._lazy import lazy
from .closed_forms import (
    extremal_potential,
    extremal_profile,
    gap_factor,
    lt_constant,
    profile_constants,
    radial_interp_coefficient,
    radial_interp_constant,
)
from .errors import (
    DomainError, NumericsError, check_Lambda, check_numeric_N, check_p, check_subcritical, check_theta_window
)
from .params import ParamPoint, a_critical, chain_exponents, lambda_sym, theta_min, to_cylinder
from .schrodinger import LineGrid, Potential1D, lowest_eigenpair

dst = lazy("scipy.fft", "dst")
CubicSpline = lazy("scipy.interpolate", "CubicSpline")
brentq = lazy("scipy.optimize", "brentq")

__all__ = [
    "CylField",
    "MinimizeOpts",
    "MinimizeReport",
    "ChainReport",
    "SandwichReport",
    "DEFAULT_GRID",
    "DEFAULT_L_MAX",
    "extremal_field",
    "radial_field",
    "rayleigh",
    "minimize_quotient",
    "el_residual",
    "defect_functional",
    "proof_chain",
    "second_variation_mode",
    "fs_threshold",
    "emden_fowler_pushforward",
    "eigenvalue_bound",
    "symmetric_mu_threshold",
    "sandwich_check",
]

# n + 1 = 2000 = 2^4 5^3: a 5-smooth transform length keeps every DST-I fast
DEFAULT_GRID = LineGrid(20.0, 1999)
DEFAULT_L_MAX = 8

_angular_cache: dict = {}


def _angular(N: int, L_max: int):
    """Cached (quadrature, basis matrix) pair for the zonal calculus."""
    key = (N, L_max)
    if key not in _angular_cache:
        quad_ = sphere.default_quadrature(N, L_max)
        _angular_cache[key] = (quad_, quad_.basis(L_max))
    return _angular_cache[key]


@dataclass
class CylField:
    """Field on R x S^(N-1): coefficients indexed (s-node, zonal degree)."""

    grid: LineGrid
    N: int
    data: np.ndarray
    # DST(data), carried only by the flow's own iterates and line-search
    # trials, which also keep their (p, _pieces) from the first evaluation;
    # a field handed to a caller holds neither, so editing data cannot leave
    # them stale
    _sine: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        _, B = _angular(self.N, self.L_max)
        return self.data @ B.T

    @classmethod
    def from_nodal(cls, grid: LineGrid, N: int, L_max: int, values: np.ndarray) -> "CylField":
        quad_, B = _angular(N, L_max)
        return cls(grid, N, values @ (quad_.weights[:, None] * B))

    def copy(self) -> "CylField":
        return CylField(self.grid, self.N, self.data.copy())


def radial_field(grid: LineGrid, N: int, L_max: int, profile) -> CylField:
    """Field depending on s only: degree 0 holds the callable ``profile`` at the grid nodes."""
    data = np.zeros((grid.n, L_max + 1))
    data[:, 0] = profile(grid.nodes())
    return CylField(grid, N, data)


def extremal_field(grid: LineGrid, N: int, L_max: int, Lambda: float, p: float, theta: float = 1.0) -> CylField:
    """The s-only extremal profile embedded as a cylinder field."""
    pc = profile_constants(Lambda, p, theta)
    return radial_field(grid, N, L_max, lambda s: extremal_profile(s, pc, p))


# ---------------------------------------------------------------------------
# sine-spectral calculus in s

@lru_cache(maxsize=16)
def _omega2(grid: LineGrid) -> np.ndarray:
    """Squared sine frequencies, built once per grid; callers must not modify them."""
    return (np.arange(1, grid.n + 1) * math.pi / (2.0 * grid.S)) ** 2


def _dst(arr: np.ndarray) -> np.ndarray:
    return dst(arr, type=1, norm="ortho", axis=0)


def _angular_eigs(N: int, L_max: int) -> np.ndarray:
    ell = np.arange(L_max + 1)
    return ell * (ell + N - 2.0)


def _stiffness(u: CylField) -> np.ndarray:
    """Diagonal of the gradient energy in the sine x zonal basis."""
    return _omega2(u.grid)[:, None] + _angular_eigs(u.N, u.L_max)[None, :]


def _ledger(u: CylField):
    """(mass, senergy, c): per-degree squared L2 norm and Dirichlet energy in
    s of the sine interpolant, and its sine coefficients c = DST(u.data),
    which cost one DST unless u carries them."""
    c = _dst(u.data) if u._sine is None else u._sine
    mass = u.grid.h * (u.data**2).sum(axis=0)
    senergy = u.grid.h * (_omega2(u.grid) @ c**2)
    return mass, senergy, c


def _check_quotient_args(Lambda: float, p: float, theta: float) -> None:
    check_Lambda(Lambda)
    check_p(p)
    if not 0 < theta <= 1:  # written so that NaN fails the comparison
        raise DomainError(f"need 0 < theta <= 1, got {theta}")


# the nodal stage runs over blocks of s-rows of about this many values
# (256 KiB) in two module-level buffers, allocated once and reused, so an
# evaluation makes no temporaries and takes no fresh page faults (the
# buffers make _nodal_stage non-reentrant)
_BLOCK_VALUES = 32768
_blocks = [np.empty(_BLOCK_VALUES), np.empty(_BLOCK_VALUES)]


def _nodal_stage(u: CylField, p: float):
    """(P, nl) from the nodal values U = data @ B^T, over blocks of s-rows:
    nl = aU @ (w B) the zonal coefficients of aU = |U|^(p-2) U
    = |U|^(p-1) sign U, and P = h sum(data * nl) the integral of
    |U|^p = aU U under the probability measure, by the exact identity
    sum_j w_j aU_ij U_ij = sum_l data_il nl_il.  Only nl is a fresh array."""
    quad_, B = _angular(u.N, u.L_max)
    m = B.shape[0]
    rows = max(1, _BLOCK_VALUES // m)
    if _blocks[0].size < m:  # one s-row has more nodes than a block holds
        _blocks[:] = [np.empty(m), np.empty(m)]
    wB = quad_.weights[:, None] * B
    nl = np.empty_like(u.data)
    for i in range(0, u.grid.n, rows):
        U = _blocks[0][: min(rows, u.grid.n - i) * m].reshape(-1, m)
        aU = _blocks[1][: U.size].reshape(U.shape)
        np.matmul(u.data[i : i + rows], B.T, out=U)
        np.abs(U, out=aU)
        aU **= p - 2
        aU *= U
        np.matmul(aU, wB, out=nl[i : i + rows])
    return u.grid.h * float(np.vdot(u.data, nl)), nl


def _pieces(u: CylField, p: float):
    """(E, M, P, nl, c) with E the full gradient energy, M the squared L2
    norm, P the integral of |u|^p, all under the probability measure; nl the
    zonal coefficients of |u|^(p-2) u (see _nodal_stage) and c the sine
    coefficients.  A zero field (M = 0 or P = 0) raises DomainError.

    A flow field (one carrying _sine) keeps its pieces, keyed on p: the line
    search scores normalized trials, so the gradient at the accepted one
    reuses them and takes no second power.
    """
    if u._kept is not None and u._kept[0] == p:
        return u._kept[1]
    mass, senergy, c = _ledger(u)
    E = float(senergy.sum() + (_angular_eigs(u.N, u.L_max) * mass).sum())
    M = float(mass.sum())
    pieces = (E, M, *_nodal_stage(u, p), c)
    if M == 0.0 or pieces[2] == 0.0:
        raise DomainError("zero field")
    if u._sine is not None:
        u._kept = (p, pieces)
    return pieces


def _numerator(E: float, M: float, Lambda: float, theta: float) -> float:
    """Numerator of the quotient: E + Lambda M, or (E + Lambda M)^theta
    M^(1-theta) for theta < 1."""
    return (E + Lambda * M) if theta == 1.0 else (E + Lambda * M) ** theta * M ** (1 - theta)


def rayleigh(u: CylField, Lambda: float, p: float, theta: float = 1.0) -> float:
    """Scale-invariant quotient whose infimum is the inverse best constant.

    theta = 1: (E + Lambda M) / ||u||_p^2 with E the full gradient energy
    and M the squared L2 norm; theta < 1: (E + Lambda M)^theta M^(1-theta)
    / ||u||_p^2.  Probability measure on the angular factor.
    """
    _check_quotient_args(Lambda, p, theta)
    E, M, P, *_ = _pieces(u, p)
    return _numerator(E, M, Lambda, theta) / P ** (2.0 / p)


def _value_and_grad(u: CylField, Lambda: float, p: float, theta: float, KL: np.ndarray | None = None):
    """Quotient value and its gradient w.r.t. the sine coefficients
    DST(u.data), in the h-weighted (functional) scaling.

    The quadratic terms are diagonal in the sine x zonal basis, with diagonal
    KL = _stiffness(u) + Lambda (built unless passed); only the p-th power
    term needs a transform (one DST when u carries its coefficients, two
    otherwise).  A scored flow field keeps its pieces: no nodal evaluation.
    """
    E, M, P, nl, c = _pieces(u, p)
    # functional gradients (plain coefficient gradient divided by h), built
    # in place in one array: E and M contribute 2 (stiffness + Lambda) c, the
    # p-th power term p DST(nl)
    G = _numerator(E, M, Lambda, theta)
    KL = _stiffness(u) + Lambda if KL is None else KL
    if theta == 1.0:
        g = KL * 2.0
    else:
        common = (E + Lambda * M) ** (theta - 1) * M ** (-theta)
        g = KL * (theta * M)
        g += (1 - theta) * (E + Lambda * M)
        g *= 2.0 * common
    g *= c
    gP = _dst(nl)
    gP *= 2.0 * G / P
    g -= gP
    g /= P ** (2.0 / p)
    return G / P ** (2.0 / p), g


class _Report:
    def to_dict(self) -> dict:
        """The report's fields in declaration order, without the minimizer."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "minimizer"}


@dataclass
class MinimizeOpts:
    """Settings of the normalized flow: multistart adds the restarts of
    :func:`minimize_quotient`, seed drives its random start, and max_iter
    caps the iterations of each descent.  The line-search and stop
    constants are fixed in this module."""

    multistart: bool = False
    seed: int = 7
    max_iter: int = 4000


@dataclass
class MinimizeReport(_Report):
    """Outcome of a quotient minimization."""

    constant: float
    quotient: float
    iterations: int
    grad_norm: float
    angular_fraction: float
    converged: bool
    Lambda: float
    p: float
    theta: float
    N: int
    minimizer: CylField = field(repr=False, default=None)

    @property
    def broken(self) -> bool:
        """Whether the minimizer is symmetry-broken: more than 1e-3 of its
        energy lies in the angular modes."""
        return self.angular_fraction > 1e-3


def _angular_fraction(u: CylField, Lambda: float) -> float:
    mass, senergy, _ = _ledger(u)
    mode_energy = senergy + (_angular_eigs(u.N, u.L_max) + Lambda) * mass
    total = float(mode_energy.sum())
    if total == 0.0:
        return 0.0
    return float(mode_energy[1:].sum()) / total


# L-BFGS memory: the number of (s, y) pairs the flow direction is built from
_LBFGS_PAIRS = 3
# the steepest-descent step, Armijo line search and stops of _descend (see minimize_quotient)
_STEP0 = 1.0
_GROW = 1.3
_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 40
_Q_REL_TOL = 1e-10
_GRAD_TOL = 1e-8


def _lbfgs_direction(g, sym, S, Y, rho, order):
    """Two-loop recursion (Liu-Nocedal): the inverse-Hessian estimate built
    from the pairs S[i], Y[i] (i in ``order``, oldest first) applied to g.
    The initial matrix is gamma sym with gamma = s.y / (y.sym.y) of the
    newest pair."""
    q = g.copy()
    alpha = {}
    for i in reversed(order):
        alpha[i] = rho[i] * float(np.vdot(S[i], q))
        q -= alpha[i] * Y[i]
    new = order[-1]
    q *= sym
    q *= 1.0 / (rho[new] * float(np.einsum("ij,ij,ij->", Y[new], sym, Y[new])))
    for i in order:
        q += (alpha[i] - rho[i] * float(np.vdot(Y[i], q))) * S[i]
    return q


def _descend(u0: CylField, Lambda: float, p: float, theta: float, opts: MinimizeOpts) -> MinimizeReport:
    h = u0.grid.h
    # gradient-energy preconditioner: the quotient Hessian is dominated by
    # the quadratic form, diagonal in the sine x zonal basis, so descending
    # along its inverse image removes the grid-induced stiffness.  It seeds
    # an L-BFGS direction built from the last _LBFGS_PAIRS steps, which
    # resolves the nearly flat degree-1 mode near the instability threshold.
    # The flow carries u with its sine coefficients; direction, slope
    # (Parseval) and trials are formed in that basis, so an iteration costs
    # one DST to map the direction to nodes and one in the next gradient,
    # and none per trial
    KL = _stiffness(u0) + Lambda
    sym = 1.0 / KL

    mass0 = h * float((u0.data**2).sum())
    if mass0 == 0.0:
        raise DomainError("zero start field")
    u = u0.copy()
    u.data /= math.sqrt(mass0)
    u._sine = _dst(u.data)

    def gradient(u):
        Q, g = _value_and_grad(u, Lambda, p, theta, KL)
        u._kept = None  # spent: nothing scores the iterate again
        return Q, g, math.sqrt(h * float(np.einsum("ij,ij,ij->", g, sym, g)))

    Q, g, gnorm = gradient(u)
    # pairs s = c_new - c, y = g_new - g in a ring of _LBFGS_PAIRS slots
    S = np.empty((_LBFGS_PAIRS, *g.shape))
    Y = np.empty_like(S)
    rho = np.empty(_LBFGS_PAIRS)
    order: list[int] = []
    t = _STEP0
    iters = 0
    converged = False
    while iters < opts.max_iter:
        iters += 1
        if gnorm < _GRAD_TOL:
            converged = True
            break
        if order:
            dc = _lbfgs_direction(g, sym, S, Y, rho, order)
            slope = h * float(np.vdot(g, dc))
            if not slope > 0:
                order.clear()
        if not order:
            dc = sym * g
            slope = gnorm * gnorm  # positive: dc is a descent direction
            # the steepest-descent step grows from the last accepted one;
            # an L-BFGS step starts from its natural length 1
            t = min(t * _GROW, 1e3)
        else:
            t = 1.0
        d = _dst(dc)
        accepted = False
        # one trial field serves every backtrack, so a rejected trial's
        # arrays are reused instead of outliving the next one's allocation
        trial = CylField(u.grid, u.N, np.empty_like(d))
        trial._sine = np.empty_like(dc)
        for _ in range(_MAX_BACKTRACKS):
            target = Q - _ARMIJO * t * slope
            if target == Q:
                # the required decrease is below one ulp of Q: roundoff
                # alone would decide acceptance
                break
            trial._kept = None
            np.multiply(d, -t, out=trial.data)
            trial.data += u.data
            np.multiply(dc, -t, out=trial._sine)
            trial._sine += u._sine
            try:
                # normalized before it is scored (the quotient is scale invariant),
                # so the pieces rayleigh keeps are those the next gradient needs
                norm = math.sqrt(h * float((trial.data**2).sum()))
                trial.data /= norm
                trial._sine /= norm
                Qnew = rayleigh(trial, Lambda, p, theta)
            except (DomainError, FloatingPointError):
                Qnew = math.inf
            if Qnew <= target:
                accepted = True
                break
            t *= _SHRINK
        if not accepted:
            # line search stalled at machine precision: treat as converged
            converged = True
            break
        rel = abs(Q - Qnew) / abs(Q)
        del d, dc  # released before the gradient allocates its own arrays
        slot = (order[-1] + 1) % _LBFGS_PAIRS if order else 0
        np.subtract(trial._sine, u._sine, out=S[slot])
        u = trial
        Q, g_new, gnorm = gradient(u)
        np.subtract(g_new, g, out=Y[slot])
        g = g_new
        sy = float(np.vdot(S[slot], Y[slot]))
        if sy > 0:
            if slot in order:
                order.remove(slot)
            order.append(slot)
            rho[slot] = 1.0 / sy
        else:
            order.clear()
        if rel < _Q_REL_TOL:
            converged = True
            break
    return MinimizeReport(
        constant=1.0 / Q,
        quotient=Q,
        iterations=iters,
        grad_norm=gnorm,
        angular_fraction=_angular_fraction(u, Lambda),
        converged=converged,
        Lambda=Lambda,
        p=p,
        theta=theta,
        N=u.N,
        minimizer=CylField(u.grid, u.N, u.data),
    )


def _starts(start: CylField, opts: MinimizeOpts):
    """The flow's starting fields, built one at a time: the start itself and,
    with opts.multistart, its radial part (unless that is the start), a
    degree-1 bump and a seeded random perturbation."""
    yield start
    if not opts.multistart:
        return
    if np.any(start.data[:, 1:]):
        radial = start.copy()
        radial.data[:, 1:] = 0.0
        yield radial
    bump = start.copy()
    if bump.L_max >= 1:
        bump.data[:, 1] += 0.1 * np.abs(bump.data[:, 0])
    yield bump
    rng = np.random.default_rng(opts.seed)
    noisy = start.copy()
    noisy.data += 0.05 * float(np.abs(noisy.data).max()) * rng.standard_normal(noisy.data.shape)
    yield noisy


def minimize_quotient(
    start: CylField, Lambda: float, p: float, theta: float = 1.0, opts: MinimizeOpts | None = None
) -> MinimizeReport:
    """Normalized limited-memory quasi-Newton (L-BFGS) descent on the
    quotient, seeded with the gradient-energy preconditioner, with Armijo
    backtracking.

    An L-BFGS step tries length 1 first; the first step, and the first after
    the pair history is cleared (a non-positive curvature pair or a
    non-descent direction), follows the preconditioned gradient with a
    step that starts at 1 and grows 1.3-fold per such step.  A descent
    stops when the preconditioned gradient norm falls below 1e-8, the
    relative decrease of the quotient below 1e-10, or the Armijo line
    search (fraction 1e-4, halving, at most 40 trials) stalls; these
    constants are fixed.  With opts.multistart the flow is restarted
    from seeded perturbations of the start (its radial part, an added
    degree-1 bump, a random perturbation) as a guard against the
    non-convexity past the instability threshold, and the best run is
    returned; a start with no angular content is not run twice.  Exhausting
    max_iter yields a non-converged report, not an exception.
    """
    _check_quotient_args(Lambda, p, theta)
    opts = opts or MinimizeOpts()
    best = None
    for s in _starts(start, opts):
        rep = _descend(s, Lambda, p, theta, opts)
        if best is None or rep.quotient < best.quotient:
            best = rep
    return best


def el_residual(u: CylField, Lambda: float, p: float, theta: float = 1.0) -> float:
    """h-weighted l2 norm of the Euler-Lagrange residual in coefficient space.

    Residual of -theta (d^2/ds^2 + angular Laplacian) u
    + [(1 - theta) t[u] + Lambda] u - u^(p-1), with t[u] the gradient-to-mass
    ratio; theta = 1 removes the t[u] term.
    """
    E, M, _, nl, c = _pieces(u, p)
    t_u = E / M
    minus_lap = _dst(_stiffness(u) * c)
    r = theta * minus_lap + ((1 - theta) * t_u + Lambda) * u.data - nl
    return math.sqrt(u.grid.h * float((r**2).sum()))


def defect_functional(u: CylField, p: float) -> float:
    """Gradient energy minus the p-th power integral: equals -Lambda * M
    on solutions of the Euler-Lagrange equation at parameter Lambda."""
    E, _, P, *_ = _pieces(u, p)
    return E - P


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
    D = Lambda.
    """
    gamma, q_exp = chain_exponents(p, 1.0)
    grid = u.grid
    quad_, B = _angular(u.N, u.L_max)
    U = np.abs(u.nodal())

    up_line = grid.h * (U**p).sum(axis=0)  # per-angle integral of u^p
    v = np.sqrt(grid.h * (U**2).sum(axis=0))  # L2 trace on the sphere

    # per-angle derivative energies from the sine-spectral form
    mass, _, c = _ledger(u)
    if not mass.sum() > 0:
        raise DomainError(f"zero field: every sample on the grid (S={grid.S}, n={grid.n}) vanishes")
    per_angle_coeffs = c @ B.T
    e_line = grid.h * (_omega2(grid)[:, None] * per_angle_coeffs**2).sum(axis=0)

    c_pow = lt_constant(gamma) ** (1.0 / gamma)
    slack_lt = float(np.min(e_line - up_line + c_pow * up_line ** (1.0 / gamma) * v**2))

    # angular energy of u versus the projected trace field
    e_angular = float((_angular_eigs(u.N, u.L_max) * mass).sum())
    l_proj = u.L_max + 4
    vfield = sphere.field_from_nodal(v, quad_, l_proj, u.N)
    slack_schwarz = e_angular - sphere.grad_energy(vfield)

    total_up = float(np.sum(quad_.weights * up_line))
    int_v_q1 = float(np.sum(quad_.weights * v ** (q_exp + 1)))
    int_v_2 = float(np.sum(quad_.weights * v**2))
    lhs = float(np.sum(quad_.weights * up_line ** (1.0 / gamma) * v**2))
    rhs = total_up ** (1.0 / gamma) * int_v_q1 ** ((gamma - 1) / gamma)
    slack_hoelder2p = rhs - lhs

    slack_poincare = (
        (q_exp - 1) / (u.N - 1) * sphere.grad_energy(vfield)
        - int_v_q1 ** (2.0 / (q_exp + 1))
        + int_v_2
    )
    slack_hoelder = int_v_q1 ** (2.0 / (q_exp + 1)) - int_v_2

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
# root inversion: fs_threshold and eigenvalue_bound

def _grown_root(f, lo, hi, grow, tries, sign_lo, fail, **tol) -> float | None:
    """Root of f in (lo, hi): hi grows by the factor ``grow`` (at most
    ``tries`` times) until f(hi) has the sign opposite to ``sign_lo``, then
    brentq runs with f memoized, so no argument is solved twice.  Returns
    None when f(lo) is zero or has the sign opposite to ``sign_lo``; raises
    NumericsError with ``fail`` formatted with the last hi tried when the
    sign never changes."""
    solved: dict[float, float] = {}

    def memo(x: float) -> float:
        if x not in solved:
            solved[x] = f(x)
        return solved[x]

    if sign_lo * memo(lo) <= 0:
        return None
    for _ in range(tries):
        if sign_lo * memo(hi) < 0:
            return float(brentq(memo, lo, hi, **tol))
        hi *= grow
    raise NumericsError(fail.format(max(solved)))


# ---------------------------------------------------------------------------
# second variation, instability threshold

_SV_GRID = LineGrid(25.0, 4000)


def second_variation_mode(ell: int, Lambda: float, p: float, N: int, method: str = "grid") -> float:
    """Lowest eigenvalue of the linearization around the radial extremal,
    restricted to zonal degree ell.

    The operator is -d^2/ds^2 + Lambda + ell(ell + N - 2) - (p-1) u_star^(p-2);
    the sech^2 well makes a closed form available
    (method="closed"): Lambda + ell(ell + N - 2) - p^2 Lambda / 4.
    method="grid" solves the well numerically on LineGrid(25, 4000).
    """
    if ell < 1:
        raise DomainError(f"need ell >= 1, got {ell}")
    check_Lambda(Lambda)
    check_p(p)
    shift = Lambda + ell * (ell + N - 2)
    if method == "closed":
        return shift - p * p * Lambda / 4.0
    if method != "grid":
        raise DomainError(f"unknown method {method!r}")
    pc = profile_constants(Lambda, p, 1.0)
    well = Potential1D(_SV_GRID, (p - 1) * extremal_potential(_SV_GRID.nodes(), pc, p))
    res = lowest_eigenpair(well)
    return shift - res.lambda1


def fs_threshold(p: float, N: int) -> float:
    """Instability threshold in Lambda: root (to 1e-6) of the degree-1
    second-variation eigenvalue.  Matches 4(N-1)/(p^2-4)."""
    check_p(p, 6)
    check_subcritical(p, N)

    lo = 1e-3
    root = _grown_root(lambda lam: second_variation_mode(1, lam, p, N, "grid"), lo, 1.0, 2.0, 60, 1,
                       "no sign change up to Lambda={}", xtol=1e-6)
    if root is None:
        raise NumericsError(f"no positive bracket end at Lambda={lo}")
    return root


# ---------------------------------------------------------------------------
# log-radial change of variables

def quad(f, edges: np.ndarray) -> float:
    """Integral of f over [edges[0], edges[-1]] by the composite 6-point
    Gauss-Legendre rule on the intervals between consecutive edges (exact for
    degree 11 on each); f is called once, on the (len(edges) - 1, 6) nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(6)  # 0.1 ms; at import it would start LAPACK in every process
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * nodes
    return float(half @ (f(x) @ weights))


def emden_fowler_pushforward(s_nodes: np.ndarray, w_values: np.ndarray, pt: ParamPoint):
    """Push a radial profile w(r), sampled on the log grid r = e^s, to the
    line: u(s) = e^((a_c - a) s) w(e^s).

    Returns (u_values, report); the report carries the relative mismatch of
    the weighted p-norm and gradient-norm identities.  Both sides of each
    identity integrate the cubic-spline interpolant of the samples by
    :func:`quad`, independently: the s side on the knot intervals, the r side
    with its nodes placed in r on their images [e^(s_i), e^(s_(i+1))].
    """
    s = np.asarray(s_nodes, dtype=float)
    w = np.asarray(w_values, dtype=float)
    if s.ndim != 1 or s.size < 16 or s.shape != w.shape:
        raise NumericsError("profile is undersampled or mis-shaped")
    if np.any(np.diff(s) <= 0):
        raise NumericsError("s grid must be strictly increasing")
    cp = to_cylinder(pt)
    sigma = a_critical(pt.N) - pt.a
    u = np.exp(sigma * s) * w

    W = CubicSpline(s, w)
    dW = W.derivative()

    # p-norm identity: int r^(N-1-bp) w^p dr = int u^p ds
    lhs_p = quad(lambda r: r ** (pt.N - 1 - pt.b * cp.p) * np.abs(W(np.log(r))) ** cp.p, np.exp(s))
    rhs_p = quad(lambda t: np.abs(np.exp(sigma * t) * W(t)) ** cp.p, s)
    mismatch_p = abs(lhs_p - rhs_p) / abs(rhs_p)

    # gradient identity: int r^(N-1-2a) w'(r)^2 dr = int (u'^2 + Lambda u^2) ds
    lhs_g = quad(lambda r: r ** (pt.N - 1 - 2 * pt.a) * (dW(np.log(r)) / r) ** 2, np.exp(s))

    def line_energy(t):
        e, Wt = np.exp(sigma * t), W(t)
        return (e * (sigma * Wt + dW(t))) ** 2 + cp.Lambda * (e * Wt) ** 2

    rhs_g = quad(line_energy, s)
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


def symmetric_mu_threshold(gamma: float, p: float, N: int) -> float:
    """Largest potential size mu for which the optimizing potential of the
    cylinder spectral bound is certified s-only.

    Requires gamma consistent with (p+2)/(2(p-2)).  The value is
    lambda_sym(p, N) divided by the linear-law slope
    radial_interp_coefficient(1, p)^(2p/(p+2)).
    """
    expected = (p + 2) / (2 * (p - 2))
    if not abs(gamma - expected) <= 1e-9:
        raise DomainError(f"gamma={gamma} inconsistent with (p+2)/(2(p-2))={expected}")
    return lambda_sym(p, N) / _linear_law_slope(p)


# n + 1 = 1200 = 2^4 3 5^2 is 5-smooth, so each DST-I on it is a fast transform
_BOUND_GRID = LineGrid(20.0, 1199)


def eigenvalue_bound(mu: float, p: float, N: int, grid: LineGrid | None = None, L_max: int = 6) -> float:
    """Bound Lambda(mu) on the binding energy of cylinder potentials of
    size mu, through the best interpolation constant.

    In the certified-symmetric regime the bound is the linear law
    slope * mu with slope = radial_interp_coefficient(1, p)^(2p/(p+2)); past
    it, the relation mu^((p+2)/(2p)) = 1/K(Lambda) is inverted numerically
    with the 2-d minimizer supplying K (at most 1500 iterations per descent,
    default grid LineGrid(20, 1199)) to 1e-3 relative in Lambda.

    The inversion continues in Lambda: until a solve returns a broken
    minimizer (:attr:`MinimizeReport.broken`), each Lambda gets a cold
    multistart from the radial extremal, the guard against missing the
    broken branch at the first point past the instability threshold; after
    that, each Lambda gets one descent started from the broken minimizer of
    the nearest solved Lambda in |log Lambda|.  A radial result never seeds
    a descent, and the minimizers are dropped when the call returns.
    """
    if not 0 < mu < math.inf:
        raise DomainError(f"need finite mu > 0, got {mu}")
    lam_lin = _linear_law_slope(p) * mu
    if lam_lin <= lambda_sym(p, N) + 1e-12:
        return lam_lin

    g = grid or _BOUND_GRID
    cold = MinimizeOpts(multistart=True, max_iter=1500)
    warm = MinimizeOpts(max_iter=1500)
    target = mu ** ((p + 2) / (2 * p))
    broken: list[tuple[float, CylField]] = []  # (Lambda, minimizer) of each broken solve

    def f(lam: float) -> float:
        if broken:
            _, near = min(broken, key=lambda b: abs(math.log(b[0] / lam)))
            rep = minimize_quotient(near, lam, p, 1.0, warm)
        else:
            rep = minimize_quotient(extremal_field(g, N, L_max, lam, p), lam, p, 1.0, cold)
        if rep.broken:
            broken.append((lam, rep.minimizer))
        return rep.quotient - target  # quotient = 1/K, increasing in Lambda

    root = _grown_root(f, lam_lin, lam_lin * 1.6, 1.6, 40, -1,
                       "no bracket for the inversion up to Lambda={}", rtol=1e-3, xtol=1e-12)
    return lam_lin if root is None else root


# ---------------------------------------------------------------------------
# theta < 1 sandwich

@dataclass
class SandwichReport(_Report):
    """Verified two-sided bounds on the interpolation constant."""

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
    limit_case: bool
    converged: bool


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
    a_c^2 < Lambda <= sandwich_lambda_bound, except at theta = theta_min
    exactly, where the window is empty (the bound degenerates to 0 for
    N = 3): there the upper check is waived, the run proceeds and the
    report is flagged limit_case.  Also reports the chain quantities:
    gamma_theta, q, the chain constant D on the renormalized minimizer
    (Lambda <= D <= gap * Lambda on solutions) and the slack of the
    theta-Hoelder step.
    """
    tmin = theta_min(p, N)
    check_theta_window(theta, tmin)
    limit_case = abs(theta - tmin) < 1e-12
    ac2 = a_critical(N) ** 2
    if not Lambda > ac2:  # written so that NaN fails the comparison
        raise DomainError(f"need Lambda > a_c^2 = {ac2}, got {Lambda}")
    if not limit_case:
        bound = sandwich_lambda_bound(theta, p, N) if theta < 1.0 else lambda_sym(p, N)
        if Lambda > bound * (1 + 1e-12):
            raise DomainError(f"Lambda={Lambda} violates the admissible window ({ac2}, {bound}]")

    gamma_t = ((2 * theta - 1) * p + 2) / (2 * (p - 2))
    if not gamma_t >= 1.0 - 1e-12:
        raise DomainError(f"gamma = {gamma_t} < 1: chain fails at (p={p}, theta={theta})")
    # gamma = 1 at the limit case: the sphere exponent degenerates
    q_exp = (gamma_t + 1) / (gamma_t - 1) if gamma_t > 1.0 + 1e-12 else math.inf
    k_lower = radial_interp_constant(theta, Lambda, p)
    gap = gap_factor(p, theta)
    k_upper = k_lower * gap ** (((2 * theta - 1) * p + 2) / (2 * p))

    g = grid or DEFAULT_GRID
    opts = opts or MinimizeOpts(multistart=True)
    start = extremal_field(g, N, L_max, Lambda, p, theta)
    rep = minimize_quotient(start, Lambda, p, theta, opts)
    k_numeric = rep.constant

    # chain quantities on the Euler-Lagrange-normalized minimizer
    u = rep.minimizer
    E, M, P, *_ = _pieces(u, p)
    scale = ((E + Lambda * M) / P) ** (1.0 / (p - 2))
    M_n = scale**2 * M
    P_n = scale**p * P
    quad_, _ = _angular(u.N, u.L_max)
    theta_power = float(u.grid.h * ((scale * np.abs(u.nodal())) ** (theta * p) @ quad_.weights).sum())
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
        limit_case=limit_case,
        converged=rep.converged,
    )
