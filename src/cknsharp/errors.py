"""Exception types shared across the package, and the one check of each
parameter domain, written so that NaN fails the comparison."""

import math

__all__ = ["DomainError", "NotAchievedError", "NumericsError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a formula."""


class NotAchievedError(DomainError):
    """Signals a parameter point whose best constant is not achieved
    (b = a + 1, or b = a < 0): there is no extremal to compute."""


class NumericsError(RuntimeError):
    """An iterative numerical procedure failed to converge; the message
    carries diagnostics (residuals, brackets, iteration counts)."""


def check_N(N) -> None:
    """Dimension of every closed form: N >= 2."""
    if not 2 <= N < math.inf:
        raise DomainError(f"need N >= 2, got N={N}")


def check_numeric_N(N) -> None:
    """Dimension of the numerical sphere and cylinder code: N in {2, 3}."""
    if N not in (2, 3):
        raise DomainError(f"numerical sphere and cylinder operations support N in {{2, 3}}, got N={N}")


def check_p(p: float, hi: float = math.inf) -> None:
    """Finite p > 2, or 2 < p < hi (hi = 6 for the radial constants and lambda_sym)."""
    if not 2 < p < hi:
        raise DomainError(f"need {'finite p > 2' if hi == math.inf else f'2 < p < {hi:g}'}, got p={p}")


def check_subcritical(p: float, N) -> None:
    """Sobolev bound p <= 2N/(N-2) when N >= 3, with 1e-12 slack."""
    if N >= 3 and not p <= 2 * N / (N - 2) + 1e-12:
        raise DomainError(f"p={p} supercritical for N={N}")


def check_Lambda(Lambda: float) -> None:
    """Finite Lambda > 0."""
    if not 0 < Lambda < math.inf:
        raise DomainError(f"need finite Lambda > 0, got Lambda={Lambda}")


def check_gamma(gamma: float) -> None:
    """Finite gamma > 1/2, the power of the one-bound-state spectral inequality."""
    if not 0.5 < gamma < math.inf:
        raise DomainError(f"need finite gamma > 1/2, got gamma={gamma}")


def check_interp(theta: float, p: float) -> None:
    """(theta, p) admissible for the theta-family closed forms, 2 < p < 6 included."""
    check_p(p, 6)
    if not (theta <= 1.0 and (2 * theta - 1) * p + 2 > 0 and 2 - p * (1 - theta) > 0):
        raise DomainError(f"(p={p}, theta={theta}) outside the admissible range")


def check_theta_window(theta: float, tmin: float) -> None:
    """0 < theta and theta_min <= theta <= 1, with 1e-12 slack below tmin = theta_min(p, N)."""
    if not (0 < theta and tmin - 1e-12 <= theta <= 1.0):
        raise DomainError(f"theta={theta} outside [{tmin}, 1]")


# cap on the angular degree a caller asks for: the quadrature grows with L_max and the basis
# as its square; at the cap, `verify minimize --n 599` takes 1.3 s on one Xeon core
L_MAX_CAP = 128


def check_L_max(L_max: int, lo: int, name: str = "L_max") -> None:
    """Angular degree lo <= L_max <= L_MAX_CAP; name is how the caller spells it."""
    if not lo <= L_max <= L_MAX_CAP:
        raise DomainError(f"need L_max >= {lo} and at most {L_MAX_CAP}, got {name} {L_max}")


# cap on the points of a region map, na * nb: at the cap, 1000 x 1000, `region-map` takes 4 s and 356 MB
# on one Xeon core
REGION_MAP_CAP = 10**6

# cap on the interior nodes of a line grid: at the cap, on one Xeon core, `verify chain --n 100000` takes 24 s
# and 174 MB, `verify minimize --n 99999` 0.5 s and 144 MB (6 s and 1.4 GB at --l-max 128)
GRID_N_CAP = 100_000


def check_grid(S: float, n: int) -> None:
    """Line grid on [-S, S]: finite S > 0 and 16 <= n <= GRID_N_CAP interior nodes."""
    if not (0 < S < math.inf and 16 <= n <= GRID_N_CAP):
        raise DomainError(f"need finite S > 0 and 16 <= n <= {GRID_N_CAP}, got S={S}, n={n}")
