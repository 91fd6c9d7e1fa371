"""Sharp constants, extremal profiles and symmetry diagnostics for weighted
interpolation inequalities reformulated on the cylinder R x S^(N-1).

Importing the package loads NumPy only, and no function in it loads SciPy.
"""

from .errors import DomainError, NotAchievedError, NumericsError
from .params import (
    CylinderPoint,
    ParamPoint,
    Region,
    a_critical,
    b_fs,
    b_sym,
    chain_exponents,
    classify,
    from_cylinder,
    lambda_fs,
    lambda_sym,
    region_map,
    theta_min,
    to_cylinder,
)
from .closed_forms import (
    Moments,
    ProfileConstants,
    euclidean_radial_extremal,
    extremal_profile,
    f_cosh_integral,
    gap_factor,
    log_gamma,
    lt_constant,
    lt_ground_state,
    lt_identity_defect,
    moments,
    profile_constants,
    radial_constant,
    radial_constant_alt,
    radial_interp_coefficient,
    radial_interp_constant,
    sphere_area,
)
from .schrodinger import (
    EigenResult,
    LineGrid,
    Potential1D,
    lowest_eigenpair,
    lt_equality_potential,
    lt_ratio,
    poschl_teller_ground,
    sech_squared_potential,
)
from .sphere import (
    SphereQuadrature,
    ZonalField,
    grad_energy,
    holder_probability_deficit,
    poincare_deficit,
    sphere_quadrature,
)
from .cylinder import (
    ChainReport,
    CylField,
    MinimizeOpts,
    MinimizeReport,
    SandwichReport,
    defect_functional,
    eigenvalue_bound,
    el_residual,
    emden_fowler_pushforward,
    extremal_field,
    fs_threshold,
    minimize_quotient,
    proof_chain,
    rayleigh,
    sandwich_check,
    second_variation_mode,
    symmetric_mu_threshold,
)

__version__ = "0.1.0"
