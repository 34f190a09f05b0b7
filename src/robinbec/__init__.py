"""robinbec: Bose gas in a 1D box with attractive (Robin) walls.

Exact one-body spectrum, an exact Gibbs oracle for the quadratic
mean-field coupling to the k >= 2 particle number (capped-Fock wall
modes, the k >= 2 sector on a certified particle-number window), density
equation solvers, condensation diagnostics, and spatial density profiles.
"""

from .errors import NumericalFailure, ValidationError
from .spectrum import (
    BoxParams,
    BracketFailure,
    NoSecondBoundState,
    OutOfDomain,
    SpectrumTable,
    bound_state_gap,
    build_spectrum,
    eigenfunction_eval,
    write_spectrum_csv,
)
from .gibbs_oracle import (
    BadMode,
    CapOverflow,
    ConstrainedZ,
    DiagonalObservable,
    IndexClash,
    ModelParams,
    NonpositiveGap,
    TruncationSpec,
    UnknownMode,
    check_moment_log_inequality,
    check_occupation_bound,
    check_wall_mode_occupation,
    constrained_partition,
    exchange_identity_sides,
    grand_expectation,
    make_truncation,
    run_check,
    truncation_for_check,
)
from .thermo import (
    CutoffTooSmall,
    MuAsymptoticsReport,
    NotCondensing,
    SigmaZero,
    ThermoInput,
    ThermoState,
    critical_density,
    equal_distribution_gap,
    mu_asymptotics_check,
    solve_mu,
    suggest_k_max,
    write_sweep_csv,
)
from .profile import (
    EmptyCondensate,
    Profile,
    density_profile,
    localization_radius,
    profile_input,
    profile_mass,
    write_profile_csv,
)

__version__ = "0.1.0"
