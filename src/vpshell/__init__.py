"""Spherical shell-particle toolkit for self-gravitating collisionless
matter: simulation, exact uniform-ball solutions, and finite-horizon
dispersion diagnostics."""

from .classify import (
    ClassificationReport,
    GrowthFit,
    TimeSeries,
    check_propositions,
    classify,
    concentration_limits,
    growth_exponent,
    strong_dispersion_test,
    virialization_metric,
)
from .diagnostics import (
    build_radial_profile,
    concentration_function,
    concentration_mass,
    conformal_moment,
    cumulative_mass,
    diagnostics_record,
    dilation_moment,
    galilean_shift,
    kinetic_energy,
    lq_norm,
    potential_energy,
    statistical_dispersion,
    total_energy,
)
from .dynamics import IntegratorConfig, TrajectorySink, acceleration, adaptive_dt, run, step
from .ensemble import DiagnosticsRecord, Ensemble, RadialDensityProfile
from .errors import (
    ClassifyInputError,
    ConfigError,
    DomainError,
    NumericalError,
    SingularityError,
    StiffnessError,
)
from .kurth import (
    KurthTrajectory,
    classify_k,
    first_integral,
    integrate_phi,
    kurth_diagnostics,
    kurth_energy,
    kurth_period,
    phi_closed_form,
)
from .scenarios import (
    CoreSpec,
    ShellSpec,
    build_circular_core,
    build_shell,
    build_shell_plus_core,
    dynamical_time,
)

__version__ = "0.1.0"
