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
    conformal_moment,
    diagnostics_record,
    dilation_moment,
    kinetic_energy,
    lq_norm,
    potential_energy,
    statistical_dispersion,
    total_energy,
)
from .dynamics import IntegratorConfig, TrajectorySink, acceleration, group_stats, run, step
from .ensemble import Ensemble, RadialDensityProfile
from .errors import (
    ClassifyInputError,
    ConfigError,
    DomainError,
    NumericalError,
    StiffnessError,
)
from .kurth import (
    classify_k,
    first_integral,
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
