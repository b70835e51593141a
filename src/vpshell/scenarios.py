"""Deterministic builders for the reference initial configurations.

Three configurations cover the interesting regimes:

* an outward-moving shell whose radial momenta clear the escape
  threshold sqrt(M / (2 pi R1)), which empties every fixed ball;
* a uniform circular-orbit ball, an exact steady state of the reduced
  dynamics, supported purely by tangential motion;
* their superposition, which can shed the shell to infinity while the
  total energy stays negative provided the shell mass and momenta sit
  inside an explicit window.

Sampling is stratified in enclosed mass with a counter-based generator
(Philox), so a spec plus seed reproduces the ensemble bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import kinetic_energy, potential_energy
from .ensemble import Ensemble
from .errors import DomainError

__all__ = [
    "ShellSpec",
    "CoreSpec",
    "ShellReport",
    "CompositeReport",
    "build_shell",
    "build_circular_core",
    "build_shell_plus_core",
    "dynamical_time",
]

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ShellSpec:
    """Outward-moving shell: support [r_inner, r_outer], uniform-in-mass
    radii, uniform radial momenta in [w_min, w_max] and angular momenta
    in [ell_min, ell_max] (purely radial by default)."""

    mass: float
    r_inner: float
    r_outer: float
    w_min: float
    w_max: float
    n: int
    ell_min: float = 0.0
    ell_max: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("mass", "r_inner", "r_outer", "w_min", "w_max", "ell_min", "ell_max"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"shell {name} must be finite")
        if self.mass <= 0.0:
            raise DomainError("shell mass must be positive")
        if not 0.0 < self.r_inner < self.r_outer:
            raise DomainError("need 0 < r_inner < r_outer")
        if self.w_min > self.w_max:
            raise DomainError("need w_min <= w_max")
        if not 0.0 <= self.ell_min <= self.ell_max:
            raise DomainError("need 0 <= ell_min <= ell_max")
        if self.n < 1 or self.seed < 0:
            raise DomainError("need at least one particle and a seed >= 0")


@dataclass(frozen=True)
class CoreSpec:
    """Static uniform ball of mass `mass` and radius `radius`."""

    mass: float
    radius: float
    n: int
    seed: int = 0

    def __post_init__(self):
        for name in ("mass", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"core {name} must be finite")
        if self.mass <= 0.0:
            raise DomainError("core mass must be positive")
        if self.radius <= 0.0:
            raise DomainError("core radius must be positive")
        if self.n < 1 or self.seed < 0:
            raise DomainError("need at least one particle and a seed >= 0")


@dataclass(frozen=True)
class ShellReport:
    """Escape bookkeeping for a freshly built shell."""

    escape_threshold: float  # sqrt(M / (2 pi R1))
    margin_sq: float  # w_min^2 - M / (2 pi R1), may be negative
    satisfied: bool

    @property
    def margin(self):
        return math.sqrt(self.margin_sq) if self.margin_sq > 0.0 else 0.0


@dataclass(frozen=True)
class CompositeReport:
    """Energy bookkeeping for a shell around a static interior."""

    escape_threshold: float  # sqrt((M0 + m) / (2 pi R1))
    total_energy: float
    core_energy: float
    shell_mass_max: float  # largest shell mass keeping E < 0 attainable
    momentum_window: tuple  # (threshold^2, -2 E0 / m) for w^2 and |p|^2
    double_inequality_ok: bool
    escape_satisfied: bool


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _stratified(rng, n):
    # One uniform draw per equal-mass stratum keeps the sampled
    # cumulative mass within one particle weight of the target.
    return (np.arange(n) + rng.random(n)) / n


def build_shell(spec: ShellSpec):
    """Sample the shell; returns (ensemble, escape report)."""
    rng = _rng(spec.seed)
    frac = _stratified(rng, spec.n)
    r = spec.r_inner + frac * (spec.r_outer - spec.r_inner)
    w = spec.w_min + rng.random(spec.n) * (spec.w_max - spec.w_min)
    ell = spec.ell_min + rng.random(spec.n) * (spec.ell_max - spec.ell_min)
    mass = np.full(spec.n, spec.mass / spec.n)
    ensemble = Ensemble(0.0, r, w, ell, mass, np.full(spec.n, "shell"))
    threshold_sq = spec.mass / (2.0 * math.pi * spec.r_inner)
    margin_sq = spec.w_min**2 - threshold_sq
    report = ShellReport(
        escape_threshold=math.sqrt(threshold_sq),
        margin_sq=margin_sq,
        satisfied=spec.w_min > 0.0 and margin_sq > 0.0,
    )
    return ensemble, report


def build_circular_core(spec: CoreSpec):
    """Sample the static ball: w = 0 and the exact circular-orbit ell.

    Radii come from inverse-transform sampling of the uniform cumulative
    mass M(<r) = M (r/a)^3; each particle receives ell^2 = r M(<r) / (4 pi)
    using this analytic mass, not the sampled one, which makes the
    ensemble a steady state up to sampling noise.
    """
    rng = _rng(spec.seed)
    frac = _stratified(rng, spec.n)
    r = spec.radius * frac ** (1.0 / 3.0)
    if np.any(r <= 0.0):
        # A zero draw in the innermost stratum lands at radius 0.
        r = np.maximum(r, 1.0e-12 * spec.radius)
    enclosed = spec.mass * np.clip(r / spec.radius, 0.0, 1.0) ** 3
    ell = np.sqrt(r * enclosed / FOUR_PI)
    mass = np.full(spec.n, spec.mass / spec.n)
    return Ensemble(
        0.0, r, np.zeros(spec.n), ell, mass, np.full(spec.n, "core")
    )


def dynamical_time(mass, radius):
    """Inverse circular frequency sqrt(4 pi a^3 / M) of the ball edge.

    Inside a uniform ball every circular orbit shares this frequency;
    one full orbit takes 2 pi dynamical times.
    """
    return math.sqrt(FOUR_PI * radius**3 / mass)


def build_shell_plus_core(core_spec: CoreSpec, shell_spec: ShellSpec):
    """Superpose a static ball and an exterior shell.

    Requires the shell support to start strictly outside the ball.
    Returns (ensemble, CompositeReport); the report records the
    combined escape threshold, the measured core energy E0, the largest
    shell mass m for which the negative-energy escape window
    (M0+m)/(2 pi R1) < w^2 <= |p|^2 < -2 E0 / m can be non-empty,
    namely (1/2) [-M0 + sqrt(M0^2 - 16 pi E0 R1)], and whether the
    supplied momenta actually sit inside the window.
    """
    if shell_spec.r_inner <= core_spec.radius:
        raise DomainError("shell support must lie strictly outside the core")
    core = build_circular_core(core_spec)
    shell, shell_report = build_shell(shell_spec)
    combined = Ensemble(
        0.0,
        np.concatenate([core.r, shell.r]),
        np.concatenate([core.w, shell.w]),
        np.concatenate([core.ell, shell.ell]),
        np.concatenate([core.mass, shell.mass]),
        np.concatenate([core.group, shell.group]),
    )
    m0 = core_spec.mass
    m = shell_spec.mass
    r1 = shell_spec.r_inner
    e_core = kinetic_energy(core) - potential_energy(core)
    e_total = kinetic_energy(combined) - potential_energy(combined)
    threshold_sq = (m0 + m) / (2.0 * math.pi * r1)
    disc = m0 * m0 - 16.0 * math.pi * e_core * r1
    m_max = 0.5 * (-m0 + math.sqrt(disc)) if disc > 0.0 else 0.0
    p_sq_max = shell_spec.w_max**2 + (shell_spec.ell_max / r1) ** 2
    window_hi = -2.0 * e_core / m if e_core < 0.0 else 0.0
    double_ok = threshold_sq < shell_spec.w_min**2 and p_sq_max < window_hi
    report = CompositeReport(
        escape_threshold=math.sqrt(threshold_sq),
        total_energy=e_total,
        core_energy=e_core,
        shell_mass_max=m_max,
        momentum_window=(threshold_sq, window_hi),
        double_inequality_ok=double_ok,
        escape_satisfied=shell_spec.w_min > 0.0
        and shell_spec.w_min**2 > threshold_sq,
    )
    return combined, report
