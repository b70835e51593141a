"""Exact uniform-ball breathing/expansion family (Kurth's solution).

The family describes a self-gravitating ball of total mass 1 whose
density stays uniform inside a time dependent radius phi(t):

    rho(t, x) = (3 / (4 pi)) * phi(t)**-3     for |x| < phi(t).

The dilation radius obeys

    phi'' = (1 - phi) / phi**3,   phi(0) = 1,   phi'(0) = k,

with the conserved first integral

    I(phi, phi') = (3/5) * (phi'**2 + phi**-2 - 2/phi),

whose value on the trajectory started at (1, k) is (3/5)(k**2 - 1).
The sign of I sorts the family: k = 0 is a static ball, 0 < |k| < 1
is a breathing (time periodic) ball, |k| >= 1 expands without bound
and the density tends to zero in every L^q with q > 1.

`phi_closed_form(t, k)` gives phi and phi' for any finite k, and
`kurth_diagnostics` builds the family's table from those arrays; the
leapfrog `integrate_phi` is the ODE oracle for the closed form.

Closed-form evaluation uses the conic-orbit parametrisations.  Each
implicit equation below has a strictly monotone left-hand side, so a
safeguarded Newton iteration converges unconditionally.

|k| < 1 (elliptic):
    phi = A - B cos(theta),  A = 1/(1-k^2),  B = |k|/(1-k^2),
    A theta - B sin(theta) = sqrt(1-k^2) * (t - t_peri),
    period T = 2 pi A / sqrt(1-k^2) = 2 pi (1-k^2)**-1.5, exactly
    (`kurth_period` returns this closed form).
|k| = 1 (parabolic):
    phi = (1 + v^2)/2,  v + v^3/3 = 2 t + (4/3) k,
    so phi grows like t**(2/3).
|k| > 1 (hyperbolic):
    phi = (a cosh v - 1)/(a^2 - 1),  a = |k|,
    a sinh v - v = (a^2 - 1)**1.5 * (t - t0),
    so |v| grows like log t and phi like t.

The time scaling (a^2 - 1)**1.5 in the hyperbolic relation is the one
consistent with the ODE (it reproduces phi'(0) = k and the first
integral identically); t0 follows from the t = 0 condition.

Caution on normalisation: the first integral above is the conserved
energy of the family in its own rescaled units.  It is NOT numerically
equal to the simulator energy E_kin - E_pot of a sampled ball in units
with 4 pi G = 1 (the two differ by a constant factor and a time
rescaling).  Only the sign and the thresholds -3/5 and 0 are used to
classify; see `kinetic_scaled` / `potential_scaled` for the split that
is exact within this normalisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import ParsedRun
from .errors import DomainError, SingularityError

__all__ = [
    "KurthTrajectory",
    "kurth_energy",
    "first_integral",
    "classify_k",
    "integrate_phi",
    "phi_closed_form",
    "kurth_period",
    "kurth_variance",
    "kurth_lq_norm",
    "kurth_concentration",
    "kurth_diagnostics",
    "kinetic_scaled",
    "potential_scaled",
]


@dataclass(frozen=True)
class KurthTrajectory:
    """Sampled (t, phi, phi') arrays from one integration."""

    t: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray


def kurth_energy(k):
    """Conserved first integral of the trajectory with phi'(0) = k."""
    return 0.6 * (k * k - 1.0)


def first_integral(phi, phi_dot):
    """(3/5)(phi'^2 + phi^-2 - 2/phi), constant along trajectories."""
    phi = np.asarray(phi, dtype=np.float64)
    return 0.6 * (np.square(phi_dot) + phi**-2 - 2.0 / phi)


def classify_k(k):
    """Regime of the family member: static, periodic or dispersive."""
    if k == 0.0:
        return "static"
    if abs(k) < 1.0:
        return "periodic"
    return "dispersive"


def _default_dt(k):
    # Fixed step per trajectory keeps the integrator symplectic, which
    # bounds the first-integral error instead of letting it drift.  The
    # step shrinks with the analytic minimum radius, where the
    # oscillation frequency peaks.
    if abs(k) < 1.0 or k <= -1.0:
        phi_min = 1.0 / (1.0 + abs(k))
    else:
        phi_min = 1.0
    return 1.0e-4 * min(1.0, phi_min * phi_min)


def integrate_phi(k, t_end):
    """Leapfrog integration of phi'' = (1 - phi)/phi^3 from (1, k).

    The step is fixed per trajectory (see `_default_dt`); at that step
    the first integral drifts by less than 1e-8 (relative) per unit
    time.  Samples are stored roughly every 0.01, always including
    t = 0 and exactly t = t_end.
    """
    if t_end < 0.0:
        raise DomainError("t_end must be >= 0")
    dt = _default_dt(k)
    output_cadence = 0.01

    phi = 1.0
    pd = float(k)
    t = 0.0
    acc = (1.0 - phi) / phi**3
    times = [0.0]
    phis = [phi]
    pds = [pd]
    next_out = output_cadence
    while t < t_end - 1.0e-15 * max(1.0, t_end):
        h = dt if t + dt <= t_end else t_end - t
        pd_half = pd + 0.5 * h * acc
        phi = phi + h * pd_half
        if phi <= 1.0e-9:
            raise SingularityError("dilation radius collapsed to zero", time=t)
        acc = (1.0 - phi) / (phi * phi * phi)
        pd = pd_half + 0.5 * h * acc
        t += h
        if t >= next_out - 1.0e-12 or t >= t_end - 1.0e-15 * max(1.0, t_end):
            times.append(t)
            phis.append(phi)
            pds.append(pd)
            while next_out <= t + 1.0e-12:
                next_out += output_cadence
    return KurthTrajectory(np.array(times), np.array(phis), np.array(pds))


def _solve_monotone(f, fprime, lo, hi, x0):
    """Vectorised safeguarded Newton for a strictly increasing f.

    Roots are bracketed by [lo, hi]; Newton steps falling outside the
    current bracket are replaced by bisection.  Stops after 120 steps or
    when no x moves by more than 1e-12 relative.
    """
    lo = np.array(lo, dtype=np.float64, copy=True)
    hi = np.array(hi, dtype=np.float64, copy=True)
    x = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
    for _ in range(120):
        fx = f(x)
        below = fx < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = fx / fprime(x)
        x_new = x - step
        bad = (x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        if np.all(np.abs(x_new - x) <= 1.0e-12 * np.maximum(1.0, np.abs(x_new))):
            x = x_new
            break
        x = x_new
    return x


def _parabolic_state(t, k):
    s = 2.0 * t + (4.0 / 3.0) * k
    bound = np.cbrt(3.0 * np.abs(s)) + 2.0
    v = _solve_monotone(
        lambda v: v + v**3 / 3.0 - s,
        lambda v: 1.0 + v * v,
        -bound,
        bound,
        np.cbrt(3.0 * s),
    )
    phi = 0.5 * (1.0 + v * v)
    # phi' = v / phi with |v| = sqrt(2 phi - 1) from the returned phi;
    # v carries the sign of the cubic's right side
    v = np.sqrt(np.maximum(2.0 * phi - 1.0, 0.0))
    v = np.where(s >= 0.0, v, -v)
    return phi, v / phi


def _hyperbolic_state(t, k):
    a = abs(float(k))
    rate = (a * a - 1.0) ** 1.5
    v0 = math.copysign(math.acosh(a), k)
    t0 = -(a * math.sinh(v0) - v0) / rate
    s = rate * (t - t0)

    def g(v):
        return a * np.sinh(v) - v - s

    def gp(v):
        return a * np.cosh(v) - 1.0

    # g is odd in v up to the shift; a contraction map gives the seed.
    v = np.arcsinh(s / a)
    for _ in range(8):
        v = np.arcsinh((s + v) / a)
    span = np.abs(v) + 2.0
    v = _solve_monotone(g, gp, -span, span, v)
    phi = (a * np.cosh(v) - 1.0) / (a * a - 1.0)
    cosh_v = ((a * a - 1.0) * phi + 1.0) / a
    sinh_v = np.sqrt(np.maximum(cosh_v * cosh_v - 1.0, 0.0))
    # sign of v from the monotone relation a sinh v - v = s.
    sinh_v = np.where(s >= 0.0, sinh_v, -sinh_v)
    phi_dot = a * sinh_v / (math.sqrt(a * a - 1.0) * phi)
    return phi, phi_dot


def _elliptic_state(t, k):
    kk = float(k)
    one_m = 1.0 - kk * kk
    A = 1.0 / one_m
    B = abs(kk) / one_m
    C = math.sqrt(one_m)
    theta0 = math.copysign(math.acos(abs(kk)), kk)
    tau0 = A * theta0 - B * math.sin(theta0)
    tau = tau0 + C * t
    # the slope A - B cos(theta) >= phi_min > 0 makes this bracket exact
    theta = _solve_monotone(
        lambda th: A * th - B * np.sin(th) - tau,
        lambda th: A - B * np.cos(th),
        (tau - B) / A,
        (tau + B) / A,
        tau / A,
    )
    phi = A - B * np.cos(theta)
    phi_dot = B * C * np.sin(theta) / phi
    return phi, phi_dot


def phi_closed_form(t, k):
    """(phi, phi') arrays at times t (a scalar gives one-element arrays)
    for any finite k, by branch dispatch."""
    if not math.isfinite(k):
        raise DomainError("k must be finite")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if k == 0.0:
        return np.ones_like(t_arr), np.zeros_like(t_arr)
    if abs(k) < 1.0:
        return _elliptic_state(t_arr, k)
    if abs(k) == 1.0:
        return _parabolic_state(t_arr, k)
    return _hyperbolic_state(t_arr, k)


def kurth_period(k):
    """Oscillation period 2 pi (1 - k^2)^(-3/2) for 0 < |k| < 1.

    T = 2 integral dphi / sqrt((5/3) I - phi^-2 + 2/phi) between the
    turning points phi_min = 1/(1+|k|) and phi_max = 1/(1-|k|).  The
    substitution phi = A - B cos(theta), A = (phi_min + phi_max)/2,
    B = (phi_max - phi_min)/2, turns it into (2/sqrt(1-k^2)) times the
    integral of A - B cos(theta) over [0, pi], which is exactly A pi.
    """
    if not 0.0 < abs(k) < 1.0:
        raise DomainError("period is defined for 0 < |k| < 1")
    return 2.0 * math.pi * (1.0 - k * k) ** -1.5


def kurth_variance(phi):
    """Mass-weighted spatial variance of the uniform ball: (3/5) phi^2."""
    return 0.6 * np.asarray(phi, dtype=np.float64) ** 2


def kurth_lq_norm(phi, q):
    """L^q norm of the uniform-ball density.

    ||rho||_q = (3/(4 pi))^((q-1)/q) * phi^(-3 (q-1)/q); equals the
    mass (= 1) for q = 1 and decays for q > 1 along expansion.
    """
    q = float(q)
    if q < 1.0:
        raise DomainError("q must be >= 1")
    expo = (q - 1.0) / q
    phi = np.asarray(phi, dtype=np.float64)
    return (3.0 / (4.0 * math.pi)) ** expo * phi ** (-3.0 * expo)


def kurth_concentration(phi, R):
    """Best-centred mass in a ball of radius R: min((R/phi)^3, 1).

    For a uniform ball the supremum over centres is attained by any
    ball fully inside the support, in particular the centred one.
    """
    if R <= 0.0:
        raise DomainError("ball radius must be positive")
    phi = np.asarray(phi, dtype=np.float64)
    return np.minimum((R / phi) ** 3, 1.0)


def kinetic_scaled(phi, phi_dot):
    """Kinetic part of the first integral: (3/5)(phi'^2 + phi^-2).

    Together with `potential_scaled` this is the unique split with
    I = kinetic - potential, potential proportional to 1/phi, and the
    static member satisfying the virial relation kinetic = -I.  It maps
    onto the simulator-unit split of a sampled ball through one common
    scale factor.
    """
    phi = np.asarray(phi, dtype=np.float64)
    return 0.6 * (np.square(phi_dot) + phi**-2)


def potential_scaled(phi):
    """Potential part of the first integral: (6/5)/phi."""
    return 1.2 / np.asarray(phi, dtype=np.float64)


def kurth_diagnostics(t, phi, phi_dot, q_list=(), r_grid=()):
    """The family's diagnostics table (a `csvio.ParsedRun`) at times t
    from arrays of phi and phi', each column evaluated once.

    Emits mass = 1, the variance, density norms, support radii and the
    first integral as the energy.  The kinetic/potential split and the
    other simulator-only columns are None: the split's normalisation is
    not that of the simulator (see the module docstring).
    """
    zeros = np.zeros_like(phi)
    return ParsedRun(
        times=t, energy=first_integral(phi, phi_dot), energy_kinetic=None,
        energy_potential=None, mass=np.ones_like(phi), variance=kurth_variance(phi),
        dilation=None, conformal=None, inner_radius=zeros, outer_radius=phi,
        inner_radius_shell=zeros,
        conc={float(R): kurth_concentration(phi, float(R)) for R in r_grid},
        lq={float(q): kurth_lq_norm(phi, q) for q in q_list},
    )
