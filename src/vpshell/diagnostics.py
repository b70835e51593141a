"""Instantaneous diagnostics of a shell-particle ensemble.

Everything in this module is a pure function of an ensemble snapshot:
an immutable `Ensemble`, or the `RawState` arrays that `run()` hands to
`diagnostics_record` with the sort its last step already made.  Mass
and energy reductions use numpy's pairwise summation, which is
deterministic for a fixed array layout.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .ensemble import DiagnosticsRecord, Ensemble, RadialDensityProfile
from .errors import DomainError

__all__ = [
    "cumulative_mass",
    "potential_energy",
    "kinetic_energy",
    "total_energy",
    "statistical_dispersion",
    "dilation_moment",
    "conformal_moment",
    "concentration_mass",
    "concentration_function",
    "build_radial_profile",
    "lq_norm",
    "galilean_shift",
    "diagnostics_record",
]

FOUR_PI = 4.0 * math.pi

# An unchecked, uncopied state for `diagnostics_record`; `run()` sets
# the total mass and the shell group's `_selector` once per run.
RawState = namedtuple("RawState", "time r w ell mass total_mass shell")


def _selector(mask):
    """None for an empty mask, a slice when its set entries are
    contiguous (as every scenario builder makes groups), else indices."""
    idx = np.flatnonzero(mask)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx if idx.size else None


def _sorted_mass_profile(r, mass):
    """Radii and masses in increasing radius, the mass prefix sums, the
    order that sorts them and whether two sorted radii tie (or are NaN).

    Ties are broken by original index (stable sort); enclosed-mass
    queries use strict comparison, so coincident radii never see each
    other's mass.  `prefix[k]` is the mass of the first k shells.  This
    is the one argsort of radii in the package: the force kernel and
    every diagnostic start from it.  Scrambled radii (crossing shells)
    take numpy's default SIMD argsort, nearly sorted ones (a static
    core) the stable timsort, each the faster there; after a tie the
    stable sort runs again, so the order is the stable one either way.
    """
    # 1/16: timed at N = 1e4-1e5, the default sort won past 1/50-1/10 descents
    probe = r[::16]
    scrambled = 16 * np.count_nonzero(probe[1:] < probe[:-1]) > probe.size
    order = np.argsort(r, kind=None if scrambled else "stable")
    r_sorted = r[order]
    tied = not np.all(r_sorted[1:] > r_sorted[:-1])
    if tied and scrambled:
        order = np.argsort(r, kind="stable")
        r_sorted = r[order]
    m_sorted = mass[order]
    prefix = np.empty(m_sorted.size + 1)
    prefix[0] = 0.0
    np.cumsum(m_sorted, out=prefix[1:])
    return r_sorted, m_sorted, prefix, order, tied


def _enclosed(r_sorted, prefix, radii):
    idx = np.searchsorted(r_sorted, radii, side="left")
    return prefix[idx]


def cumulative_mass(ensemble: Ensemble, r):
    """Mass strictly inside radius r.

    A particle evaluating the field at its own radius does not see its
    own mass (strict inequality), so a lone shell feels no self-force.
    Accepts a scalar or an array of radii.
    """
    r_arr = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r_arr)):
        raise DomainError("query radius must be finite")
    if np.any(r_arr < 0.0):
        raise DomainError("query radius must be >= 0")
    r_sorted, _, prefix, *_ = _sorted_mass_profile(ensemble.r, ensemble.mass)
    out = _enclosed(r_sorted, prefix, r_arr)
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def _field_energy(r_sorted, prefix):
    inv_r = 1.0 / r_sorted
    inner = prefix[1:-1] ** 2 * (inv_r[:-1] - inv_r[1:])
    tail = prefix[-1] ** 2 * inv_r[-1]
    return float((np.sum(inner) + tail) / (8.0 * math.pi))


def potential_energy(ensemble: Ensemble):
    """Field energy (1/2) integral |grad U|^2 of the ensemble.

    In spherical symmetry this is (1/(8 pi)) * integral_0^inf
    M(<r)^2 / r^2 dr, which is evaluated exactly for the
    piecewise-constant cumulative mass of the shell representation:

        (1/(8 pi)) [ sum_{i<N} M_i^2 (1/r_(i) - 1/r_(i+1)) + M^2/r_(N) ]

    with radii sorted increasingly and M_i the mass of the first i
    shells.  The result is >= 0; a lone shell of mass M at radius r
    contributes exactly M^2 / (8 pi r).
    """
    r_sorted, _, prefix, *_ = _sorted_mass_profile(ensemble.r, ensemble.mass)
    return _field_energy(r_sorted, prefix)


def kinetic_energy(ensemble: Ensemble):
    """(1/2) sum m_i (w_i^2 + ell_i^2 / r_i^2)."""
    tangential = ensemble.ell / ensemble.r
    return float(0.5 * np.sum(ensemble.mass * (ensemble.w**2 + tangential**2)))


def total_energy(ensemble: Ensemble):
    """Conserved energy E = E_kin - E_pot (gravitational sign)."""
    return kinetic_energy(ensemble) - potential_energy(ensemble)


def statistical_dispersion(ensemble: Ensemble):
    """Mass-weighted spatial variance (1/M) sum m_i r_i^2.

    The centre of mass is the origin by construction, so this is the
    moment of inertia of the mass distribution about its centre.
    """
    return float(np.sum(ensemble.mass * ensemble.r**2) / ensemble.total_mass)


def dilation_moment(ensemble: Ensemble):
    """sum m_i r_i w_i; x.p reduces exactly to r w in shell coordinates."""
    return float(np.sum(ensemble.mass * ensemble.r * ensemble.w))


def conformal_moment(ensemble: Ensemble, t):
    """sum m_i |x_i - t p_i|^2 in reduced coordinates.

    Uses the manifestly non-negative grouping (r - t w)^2 + (t ell/r)^2.
    """
    radial = ensemble.r - t * ensemble.w
    tangential = t * ensemble.ell / ensemble.r
    return float(np.sum(ensemble.mass * (radial**2 + tangential**2)))


def _cap_fractions(r, d, R):
    # Fraction of a uniform sphere of radius r inside the ball |x - x0| < R
    # with |x0| = d > 0: the spherical cap cos(theta) > mu.
    mu = (r * r + d * d - R * R) / (2.0 * d * r)
    return np.clip(0.5 * (1.0 - mu), 0.0, 1.0)


def concentration_mass(ensemble: Ensemble, d, R):
    """Mass inside a ball of radius R whose centre sits at distance d.

    Exact for the shell representation: each particle contributes the
    fraction of its sphere covered by the ball.  For d = 0 a shell is
    either fully inside (r < R, strict) or fully outside.
    """
    if R <= 0.0 or not np.isfinite(R):
        raise DomainError("ball radius must be positive and finite")
    if d < 0.0 or not np.isfinite(d):
        raise DomainError("centre distance must be >= 0 and finite")
    if d == 0.0:
        return float(np.sum(ensemble.mass[ensemble.r < R]))
    return float(np.sum(ensemble.mass * _cap_fractions(ensemble.r, d, R)))


def _ball_mass(r, mass, prefix, d, R):
    # concentration_mass over radii sorted increasingly: shells below
    # R - d lie wholly inside the ball, shells in [|R - d|, R + d] are
    # cut by its surface.
    i0 = np.searchsorted(r, abs(R - d), side="left")
    i1 = np.searchsorted(r, R + d, side="right")
    inside = float(prefix[i0]) if d < R else 0.0
    return inside + float(np.dot(mass[i0:i1], _cap_fractions(r[i0:i1], d, R)))


def _concentration(r, mass, prefix, total, R):
    """Q(R) and the centre distance attaining it, radii sorted increasingly.

    A shell of radius r lies wholly inside the ball for d < R - r, is
    cut by its surface for |R - r| < d < R + r, and lies outside
    otherwise.  Between consecutive breakpoints {|R - r_i|, R + r_i}
    the ball mass is therefore exactly

        C - W / (4 d) - d S / 4,   C = M_in + S0 / 2,  W = S1 - R^2 S,

    with S0, S1, S the sums of m, m r and m / r over the cut band.  It
    is concave where W > 0 and decreasing elsewhere, so its maximum on
    an interval sits at d* = sqrt(W / S) clipped to the interval.
    """
    if R <= 0.0 or not np.isfinite(R):
        raise DomainError("ball radius must be positive and finite")
    k0 = int(np.searchsorted(r, R, side="left"))
    if k0 == r.size:
        # R > r_max: a ball at the origin already contains every shell.
        return total, 0.0
    # d -> 0+: shells on the sphere |x| = R are cut exactly in half.
    k1 = int(np.searchsorted(r, R, side="right"))
    at_zero = float(prefix[k0] + 0.5 * (prefix[k1] - prefix[k0]))
    if at_zero >= total:
        return total, 0.0
    # Each shell enters the band at |R - r| and leaves it at R + r.  The
    # three runs of breakpoints (r < R reversed, r >= R, and R + r) are
    # each increasing, so the stable sort is a merge.  A shell entering
    # from inside moves half its mass out of C, one entering from
    # outside adds half, and one leaving takes its half away.
    d = np.concatenate((R - r[:k0][::-1], r[k0:] - R, R + r))
    order = np.argsort(d, kind="stable")
    d = d[order]

    def band_sums(enter, leave):
        return np.cumsum(np.concatenate((enter[:k0][::-1], enter[k0:], leave))[order])

    half = 0.5 * mass
    inv = mass / r
    w = (r - R) * (r + R) * inv
    c = prefix[k0] + band_sums(np.concatenate((-half[:k0], half[k0:])), -half)
    w = band_sums(w, -w)
    s = band_sums(inv, -inv)
    # Breakpoints at d = 0 belong to shells on |x| = R, whose W is zero:
    # their interval starts at the d -> 0+ limit already counted.  The
    # band after the last breakpoint is empty.
    j = int(np.searchsorted(d, 0.0, side="right"))
    lo, hi = d[j:-1], d[j + 1:]
    c, w, s = c[j:-1], w[j:-1], s[j:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmax/fmin map the NaN of an empty band (0 / 0) to its left end.
        centres = np.fmin(np.fmax(np.sqrt(np.maximum(w, 0.0) / s), lo), hi)
    values = c - w / (4.0 * centres) - 0.25 * centres * s
    values = np.concatenate(([at_zero], values))
    centres = np.concatenate(([0.0], centres))
    best_d = float(centres[int(np.argmax(values))])
    if best_d == 0.0:
        return min(at_zero, total), 0.0
    return min(_ball_mass(r, mass, prefix, best_d, R), total), best_d


def concentration_function(ensemble: Ensemble, R, return_center=False):
    """sup over centre positions of the mass inside a ball of radius R.

    For a spherically symmetric density the supremum over centres in
    3-space reduces to one over the centre distance d.  The ball mass
    is a closed form in d between consecutive shell breakpoints, so the
    supremum is exact: the largest value at the breakpoints and at the
    interior stationary points, re-evaluated at the winning centre with
    the direct cap sum and never above the total mass.  The tests check
    it against a brute-force breakpoint oracle, a dense scan and
    Monte-Carlo sampling.

    When shells lie exactly on the sphere |x| = R the supremum may be
    the limit d -> 0+, which counts those shells at half their mass;
    `concentration_mass` at d = 0 counts only r < R.

    With `return_center` the best centre distance is returned alongside
    the mass.
    """
    r, mass, prefix, *_ = _sorted_mass_profile(ensemble.r, ensemble.mass)
    best, best_d = _concentration(r, mass, prefix, ensemble.total_mass, float(R))
    return (best, best_d) if return_center else best


def _radial_profile(r, prefix, n_bins):
    # Bins are [e_k, e_k+1) and the last one is closed, as in np.histogram.
    n_bins = int(n_bins)
    if n_bins < 1:
        raise DomainError("need at least one bin")
    edges = np.linspace(0.0, float(r[-1]), n_bins + 1)
    idx = np.append(np.searchsorted(r, edges[:-1], side="left"), r.size)
    binned = prefix[idx[1:]] - prefix[idx[:-1]]
    volume = (FOUR_PI / 3.0) * (edges[1:] ** 3 - edges[:-1] ** 3)
    return RadialDensityProfile(edges, binned / volume)


def build_radial_profile(ensemble: Ensemble, n_bins):
    """Histogram rho(r) on uniform bins covering [0, max radius].

    The binned mass equals the total mass up to summation rounding.
    """
    r, _, prefix, *_ = _sorted_mass_profile(ensemble.r, ensemble.mass)
    return _radial_profile(r, prefix, n_bins)


def lq_norm(profile: RadialDensityProfile, q):
    """L^q norm of the binned density, midpoint rule in radius.

    ( sum_k 4 pi rbar_k^2 dr_k rho_k^q )^(1/q); for q = 1 this returns
    the binned mass up to the midpoint-rule discretisation error.
    """
    q = float(q)
    if q < 1.0:
        raise DomainError("q must be >= 1")
    edges = profile.bin_edges
    mid = 0.5 * (edges[1:] + edges[:-1])
    dr = np.diff(edges)
    total = np.sum(FOUR_PI * mid**2 * dr * profile.bin_density**q)
    return float(total ** (1.0 / q))


def galilean_shift(E, Q, M, u):
    """Energy and momentum after a boost by velocity u.

    Returns (E', Q') with Q' = Q - M u and E' = E - Q.u + (1/2) M |u|^2.
    The combination E - |Q|^2 / (2M) is invariant.
    """
    if M <= 0.0:
        raise DomainError("mass must be positive")
    Q = np.asarray(Q, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    Q_shift = Q - M * u
    E_shift = float(E - np.dot(Q, u) + 0.5 * M * float(np.dot(u, u)))
    return E_shift, Q_shift


def diagnostics_record(
    ensemble: Ensemble | RawState,
    r_grid=(),
    q_list=(),
    n_bins=None,
    profile=None,
):
    """Assemble a full DiagnosticsRecord for one snapshot.

    `r_grid` selects the ball radii for the concentration function and
    `q_list` the exponents for density norms.  `n_bins` defaults to
    ceil(sqrt(N)).  `inner_radius_shell` tracks the particles of group
    "shell" when present, otherwise the global minimum radius.
    The radii are sorted once; the field energy, every concentration
    radius and the histogram share that order.

    `run()` passes a `RawState`, whose shell selector replaces the
    group test, and the step kernel's (r_sorted, m_sorted, prefix).
    """
    t = ensemble.time
    r, mass, prefix = profile or _sorted_mass_profile(ensemble.r, ensemble.mass)[:3]
    e_kin = kinetic_energy(ensemble)
    e_pot = _field_energy(r, prefix)
    conc = tuple(
        (R, _concentration(r, mass, prefix, ensemble.total_mass, R)[0])
        for R in map(float, r_grid)
    )
    if q_list:
        if n_bins is None:
            n_bins = int(math.ceil(math.sqrt(r.size)))
        hist = _radial_profile(r, prefix, n_bins)
        norms = tuple((float(q), lq_norm(hist, q)) for q in q_list)
    else:
        norms = ()
    is_raw = isinstance(ensemble, RawState)
    shell = ensemble.shell if is_raw else _selector(ensemble.group == "shell")
    r1_shell = float(r[0]) if shell is None else float(ensemble.r[shell].min())
    return DiagnosticsRecord(
        time=t,
        energy_total=e_kin - e_pot,
        energy_kinetic=e_kin,
        energy_potential=e_pot,
        mass=ensemble.total_mass,
        variance=statistical_dispersion(ensemble),
        dilation_moment=dilation_moment(ensemble),
        conformal_moment=conformal_moment(ensemble, t),
        inner_radius=float(r[0]),
        outer_radius=float(r[-1]),
        inner_radius_shell=r1_shell,
        concentration=conc,
        lq_norms=norms,
    )
