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

from .ensemble import Ensemble, RadialDensityProfile
from .errors import DomainError

__all__ = [
    "potential_energy",
    "kinetic_energy",
    "total_energy",
    "statistical_dispersion",
    "dilation_moment",
    "conformal_moment",
    "concentration_function",
    "build_radial_profile",
    "lq_norm",
    "diagnostics_record",
]

FOUR_PI = 4.0 * math.pi

# An unchecked, uncopied state for `diagnostics_record`; `run()` sets the
# total mass, the "shell" group mask (or None) and the `_workspace` once.
RawState = namedtuple("RawState", "time r w ell mass total_mass shell work")

# A `_RadialOrder` call: radii and masses by increasing radius, the read-only
# mass prefix sums, the sorting order and whether two radii tie (or are NaN).
SortedRadii = namedtuple("SortedRadii", "r mass prefix order tied")


def _prefix_sums(m_sorted):
    """The read-only mass prefix sums: `prefix[k]` is the mass of the
    first k shells.  A run may hand one prefix on from step to step, so
    no reader may write to it."""
    prefix = np.empty(m_sorted.size + 1)
    prefix[0] = 0.0
    np.cumsum(m_sorted, out=prefix[1:])
    prefix.setflags(write=False)
    return prefix


def _scrambled(r, order=None):
    """Whether more than 1/16 of a probe of every 16th radius descends,
    the radii taken in `order` when it is given."""
    # 1/16: timed at N = 1e4-1e5, the default sort won past 1/50-1/10 descents
    probe = r[::16] if order is None else r[order[::16]]
    return 16 * np.count_nonzero(probe[1:] < probe[:-1]) > probe.size


class _RadialOrder:
    """The one sort of radii in the package, for the shells of `mass`.

    Calling it with radii r returns their `SortedRadii`; the force kernel
    and every diagnostic start from it.  Ties are broken by original
    index: the order is the stable sort's whatever path ran, and
    enclosed-mass queries use strict comparison, so coincident radii
    never see each other's mass.

    A call first finds the order.  Scrambled radii (more than 1/16 of
    the `_scrambled` probe descends: crossing shells) try the order of
    the last scrambled sort: only the shells that crossed since are out
    of place there, so unless r is still scrambled in it, its stable
    sort is cheap, and it is taken if its radii strictly increase
    (without a tie the sorting permutation is unique).  Otherwise the
    cold sort runs: the stable timsort for nearly sorted radii (a static
    core), which never read the last sort, and numpy's default SIMD
    argsort for scrambled ones, then the stable sort after a tie.

    The sorted masses and prefix are then chosen in one place.  Equal
    masses (every builder makes them so) take `mass` itself and the
    prefix built once here: equal positive masses have the same bits in
    any order.  Else the last sort's masses and prefix are kept, on
    either path, while the masses in radius order stay the same (no two
    shells of different mass swapped, as when a shell escapes a core).
    Else the masses are gathered (on the warm path from the last sorted
    masses, which it reads nearly in order) and summed.

    The last (masses, prefix, order) is kept only after scrambled radii
    and dropped at every call, so no more than one sort's arrays outlive
    a call.  A run owns one instance; nothing of it outlives the run.
    """

    def __init__(self, mass):
        self.mass = mass
        self.equal_prefix = _prefix_sums(mass) if np.all(mass == mass[0]) else None
        self._last = None

    def __call__(self, r):
        scrambled = _scrambled(r)
        # the last sort is read only for scrambled radii, and dropped either way
        last = self._last if scrambled else None
        self._last = None
        order = None
        if last is not None:
            last_mass, last_prefix, last_order = last
            if not _scrambled(r, last_order):
                r_last = r[last_order]
                local = np.argsort(r_last, kind="stable")
                r_sorted = r_last[local]
                if np.all(r_sorted[1:] > r_sorted[:-1]):
                    order, tied, masses, index = last_order[local], False, last_mass, local
        if order is None:
            order = np.argsort(r, kind=None if scrambled else "stable")
            r_sorted = r[order]
            tied = not np.all(r_sorted[1:] > r_sorted[:-1])
            if tied and scrambled:
                order = np.argsort(r, kind="stable")
                r_sorted = r[order]
            masses, index = self.mass, order
        if self.equal_prefix is not None:
            m_sorted, prefix = self.mass, self.equal_prefix
        else:
            m_sorted = masses[index]
            if last is not None and np.array_equal(m_sorted, last_mass):
                m_sorted, prefix = last_mass, last_prefix
            else:
                prefix = _prefix_sums(m_sorted)
        if scrambled:
            self._last = m_sorted, prefix, order
        return SortedRadii(r_sorted, m_sorted, prefix, order, tied)


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
    r_sorted, _, prefix, *_ = _RadialOrder(ensemble.mass)(ensemble.r)
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


def _cap_fractions(r, d, R, out, tmp):
    # Fraction of a uniform sphere of radius r inside the ball |x - x0| < R
    # with |x0| = d > 0, the spherical cap cos(theta) > mu, written to
    # `out`; `tmp` is scratch of the same length.
    np.subtract(np.add(np.multiply(r, r, out=out), d * d, out=out), R * R, out=out)
    np.divide(out, np.multiply(2.0 * d, r, out=tmp), out=out)  # mu
    np.multiply(0.5, np.subtract(1.0, out, out=out), out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _ball_mass(r, mass, prefix, d, R, work):
    # Mass of the ball over radii sorted increasingly: shells below
    # R - d lie wholly inside the ball, shells in [|R - d|, R + d] are
    # cut by its surface.  `work` is a scratch row of 2N floats.
    i0 = np.searchsorted(r, abs(R - d), side="left")
    i1 = np.searchsorted(r, R + d, side="right")
    inside = float(prefix[i0]) if d < R else 0.0
    cut = i1 - i0
    caps = _cap_fractions(r[i0:i1], d, R, work[:cut], work[r.size:r.size + cut])
    return inside + float(np.dot(mass[i0:i1], caps))


def _workspace(n):
    """Scratch for `_concentration` on up to n shells: six rows of 2n
    floats (12 per shell).  Row 0 holds a record's `_shell_terms`; rows
    1-5 are rewritten by every radius."""
    return np.empty((6, 2 * n))


def _shell_terms(r, mass, work):
    """m / 2 and m / r of each sorted shell, written to row 0 of `work`:
    the band contributions that do not depend on the ball radius."""
    n = r.size
    return np.multiply(0.5, mass, out=work[0, :n]), np.divide(mass, r, out=work[0, n:2 * n])


def _concentration(r, mass, prefix, total, R, terms, work):
    """Q(R) and the centre distance attaining it, radii sorted increasingly.

    A shell of radius r lies wholly inside the ball for d < R - r, is
    cut by its surface for |R - r| < d < R + r, and lies outside
    otherwise.  Between consecutive breakpoints {|R - r_i|, R + r_i}
    the ball mass is therefore exactly

        C - W / (4 d) - d S / 4,   C = M_in + S0 / 2,  W = S1 - R^2 S,

    with S0, S1, S the sums of m, m r and m / r over the cut band.  It
    is concave where W > 0 and decreasing elsewhere, so its maximum on
    an interval sits at d* = sqrt(W / S) clipped to the interval.

    `terms` is the record's (m / 2, m / r) from `_shell_terms` and
    `work` its `_workspace`: the breakpoints, band sums, centres and
    values are written into rows 1-5, so the one allocation of a call
    is the argsort index of the 2N breakpoints (16 bytes per shell).
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
    n = r.size
    half, inv = terms
    row, d, c, w, s = work[1:, :2 * n]
    # Each shell enters the band at |R - r| and leaves it at R + r.  The
    # three runs of breakpoints (r < R reversed, r >= R, and R + r) are
    # each increasing, so the stable sort is a merge.  A shell entering
    # from inside moves half its mass out of C, one entering from
    # outside adds half, and one leaving takes its half away.
    np.subtract(R, r[:k0][::-1], out=row[:k0])
    np.subtract(r[k0:], R, out=row[k0:n])
    np.add(R, r, out=row[n:])
    order = np.argsort(row, kind="stable")
    # mode="clip": with the default "raise", take buffers `out` afresh
    np.take(row, order, out=d, mode="clip")

    def run_order(enter):
        # entering contributions in the order of the first two runs
        row[:k0] = enter[:k0][::-1]
        row[k0:n] = enter[k0:]

    def band_sums(leave, out):
        np.negative(leave, out=row[n:])
        np.take(row, order, out=out, mode="clip")
        return np.cumsum(out, out=out)

    run_order(half)
    np.negative(row[:k0], out=row[:k0])
    np.add(prefix[k0], band_sums(half, c), out=c)
    # each shell's W term (r - R)(r + R) m / r, built where `leave` goes
    shell_w = np.subtract(r, R, out=row[n:])
    np.multiply(shell_w, np.add(r, R, out=row[:n]), out=shell_w)
    run_order(np.multiply(shell_w, inv, out=shell_w))
    band_sums(shell_w, w)
    run_order(inv)
    band_sums(inv, s)
    # Breakpoints at d = 0 belong to shells on |x| = R, whose W is zero:
    # their interval starts at the d -> 0+ limit already counted.  The
    # band after the last breakpoint is empty.
    j = int(np.searchsorted(d, 0.0, side="right"))
    m = 2 * n - 1 - j
    lo, hi = d[j:-1], d[j + 1:]
    c, w, s = c[j:-1], w[j:-1], s[j:-1]
    centres, scratch = row[:m], d[:m]
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmax/fmin map the NaN of an empty band (0 / 0) to its left end.
        np.divide(np.maximum(w, 0.0, out=centres), s, out=centres)
        np.fmin(np.fmax(np.sqrt(centres, out=centres), lo, out=centres), hi, out=centres)
    # values = c - w / (4 centres) - 0.25 centres s, written over c; lo
    # and hi are spent, so their row is the scratch
    np.divide(w, np.multiply(4.0, centres, out=scratch), out=scratch)
    np.subtract(c, scratch, out=c)
    np.multiply(np.multiply(0.25, centres, out=scratch), s, out=scratch)
    np.subtract(c, scratch, out=c)
    # The first maximum of [at_zero, *values] wins, so a tie (or no band
    # at all) goes to d = 0; a NaN value wins, as argmax would pick it.
    i = int(np.argmax(c)) if m else 0
    if not m or c[i] <= at_zero:
        return min(at_zero, total), 0.0
    best_d = float(centres[i])
    return min(_ball_mass(r, mass, prefix, best_d, R, row), total), best_d


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
    the ball at d = 0 itself holds only the shells with r < R.

    With `return_center` the best centre distance is returned alongside
    the mass.
    """
    r, mass, prefix, *_ = _RadialOrder(ensemble.mass)(ensemble.r)
    work = _workspace(r.size)
    best, best_d = _concentration(r, mass, prefix, ensemble.total_mass, float(R),
                                  _shell_terms(r, mass, work), work)
    return (best, best_d) if return_center else best


def _radial_profile(r, prefix, n_bins):
    # Bins are [e_k, e_k+1) and the last one is closed, as in np.histogram.
    # A bool or a fractional count is refused, as a config file refuses it.
    counts = not isinstance(n_bins, (bool, np.bool_)) and 1 <= n_bins < math.inf
    if not (counts and n_bins == int(n_bins)):
        raise DomainError(f"need a whole, finite number of bins, at least one: {n_bins!r}")
    n_bins = int(n_bins)
    edges = np.linspace(0.0, float(r[-1]), n_bins + 1)
    idx = np.append(np.searchsorted(r, edges[:-1], side="left"), r.size)
    binned = prefix[idx[1:]] - prefix[idx[:-1]]
    volume = (FOUR_PI / 3.0) * (edges[1:] ** 3 - edges[:-1] ** 3)
    return RadialDensityProfile(edges, binned / volume)


def build_radial_profile(ensemble: Ensemble, n_bins):
    """Histogram rho(r) on uniform bins covering [0, max radius].

    The binned mass equals the total mass up to summation rounding.
    """
    r, _, prefix, *_ = _RadialOrder(ensemble.mass)(ensemble.r)
    return _radial_profile(r, prefix, n_bins)


def lq_norm(profile: RadialDensityProfile, q):
    """L^q norm of the binned density, midpoint rule in radius.

    ( sum_k 4 pi rbar_k^2 dr_k rho_k^q )^(1/q); for q = 1 this returns
    the binned mass up to the midpoint-rule discretisation error.
    """
    q = float(q)
    if not 1.0 <= q < math.inf:
        raise DomainError("q must be >= 1 and finite")
    edges = profile.bin_edges
    mid = 0.5 * (edges[1:] + edges[:-1])
    dr = np.diff(edges)
    total = np.sum(FOUR_PI * mid**2 * dr * profile.bin_density**q)
    return float(total ** (1.0 / q))


def diagnostics_record(
    ensemble: Ensemble | RawState,
    r_grid=(),
    q_list=(),
    n_bins=None,
    profile=None,
):
    """The diagnostics of one snapshot as one float64 row, its cells in
    the order `csvio.diagnostics_header(r_grid, q_list)` names them.

    `r_grid` selects the ball radii for the concentration function and
    `q_list` the exponents for density norms.  `n_bins` defaults to
    ceil(sqrt(N)).  The `R1_shell` cell tracks the particles of group
    "shell" when present, otherwise the global minimum radius.
    The radii are sorted once; the field energy, every concentration
    radius and the histogram share that order.  The radii share one
    concentration `_workspace` and the shell terms m / 2 and m / r,
    computed once per record; an `Ensemble` gets a workspace for this
    call.

    `run()` passes a `RawState`, whose shell mask replaces the group
    test and whose workspace lives as long as the run, and the step
    kernel's `SortedRadii` as `profile`; it writes the row into its
    table.
    """
    t = ensemble.time
    is_raw = isinstance(ensemble, RawState)
    profile = profile or _RadialOrder(ensemble.mass)(ensemble.r)
    r, mass, prefix = profile.r, profile.mass, profile.prefix
    e_kin = kinetic_energy(ensemble)
    e_pot = _field_energy(r, prefix)
    radii = tuple(map(float, r_grid))
    conc = ()
    if radii:
        work = ensemble.work if is_raw else _workspace(r.size)
        terms = _shell_terms(r, mass, work)
        conc = [_concentration(r, mass, prefix, ensemble.total_mass, R, terms, work)[0]
                for R in radii]
    norms = ()
    if q_list:
        if n_bins is None:
            n_bins = int(math.ceil(math.sqrt(r.size)))
        hist = _radial_profile(r, prefix, n_bins)
        norms = [lq_norm(hist, q) for q in q_list]
    shell = ensemble.shell if is_raw else ensemble.group == "shell"
    r1_shell = r[0] if shell is None or not shell.any() else ensemble.r[shell].min()
    return np.array([
        t, e_kin - e_pot, e_kin, e_pot, ensemble.total_mass,
        statistical_dispersion(ensemble), dilation_moment(ensemble),
        conformal_moment(ensemble, t), r[0], r[-1], r1_shell, *conc, *norms,
    ], np.float64)
