"""Time integration of the shell-particle characteristic system.

Each shell obeys

    r' = w,    w' = ell^2 / r^3 - M(<r) / (4 pi r^2),    ell' = 0,

with M(<r) the mass strictly inside r (a shell feels no self-force).
The integrator is kick-drift-kick leapfrog with one force evaluation
per step.  The force takes the order and mass prefix of the run's
`diagnostics._RadialOrder` (whose docstring describes the one sort of
radii in the package), keeps the exclusive prefix (equal radii share
the prefix of their first member, found by a linear scan after a tie)
and scatters it back through the order; the particle order is never
changed.  Shell crossings inside a step are not sub-resolved; their
effect vanishes with the step size and is covered by the energy drift
gate in the tests.

The step control suggests safety * min(r/|w|, sqrt(r/|a|)) within
[dt_min, output_cadence].  A force time scale safety * sqrt(r/|a|)
below dt_min raises StiffnessError: the run stops at that time rather
than step on at dt_min with a force it cannot resolve.  A scale is
computed over all shells only when bounds from min/max reductions leave
it able to set the step; dt keeps its bits (see `_raw_adaptive_dt`).

Purely radial shells (ell = 0) that drift through the centre are
reflected: r -> |r|, w -> -w.  A centre crossing with ell > 0 means the
step was too large; the step is rejected and retried with half the
step until it succeeds or the step underflows.

`run()` walks one sorted list of output times: the record times of
`_record_times` (t0 + k * cadence up to t_end, then t_end), which the
analytic Kurth tables share, merged with the snapshot times.  It steps
towards each and lands on it exactly.  A record reads the raw arrays
and the order the step's kernel sorted, and writes its row into the
run's one table; only snapshots are `Ensemble`s.

Records overlap the steps: `run()` hands each record to one worker
thread and steps on.  It waits for record k before it hands over record
k+1, so one record is in flight, owning the concentration workspace and
holding one state.  A record reads r, w and the sort's arrays while the
next steps run, so no step may write in place to r, w, accel or the
arrays of `_RadialOrder` (a step makes new ones; the prefix is
read-only).  A row is a pure function of its state, so the table's bytes
do not depend on the thread.  numpy releases the interpreter lock in the
sorts, gathers, prefix sums and large elementwise loops that a record
spends its time in; on one CPU the overlap costs a few per cent.
"""

from __future__ import annotations

import contextvars
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .csvio import FIXED_COLUMNS, ParsedRun, table_of
from .diagnostics import RawState, _RadialOrder, _workspace, diagnostics_record
from .ensemble import Ensemble
from .errors import DomainError, NumericalError, StiffnessError

__all__ = [
    "IntegratorConfig",
    "TrajectorySink",
    "acceleration",
    "step",
    "run",
    "group_stats",
]

FOUR_PI = 4.0 * math.pi

_TINY = np.finfo(np.float64).tiny

# What the kernel reads of a state that no step changes: ell, ell^2 and
# the `_RadialOrder` of the masses.  `run()`, `step()` and
# `acceleration()` build it once from their input and pass it down;
# nothing of it outlives the call.
_Invariants = namedtuple("_Invariants", "ell ell2 sort")


def _invariants(ell, mass):
    return _Invariants(ell, ell * ell, _RadialOrder(mass))


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size and output control for a run.

    `dt_initial` caps the very first step and sets the underflow
    threshold dt_min = 1e-12 * dt_initial.  `dt_safety` scales the
    adaptive step estimate.  Records are emitted every
    `output_cadence`; the step is truncated to land on record and
    snapshot times exactly.
    """

    t_end: float
    output_cadence: float
    dt_initial: float = 0.1
    dt_safety: float = 0.1
    reflection_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt_initial < math.inf:
            raise DomainError("dt_initial must be positive and finite")
        if not 0.0 < self.dt_safety <= 1.0:
            raise DomainError("dt_safety must be in (0, 1]")
        if not 0.0 < self.output_cadence < math.inf:
            raise DomainError("output_cadence must be positive and finite")
        if not 0.0 <= self.t_end < math.inf:
            raise DomainError("t_end must be >= 0 and finite")

    @property
    def dt_min(self):
        return 1.0e-12 * self.dt_initial


@dataclass
class TrajectorySink:
    """Run output: the diagnostics table plus optional snapshots.

    `records` is the run's `csvio.ParsedRun`, one row per record time;
    every column is a contiguous float64 array, as `read_diagnostics`
    builds them.  `snapshots` holds the `Ensemble` at each requested
    snapshot time; `group_stats` reduces one to per-group scalars.
    """

    records: ParsedRun
    snapshots: list = field(default_factory=list)


def _raw_acceleration(r, inv):
    """The acceleration at radii r, with ell and the masses of the
    `_Invariants` inv, and the `SortedRadii` its sort returned."""
    profile = inv.sort(r)
    # exclusive prefix in radius order: the mass of every earlier shell
    prefix = profile.prefix[:-1]
    if profile.tied:
        # equal radii take the prefix of their group's first member
        first = np.arange(r.size)
        first[1:][profile.r[1:] == profile.r[:-1]] = 0
        np.maximum.accumulate(first, out=first)
        prefix = prefix[first]
    enclosed = np.empty_like(prefix)
    enclosed[profile.order] = prefix
    # ell^2/((r r) r) - M/((4 pi r) r) with two temporaries, not eight
    den = FOUR_PI * r
    enclosed /= np.multiply(den, r, out=den)
    accel = np.divide(inv.ell2, np.multiply(np.multiply(r, r, out=den), r, out=den))
    accel -= enclosed
    return accel, profile


def acceleration(ensemble: Ensemble):
    """Per-particle radial acceleration ell^2/r^3 - M(<r)/(4 pi r^2)."""
    return _raw_acceleration(ensemble.r, _invariants(ensemble.ell, ensemble.mass))[0]


# How many innermost shells the force scale is first taken over.  The
# smallest scale is almost always at the centre: with 64, the inputs of
# benchmark seed 1 certify it at 139 of 139 core-dynamics steps and 302
# of 338 core-shell steps (290, 323 and 334 with 16, 256 and 1024).
_INNER = 64


def _raw_adaptive_dt(r, w, accel, config, t, profile=None):
    """Deterministic step suggestion from the state at time t.

    dt = safety * min over particles of min(r/|w|, sqrt(r/|a|)),
    clamped to [dt_min, output_cadence].  A force time scale
    safety * sqrt(r/|a|) below dt_min, 0 for an infinite force included,
    raises StiffnessError at t: no admissible step resolves the force.
    The kinematic scale r/|w| is clamped: it shrinks geometrically as a
    shell nears the centre, which only a step of dt_min reaches, to be
    reflected or rejected there.  NaN is returned as is.

    With the `SortedRadii` profile of r, a scale is computed over all
    shells only when it can set the step.  Every shell past the `_INNER`
    innermost has r >= r_(K) = profile.r[_INNER] and |a| <= max|a|, so when
    r_(K) / (max|a| + eps) is no smaller than the least r/(|a| + eps) of
    those innermost, that least value is the minimum over all.  The
    force scale cannot set the step when sqrt(min r / (max|a| + eps)) is
    at least the kinematic scale and safety times it reaches dt_min; the
    kinematic scale cannot when min r / (max|w| + eps) is at least the
    force scale.  Each bound compares the expressions of the full
    formula, and rounding is monotone, so dt keeps its bits; a NaN makes
    every bound fail.
    """
    # sqrt of the min is the min of the sqrts; np.minimum keeps a NaN
    eps = 1.0e-30
    a_max = max(accel.max(), -accel.min())
    r_min = r.min() if profile is None else profile.r[0]
    dt_dyn = None
    # a NaN radius sorts last, where the test fails
    if profile is not None and r.size > _INNER and profile.r[-1] < math.inf:
        inner = profile.order[:_INNER]
        least = np.min(r[inner] / (np.abs(accel[inner]) + eps))
        if least <= profile.r[_INNER] / (a_max + eps):
            dt_dyn = np.sqrt(least)
    if dt_dyn is not None and r_min / (max(w.max(), -w.min()) + eps) >= dt_dyn:
        dt_kin = dt_dyn  # the kinematic scale is no smaller
    else:
        dt_kin = np.min(r / (np.abs(w) + eps))
        if dt_dyn is None:
            floor = np.sqrt(r_min / (a_max + eps))
            if floor >= dt_kin and config.dt_safety * float(floor) >= config.dt_min:
                # the force scale is no smaller, and too large to raise
                return min(max(config.dt_safety * float(dt_kin), config.dt_min),
                           config.output_cadence)
            dt_dyn = np.sqrt(np.min(r / (np.abs(accel) + eps)))
    force_dt = config.dt_safety * float(dt_dyn)
    if force_dt < config.dt_min:
        raise StiffnessError(
            f"force time scale {force_dt:.3g} below dt_min = {config.dt_min:.3g}", time=t
        )
    dt = config.dt_safety * float(np.minimum(dt_kin, dt_dyn))
    return min(max(dt, config.dt_min), config.output_cadence)


def _attempt_step(r, w, inv, accel, dt, reflection_enabled):
    """One kick-drift-kick attempt.  Returns None if the step must be
    rejected (centre crossing of a particle that cannot be reflected),
    else (r, w, accel, profile).  w_half and r_new are fresh arrays, so
    the closing kick is added into w_half in place."""
    h = 0.5 * dt
    w_half = np.multiply(h, accel)
    w_half += w
    r_new = np.multiply(dt, w_half)
    r_new += r
    # a positive minimum rules out a crossing with no mask; a NaN fails
    # the test but is no crossing
    if not r_new.min() > 0.0 and np.any(crossed := r_new <= 0.0):
        radial = inv.ell == 0.0
        if not reflection_enabled or np.any(crossed & ~radial):
            return None
        w_half = np.where(crossed, -w_half, w_half)
        r_new = np.where(crossed, np.maximum(np.abs(r_new), _TINY), r_new)
    accel_new, profile = _raw_acceleration(r_new, inv)
    w_half += np.multiply(h, accel_new)
    return r_new, w_half, accel_new, profile


def _accepted_step(r, w, inv, accel, dt, reflection_enabled, dt_min, t):
    """Attempt a step of dt, halving it until an attempt is accepted.

    Returns (r, w, accel, profile, dt_taken).  A half below `dt_min`
    raises StiffnessError at time t.
    """
    while True:
        result = _attempt_step(r, w, inv, accel, dt, reflection_enabled)
        if result is not None:
            return (*result, dt)
        dt *= 0.5
        if dt < dt_min:
            raise StiffnessError(
                "step size underflow while resolving a centre crossing",
                time=t,
            )


def _state(t, r, w, ell, mass, group):
    """The Ensemble at time t.  An invalid state (a non-finite value, a
    radius at 0) raises NumericalError at t, not the DomainError of a
    bad argument."""
    try:
        return Ensemble(t, r, w, ell, mass, group)
    except DomainError as exc:
        raise NumericalError(f"invalid state: {exc}", time=t) from exc


def step(ensemble: Ensemble, dt, reflection_enabled=True, dt_min=None):
    """Advance the ensemble by exactly dt, subdividing on rejection.

    A rejected sub-step is retried at half the size, and later sub-steps
    keep the smaller size; halves below `dt_min` (default 1e-12 * dt)
    raise StiffnessError, a non-finite result raises NumericalError.
    `dt` and `dt_min` must be positive and finite: at dt_min = 0 the
    halving would reach a zero-length step and never finish.
    """
    if dt_min is None:
        dt_min = 1.0e-12 * dt
    if not (0.0 < dt < math.inf and 0.0 < dt_min < math.inf):
        raise DomainError("dt and dt_min must be positive and finite")
    r, w, ell, mass = ensemble.r, ensemble.w, ensemble.ell, ensemble.mass
    inv = _invariants(ell, mass)
    accel = _raw_acceleration(r, inv)[0]
    t = ensemble.time
    remaining = dt
    h = dt
    while remaining > 0.0:
        r, w, accel, _, h = _accepted_step(
            r, w, inv, accel, min(h, remaining), reflection_enabled, dt_min, t,
        )
        t += h
        remaining -= h
    return _state(ensemble.time + dt, r, w, ell, mass, ensemble.group)


def group_stats(ensemble: Ensemble):
    """Per-group minimum radius and radial momentum, mass, variance and
    kinetic energy of a snapshot, keyed by each non-empty label."""
    masks = {str(name): ensemble.group == name
             for name in np.unique(ensemble.group) if name != ""}
    return _group_stats(ensemble.r, ensemble.w, ensemble.ell, ensemble.mass, masks)


def _group_stats(r, w, ell, mass, masks):
    stats = {}
    for name, mask in masks.items():
        gr, gw, gmass = r[mask], w[mask], mass[mask]
        gm = float(np.sum(gmass))
        tang = ell[mask] / gr
        stats[name] = {
            "min_r": float(gr.min()),
            "min_w": float(gw.min()),
            "mass": gm,
            "variance": float(np.sum(gmass * gr**2) / gm),
            "kinetic": float(0.5 * np.sum(gmass * (gw**2 + tang**2))),
        }
    return stats


def _record_times(t0, t_end, cadence):
    """Record times t0 + k * cadence up to t_end, then t_end itself
    unless the last multiple lies within 1e-9 * cadence below it.

    Raises DomainError unless 0 < cadence < inf and
    -inf < t0 <= t_end < inf.  The count n of multiples is fixed by the
    test t0 + k * cadence <= t_end itself, which holds for k = 0 and,
    rounding being monotone, for every k below n and none above: the
    quotient (t_end - t0) / cadence only starts the search.
    """
    if not 0.0 < cadence < math.inf:
        raise DomainError("output_cadence must be positive and finite")
    if not -math.inf < t0 <= t_end < math.inf:
        raise DomainError("t_end must be finite and not precede the start time")
    n = int((t_end - t0) / cadence) + 1
    while n > 1 and t0 + (n - 1) * cadence > t_end:
        n -= 1
    while t0 + n * cadence <= t_end:
        n += 1
    times = t0 + np.arange(n) * cadence
    if times[-1] < t_end - 1.0e-9 * cadence:
        times = np.append(times, t_end)
    return times


def run(
    ensemble: Ensemble,
    config: IntegratorConfig,
    r_grid=(),
    q_list=(),
    n_bins=None,
    snapshot_times=(),
) -> TrajectorySink:
    """Integrate to t_end, writing a row of the diagnostics table at
    each `_record_times` time and a snapshot at each requested time.

    The two kinds of output time are walked as one sorted list, a
    snapshot before a record at the same time.  For each target the
    loop steps with min(dt, target - t) until it is within 1e-9 *
    output_cadence of the target, then sets t to the target and emits,
    so output times are exact.  Deterministic given (ensemble, config):
    the step sequence depends only on the state, and every reduction
    uses a fixed association order.  A non-finite step size or state
    raises NumericalError at the last finite time rather than ending
    the table early; the state is checked on the calling thread.

    Records run on a one-thread executor that ends with the call (see
    the module docstring), each in a copy of the caller's `contextvars`
    context, so a caller's `np.errstate` holds there.  When the loop
    raises with a record in flight, that record is waited for first, and
    its error, due before the loop's, is the one raised.
    """
    t0 = ensemble.time
    cadence = config.output_cadence
    snap_times = [float(s) for s in snapshot_times]
    if not all(t0 <= s <= config.t_end for s in snap_times):
        raise DomainError("snapshot times must lie within [t0, t_end]")
    record_times = _record_times(t0, config.t_end, cadence)
    # each target carries its table column, a snapshot -1, which sorts
    # first: a snapshot precedes a record at the same time
    targets = sorted([(s, -1) for s in snap_times]
                     + [(t, k) for k, t in enumerate(record_times.tolist())])

    r, w, ell, mass = ensemble.r, ensemble.w, ensemble.ell, ensemble.mass
    group = ensemble.group
    shell = group == "shell"
    shell = shell if shell.any() else None
    work = _workspace(r.size) if len(r_grid) else None
    # one row per column, so each table column is a contiguous row
    block = np.empty((len(FIXED_COLUMNS) + len(r_grid) + len(q_list), len(record_times)))
    sink = TrajectorySink(table_of(block, r_grid, q_list))
    inv = _invariants(ell, mass)
    accel, profile = _raw_acceleration(r, inv)
    dt_cap = config.dt_initial  # caps the first step only
    time_tol = 1.0e-9 * cadence
    t = t0
    pending = None  # the record in flight
    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for target, k in targets:
                while t < target - time_tol:
                    dt = _raw_adaptive_dt(r, w, accel, config, t, profile)
                    if not math.isfinite(dt):
                        raise NumericalError("non-finite step size", time=t)
                    profile = None  # free the last sort; `inv.sort` keeps what it reuses
                    r, w, accel, profile, dt = _accepted_step(
                        r, w, inv, accel, min(dt, dt_cap, target - t),
                        config.reflection_enabled, config.dt_min, t,
                    )
                    dt_cap = math.inf
                    t += dt
                t = target
                if k < 0:
                    sink.snapshots.append(_state(t, r, w, ell, mass, group))
                    continue
                # ell and mass never change; NaN radii sort last
                if not (profile.r[0] > 0.0 and profile.r[-1] < math.inf
                        and np.isfinite(w).all()):
                    cause = DomainError("radii must be positive and finite, w finite")
                    raise NumericalError(f"invalid state: {cause}", time=t) from cause
                raw = RawState(t, r, w, ell, mass, ensemble.total_mass, shell, work)
                # one record in flight: it owns `work` and holds one state,
                # but no order, which the next step's sort may free
                done, pending = pending, None
                if done is not None:
                    done.result()
                pending = worker.submit(
                    contextvars.copy_context().run, _record, block, k, raw,
                    r_grid, q_list, n_bins, profile._replace(order=None),
                )
        finally:
            # a record in flight was due before whatever the loop raised
            if pending is not None:
                pending.result()
    return sink


def _record(block, k, raw, r_grid, q_list, n_bins, profile):
    """Write the row of the `RawState` raw into column k of `block`."""
    # the module global, looked up per call, so a wrapper of it sees the call
    block[:, k] = diagnostics_record(
        raw, r_grid=r_grid, q_list=q_list, n_bins=n_bins, profile=profile
    )


def energy_drift(sink: TrajectorySink):
    """Max relative deviation of E over the records (0 for one record)."""
    energies = sink.records.energy
    scale = max(abs(energies[0]), 1.0e-300)
    return float(np.max(np.abs(energies - energies[0])) / scale)
