import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from vpshell import (
    DomainError,
    Ensemble,
    IntegratorConfig,
    NumericalError,
    StiffnessError,
    acceleration,
    group_stats,
    step,
)
from vpshell import (CoreSpec, ShellSpec, build_circular_core, build_shell, build_shell_plus_core,
                     classify, diagnostics_record)
from vpshell.csvio import normalised, read_diagnostics, write_diagnostics
import vpshell.diagnostics as diagnostics
import vpshell.dynamics as dynamics
from vpshell.dynamics import _raw_adaptive_dt, _record_times, energy_drift, run
from vpshell.kurth import phi_closed_form
from conftest import (FIELDS, assert_tables_bitwise_equal, general_order, homologous_ball,
                      stable_sort, table_columns)

FOUR_PI = 4.0 * math.pi


def circular_ell(r, enclosed):
    return math.sqrt(r * enclosed / FOUR_PI)


def searchsorted_acceleration(r, ell, mass):
    """The earlier kernel: M(<r) by binary search in the sorted radii."""
    order = np.argsort(r, kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(mass[order])))
    enclosed = prefix[np.searchsorted(r[order], r, side="left")]
    return (ell * ell) / (r * r * r) - enclosed / (FOUR_PI * r * r)


def two_array_dt(r, w, accel, config):
    """The earlier step control: the per-particle min of r/|w| and
    sqrt(r/|a|), then the min over particles; a positive force time
    scale below dt_min raises."""
    eps = 1.0e-30
    dt_kin = r / (np.abs(w) + eps)
    dt_dyn = np.sqrt(r / (np.abs(accel) + eps))
    if 0.0 < config.dt_safety * float(np.min(dt_dyn)) < config.dt_min:
        raise StiffnessError("force time scale below dt_min")
    dt = config.dt_safety * float(np.min(np.minimum(dt_kin, dt_dyn)))
    return min(max(dt, config.dt_min), config.output_cadence)


def kernel(e):
    """The acceleration of e and the profile of its sort, as run() holds
    them."""
    return dynamics._raw_acceleration(e.r, dynamics._invariants(e.ell, e.mass))


def watched(a, passes, name):
    """a as an array that appends name to `passes` at each elementwise
    ufunc call over all of it; reductions and calls over a gathered part
    are not noted."""
    size = a.size

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if method == "__call__" and self.size == size:
                passes.append(name)
            inputs = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    return a.view(Watched)


def checked_passes(r, w, accel, config, profile=None):
    """The arrays, of "accel" and "w", that the step control passes over
    in full given the profile (by default the sort of r), after checking
    its dt with and without the profile against the two-array formula."""
    r, w, accel = (np.asarray(a, dtype=np.float64) for a in (r, w, accel))
    if profile is None:
        profile = diagnostics._RadialOrder(np.ones(r.size))(r)
    want = repr(two_array_dt(r, w, accel, config))
    assert repr(_raw_adaptive_dt(r, w, accel, config, 0.0)) == want
    passes = []
    got = _raw_adaptive_dt(r, watched(w, passes, "w"), watched(accel, passes, "accel"),
                           config, 0.0, profile)
    assert repr(got) == want
    return sorted(set(passes))


def loop_record_times(t0, t_end, cadence):
    """The earlier record times: a Python loop over k."""
    times = []
    while (t := t0 + len(times) * cadence) <= t_end:
        times.append(t)
    if times[-1] < t_end - 1.0e-9 * cadence:
        times.append(t_end)
    return times


def mask_group_stats(ens):
    """The earlier group stats of a snapshot: one boolean mask per label,
    gathered again for every quantity."""
    stats = {}
    for name in np.unique(ens.group):
        if name == "":
            continue
        mask = ens.group == name
        r, w, ell, mass = ens.r, ens.w, ens.ell, ens.mass
        gm = float(np.sum(mass[mask]))
        tang = ell[mask] / r[mask]
        stats[str(name)] = {
            "min_r": float(r[mask].min()),
            "min_w": float(w[mask].min()),
            "mass": gm,
            "variance": float(np.sum(mass[mask] * r[mask] ** 2) / gm),
            "kinetic": float(0.5 * np.sum(mass[mask] * (w[mask] ** 2 + tang**2))),
        }
    return stats


def tied_ensembles(seed, count=200, n_max=200):
    """Seeded ensembles; every second one copies radii onto others, so
    tie groups of two or more equal radii occur."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, n_max + 1))
        r = 10.0 ** rng.uniform(-1.0, 1.0, n)
        if i % 2:
            k = int(rng.integers(1, n + 1))
            r[rng.integers(0, n, k)] = r[rng.integers(0, n, k)]
        ell = np.where(rng.random(n) < 0.2, 0.0, np.abs(rng.normal(0.0, 1.0, n)))
        yield Ensemble(0.0, r, rng.normal(0.0, 1.0, n), ell, rng.uniform(0.1, 1.0, n))


class TestAcceleration:
    def test_lone_particle_no_self_force(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        assert acceleration(e)[0] == 0.0

    def test_outer_particle_feels_interior_mass(self):
        # bound M / (4 pi r^2) attained by a purely radial outer shell
        e = Ensemble(0.0, [0.5, 2.0], [0.0, 0.0], [0.0, 0.0], [3.0, 1e-9])
        assert acceleration(e)[1] == pytest.approx(-3.0 / (FOUR_PI * 4.0), rel=1e-12)

    def test_circular_orbit_balances(self):
        ell = circular_ell(2.0, 3.0)
        e = Ensemble(0.0, [0.5, 2.0], [0.0, 0.0], [0.0, ell], [3.0, 1e-9])
        assert acceleration(e)[1] == pytest.approx(0.0, abs=1e-15)

    def test_coincident_radii_see_only_smaller(self):
        e = Ensemble(0.0, [1.0, 1.0, 0.5], [0, 0, 0], [0, 0, 0], [1.0, 1.0, 2.0])
        acc = acceleration(e)
        expected = -2.0 / (FOUR_PI * 1.0)
        assert acc[0] == pytest.approx(expected)
        assert acc[1] == pytest.approx(expected)

    def test_matches_brute_force_enclosed_mass(self):
        # O(N^2) oracle: M(<r_i) is the correctly rounded sum of the
        # masses strictly inside r_i
        ties = 0
        for e in tied_ensembles(5):
            r, ell, mass = e.r, e.ell, e.mass
            ties += r.size - np.unique(r).size
            enclosed = np.array([math.fsum(mass[r < ri]) for ri in r])
            centrifugal = ell * ell / (r * r * r)
            gravity = enclosed / (FOUR_PI * r * r)
            scale = centrifugal + gravity
            err = np.abs(acceleration(e) - (centrifugal - gravity))
            assert np.all(err <= 1e-14 * scale)
        assert ties > 1000

    def test_bitwise_equal_to_searchsorted_kernel(self):
        for e in tied_ensembles(6):
            old = searchsorted_acceleration(e.r, e.ell, e.mass)
            assert np.array_equal(acceleration(e).view(np.int64), old.view(np.int64))

    def test_equal_masses_bitwise_equal_to_searchsorted_kernel(self):
        # equal masses take the prefix built once; all equal but one, the
        # gather and cumsum of every call
        for i, e in enumerate(tied_ensembles(12, count=60)):
            mass = np.full(e.n, 1.0 / 3.0)
            odd = i % 2 and e.n > 1
            if odd:
                mass[i % e.n] = 0.5
            assert (diagnostics._RadialOrder(mass).equal_prefix is None) == odd
            old = searchsorted_acceleration(e.r, e.ell, mass)
            got = acceleration(Ensemble(0.0, e.r, e.w, e.ell, mass))
            assert got.tobytes() == old.tobytes()

    def test_permutation_equivariant(self):
        # with distinct radii the summation order is the radius order,
        # so permuting the particles permutes the result bitwise; within
        # a tie group the masses are summed in input order, which moves
        # the prefix of larger radii by roundoff only
        rng = np.random.default_rng(7)
        for e in tied_ensembles(8):
            perm = rng.permutation(e.n)
            shuffled = Ensemble(0.0, e.r[perm], e.w[perm], e.ell[perm], e.mass[perm])
            got = acceleration(shuffled)
            want = acceleration(e)[perm]
            if np.unique(e.r).size == e.n:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            else:
                scale = e.ell[perm] ** 2 / e.r[perm] ** 3 + (
                    e.total_mass / (FOUR_PI * e.r[perm] ** 2)
                )
                assert np.all(np.abs(got - want) <= 1e-14 * scale)


class TestStep:
    def test_free_particle_exact(self):
        e = Ensemble(0.0, [1.0], [0.25], [0.0], [1.0])
        out = step(e, 2.0)
        assert out.r[0] == pytest.approx(1.5, rel=1e-15)
        assert out.w[0] == pytest.approx(0.25)
        assert out.time == 2.0

    def test_circular_orbit_is_discrete_fixed_point(self):
        ell = circular_ell(2.0, 3.0)
        e = Ensemble(0.0, [0.5, 2.0], [0.0, 0.0], [0.0, ell], [3.0, 1e-9])
        out = e
        for _ in range(50):
            out = step(out, 0.5)
        assert out.r[1] == 2.0
        # ell^2 is not exactly r^3 M/(4 pi) in floats, so w only holds
        # to accumulated roundoff
        assert abs(out.w[1]) < 1e-15

    def test_angular_momentum_bitwise_conserved(self):
        e = Ensemble(0.0, [1.0, 2.0], [0.1, -0.2], [0.3, 0.7], [1.0, 1.0])
        out = step(e, 0.3)
        assert np.array_equal(out.ell, e.ell)
        assert np.array_equal(out.mass, e.mass)

    def test_time_reversibility(self):
        e = Ensemble(
            0.0, [1.0, 2.0, 3.0], [0.3, -0.2, 0.1], [0.2, 0.0, 0.4], [0.3, 0.3, 0.4]
        )
        fwd = step(e, 0.05)
        back = step(Ensemble(0.0, fwd.r, -fwd.w, fwd.ell, fwd.mass), 0.05)
        assert np.max(np.abs(back.r - e.r)) < 1e-12
        assert np.max(np.abs(-back.w - e.w)) < 1e-12

    def test_radial_reflection_through_centre(self):
        # purely radial infall crosses r = 0 and comes back out
        e = Ensemble(0.0, [0.5], [-2.0], [0.0], [1.0])
        out = step(e, 1.0)
        assert out.r[0] > 0.0
        assert out.w[0] > 0.0

    def test_rejection_subdivides_for_ell_positive(self):
        # with angular momentum the centrifugal wall must not be
        # crossed; a too-large requested step completes via halving
        e = Ensemble(0.0, [0.5], [-2.0], [0.3], [1e-12])
        out = step(e, 1.0)
        assert out.r[0] > 0.0

    def test_adaptive_run_resolves_pericenter(self):
        # accuracy near the wall is the step-size controller's job
        e = Ensemble(0.0, [0.5], [-2.0], [0.3], [1e-12])
        sink = run(e, IntegratorConfig(t_end=2.0, output_cadence=0.05, dt_safety=0.05))
        ekin = sink.records.energy_kinetic
        assert np.max(np.abs(ekin - ekin[0])) / ekin[0] < 1e-3
        assert min(sink.records.inner_radius) > 0.1

    def test_stiffness_error_when_dt_min_too_large(self):
        e = Ensemble(0.0, [0.5], [-2.0], [0.3], [1e-12])
        with pytest.raises(StiffnessError):
            step(e, 1.0, dt_min=0.5)

    def test_bad_dt(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            step(e, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt(self, dt):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            step(e, dt)

    @pytest.mark.parametrize("dt_min", [0.0, -1.0, math.nan, math.inf])
    def test_bad_dt_min(self, dt_min):
        # a radial shell that must not be reflected keeps rejecting
        # steps; at dt_min = 0 the halving would never stop
        e = Ensemble(0.0, [0.5], [-2.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            step(e, 1.0, reflection_enabled=False, dt_min=dt_min)

    def test_non_finite_state_is_numerical_error(self):
        # the run() repro: r^3 underflows for the inner shell, so the
        # state after the step is non-finite; that is a failure of the
        # integration, not the DomainError of a bad argument
        e = Ensemble(0.0, [1e-120, 1.0], [0.0, 0.0], [1e-60, 0.0], [1.0, 1.0])
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            step(e, 1.0)
        assert isinstance(err.value.__cause__, DomainError)
        assert err.value.time == 1.0


class TestIntegratorConfig:
    @pytest.mark.parametrize("name", ["t_end", "output_cadence", "dt_initial", "dt_safety"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, name, value):
        fields = {"t_end": 1.0, "output_cadence": 0.5, name: value}
        with pytest.raises(DomainError):
            IntegratorConfig(**fields)


class TestAdaptiveDt:
    def test_at_rest_clamps_to_cadence(self):
        ell = circular_ell(2.0, 3.0)
        e = Ensemble(0.0, [0.5, 2.0], [0.0, 0.0], [0.0, ell], [3.0, 1e-9])
        cfg = IntegratorConfig(t_end=1.0, output_cadence=0.25)
        assert _raw_adaptive_dt(e.r, e.w, acceleration(e), cfg, 0.0) == 0.25

    def test_linear_in_safety(self):
        e = Ensemble(0.0, [1.0, 2.0], [0.5, -0.1], [0.0, 0.2], [1.0, 1.0])
        accel = acceleration(e)
        lo = _raw_adaptive_dt(
            e.r, e.w, accel, IntegratorConfig(t_end=1.0, output_cadence=100.0, dt_safety=0.05), 0.0)
        hi = _raw_adaptive_dt(
            e.r, e.w, accel, IntegratorConfig(t_end=1.0, output_cadence=100.0, dt_safety=0.1), 0.0)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_fast_inner_particle_dominates(self):
        e = Ensemble(0.0, [0.01, 10.0], [5.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        cfg = IntegratorConfig(t_end=1.0, output_cadence=100.0, dt_safety=1.0)
        # r/|w| of the inner particle = 0.002
        dt = _raw_adaptive_dt(e.r, e.w, acceleration(e), cfg, 0.0)
        assert dt == pytest.approx(0.002, rel=1e-6)

    def test_bitwise_equal_to_two_array_formula(self):
        # sqrt is monotone and correctly rounded, so one sqrt of the
        # minimum gives the bits of the minimum of the sqrts; w = 0 takes
        # the eps guard, and a run of ties changes nothing.  With the
        # profile, each way of the step control is taken: the force scale
        # from the innermost shells with or without the kinematic pass,
        # and the two full passes
        rng = np.random.default_rng(11)
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9, dt_safety=0.3)
        zeros = 0
        ways = Counter()
        for e in tied_ensembles(9):
            w = np.where(rng.random(e.n) < 0.3, 0.0, e.w)
            zeros += int(np.count_nonzero(w == 0.0))
            accel, profile = kernel(e)
            got = _raw_adaptive_dt(e.r, w, accel, cfg, 0.0, profile)
            assert cfg.dt_min < got < cfg.output_cadence
            assert repr(got) == repr(two_array_dt(e.r, w, accel, cfg))
            ways[tuple(checked_passes(e.r, w, accel, cfg, profile))] += 1
        assert zeros > 1000
        assert set(ways) == {(), ("w",), ("accel", "w")}, ways

    def test_force_scale_ruled_out_by_its_floor(self):
        # an escaping shell: every shell shares one kinematic scale far
        # below sqrt(min r / max|a|), so the force scale is never computed
        e = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5, w_max=0.6,
                                  n=500, seed=4))[0]
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9, dt_safety=0.05)
        accel, profile = kernel(e)
        assert checked_passes(e.r, e.w, accel, cfg, profile) == ["w"]

    K = dynamics._INNER

    def test_force_scale_certified_at_the_bound(self):
        # the innermost shells' least r/(|a| + eps), 64.5, lies between
        # r_(K-1)/max|a| = 64 and r_(K)/max|a| = 65, where K = 64 and
        # r_(K) is the radius just past them: only the bound with r_(K)
        # certifies it.  w = 0 rules the kinematic scale out
        n = 2 * self.K
        r = 1.0 + np.arange(n)
        accel = np.full(n, -1.0e-3)
        accel[0] = -1.0 / (self.K + 0.5)
        accel[-1] = -1.0
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9)
        assert checked_passes(r, np.zeros(n), accel, cfg) == []

    @pytest.mark.parametrize("at", [K, 2 * K - 1])
    def test_force_minimum_outside_innermost_shells(self, at):
        # a strongly accelerated outer shell has the least r/|a|, just
        # below the innermost shells' 1e6; at r_(K) it also lies within
        # r_(K+1)/max|a|, so a bound one radius further out would miss it
        n = 2 * self.K
        r = 1.0 + np.arange(n)
        accel = np.full(n, -1.0e-6)
        accel[at] = -(r[at] + 0.5) * 1.0e-6
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9)
        assert "accel" in checked_passes(r, np.zeros(n), accel, cfg)

    @pytest.mark.parametrize("n", [1, 2, K - 1, K])
    def test_no_more_shells_than_innermost(self, n):
        # no radius lies past the innermost shells to bound the others
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9)
        for seed in range(5):
            rng = np.random.default_rng([n, seed])
            r = 10.0 ** rng.uniform(-1.0, 1.0, n)
            checked_passes(r, rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n), cfg)

    @pytest.mark.parametrize("strong", [0, 1, 2])
    @pytest.mark.parametrize("flip", [False, True])
    def test_tie_at_first_radius_past_innermost(self, strong, flip):
        # three shells share the K-th and (K+1)-th sorted radius; one of
        # them, inside the innermost K or past them, has the least r/|a|
        n = 2 * self.K
        r = 1.0 + np.arange(n)
        tied = [self.K - 1, self.K, self.K + 1]
        r[tied] = r[self.K - 1]
        accel = np.full(n, -1.0e-6)
        accel[tied[strong]] = -(r[self.K - 1] + 0.5) * 1.0e-6
        if flip:
            r, accel = r[::-1].copy(), accel[::-1].copy()
        profile = diagnostics._RadialOrder(np.ones(n))(r)
        assert profile[0][self.K - 1] == profile[0][self.K] == profile[0][self.K + 1]
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9)
        checked_passes(r, np.zeros(n), accel, cfg, profile)

    def test_zero_w_everywhere(self):
        # max|w| = 0: the kinematic bound is min r / eps, which the force
        # scale never reaches
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9, dt_safety=0.3)
        for e in tied_ensembles(13, count=40, n_max=400):
            checked_passes(e.r, np.zeros(e.n), kernel(e)[0], cfg)

    def test_bounds_add_eps_as_the_formula_does(self):
        # max|a| or max|w| at eps = 1e-30: a bound divided by the bare
        # maximum would be twice too large and pass a wrong scale
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e300)
        k = self.K
        # innermost least r/(|a| + eps) 1e30, the shell at r_(K) 0.75e30
        r = np.concatenate([np.linspace(1.0, 1.25, k), [1.5], np.linspace(2.0, 3.0, k)])
        accel = np.zeros(r.size)
        accel[k] = -1.0e-30
        assert "accel" in checked_passes(r, np.zeros(r.size), accel, cfg)
        # force scale sqrt(0.5e30) below the kinematic 8.3e14, which lies
        # below sqrt(min r / max|a|) = 1e15
        checked_passes([1.0, 2.0], [1.2e-15, 0.0], [-1.0e-30, 0.0], cfg)
        # force scale 0.75 certified; kinematic 0.5, below min r / max|w| = 1
        r = 1.0e-30 * (1.0 + np.arange(2 * k))
        w, accel = np.zeros(r.size), np.zeros(r.size)
        w[0], accel[0] = 1.0e-30, -0.78e-30
        assert checked_passes(r, w, accel, cfg) == ["w"]

    def test_unresolvable_force_raises_at_its_time(self):
        # the outer of two shells near the centre feels a force whose time
        # scale is about 1e-15, below dt_min = 1e-13
        e = Ensemble(2.5, [1e-10, 2e-10], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        cfg = IntegratorConfig(t_end=3.0, output_cadence=0.5)
        accel, profile = kernel(e)
        for sort in (None, profile):
            with pytest.raises(StiffnessError) as err:
                _raw_adaptive_dt(e.r, e.w, accel, cfg, e.time, sort)
            assert err.value.time == 2.5
        with pytest.raises(StiffnessError):
            run(e, cfg)

    @pytest.mark.parametrize("n", [2, 128])
    def test_unresolvable_force_raises_under_faster_kinematic_scale(self, n):
        # r/|w| = 1e-20 lies below sqrt(min r / max|a|), about 1e-15 and
        # itself below dt_min: the force scale may be skipped only when
        # safety times that floor reaches dt_min, so it still raises
        r = 1.0e-10 * (1.0 + np.arange(n))
        e = Ensemble(2.5, r, np.full(n, 1.0e10), np.zeros(n), np.ones(n))
        cfg = IntegratorConfig(t_end=3.0, output_cadence=0.5)
        accel, profile = kernel(e)
        for sort in (None, profile):
            with pytest.raises(StiffnessError) as err:
                _raw_adaptive_dt(e.r, e.w, accel, cfg, e.time, sort)
            assert err.value.time == 2.5

    def test_short_kinematic_scale_is_clamped(self):
        # a force-free radial shell 1e-20 from the centre: r/|w| is far
        # below dt_min, and only a step of dt_min takes it to the centre,
        # where it is reflected and moves on freely
        e = Ensemble(0.0, [1e-20], [-1.0], [0.0], [1.0])
        cfg = IntegratorConfig(t_end=1.0, output_cadence=0.5)
        assert _raw_adaptive_dt(e.r, e.w, acceleration(e), cfg, 0.0) == cfg.dt_min
        radii = run(e, cfg).records.inner_radius
        assert radii[1:] == pytest.approx([0.5, 1.0], rel=1e-12)

    def test_nan_gives_non_finite_dt(self):
        # Python's min() would drop the NaN and return a finite step; with
        # the profile, a NaN radius sorts last, past the innermost shells,
        # and the force here is that of the finite radii
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9)
        ensembles = list(tied_ensembles(10, count=20, n_max=50))
        ensembles += list(tied_ensembles(12, count=20, n_max=400))
        for e in ensembles:
            for k in {0, e.n // 2, e.n - 1}:
                for into in ("w", "accel", "r"):
                    r, w = e.r.copy(), e.w.copy()
                    accel, profile = kernel(e)
                    {"r": r, "w": w, "accel": accel}[into][k] = np.nan
                    if into == "r":
                        profile = diagnostics._RadialOrder(e.mass)(r)
                    for sort in (None, profile):
                        assert not math.isfinite(_raw_adaptive_dt(r, w, accel, cfg, 0.0, sort))


class TestRun:
    def test_zero_horizon_single_record(self):
        e = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(e, IntegratorConfig(t_end=0.0, output_cadence=1.0))
        assert len(sink.records.times) == 1
        assert sink.records.times[0] == 0.0

    def test_record_times_are_cadence_multiples(self):
        e = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(e, IntegratorConfig(t_end=2.0, output_cadence=0.5))
        assert np.allclose(sink.records.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_final_partial_record(self):
        e = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(e, IntegratorConfig(t_end=1.3, output_cadence=0.5))
        assert sink.records.times[-1] == pytest.approx(1.3)

    def test_snapshots_at_requested_times(self):
        e = Ensemble(0.0, [1.0], [0.5], [0.0], [1.0])
        sink = run(
            e,
            IntegratorConfig(t_end=2.0, output_cadence=1.0),
            snapshot_times=(0.75, 2.0),
        )
        assert [s.time for s in sink.snapshots] == [0.75, 2.0]
        # free particle: snapshot radius is exact
        assert sink.snapshots[0].r[0] == pytest.approx(1.0 + 0.5 * 0.75, rel=1e-12)

        # interacting shells: snapshots at t0, at record times, at t_end
        # and repeated ones come out sorted at exactly the asked times;
        # unless a snapshot falls between record times, the records are
        # bitwise those of a run without snapshots
        e = Ensemble(0.0, [0.5, 1.0, 2.0], [0.1, -0.2, 0.3], [0.1, 0.2, 0.3],
                     [1.0, 0.5, 0.25])
        cfg = IntegratorConfig(t_end=2.0, output_cadence=0.5)
        plain = run(e, cfg, r_grid=(1.0,), q_list=(2.0,)).records
        cases = [
            ((0.0,), False),
            ((1.0,), False),
            ((2.0,), False),
            ((2.0, 0.0, 1.5, 0.5), False),
            ((1.0, 1.0), False),
            ((2.0, 2.0), False),
            ((0.75, 0.75), True),
            ((0.25, 2.0, 0.25), True),
        ]
        for times, between in cases:
            sink = run(e, cfg, r_grid=(1.0,), q_list=(2.0,), snapshot_times=times)
            assert [s.time for s in sink.snapshots] == sorted(times)
            assert sink.records.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
            if not between:
                assert_tables_bitwise_equal(sink.records, plain)
        # outside [t0, t_end], or NaN, which no step could ever reach
        for bad in ((-0.5,), (2.5,), (math.nan,)):
            with pytest.raises(DomainError):
                run(e, cfg, snapshot_times=bad)

    def test_bound_system_energy_drift(self):
        # light tracer on an eccentric orbit around a heavy shell;
        # fixed step (clamped by cadence) over 1e4 steps
        ell = circular_ell(2.0, 1.0) * 0.9
        e = Ensemble(0.0, [0.5, 2.0], [0.0, 0.0], [0.0, ell], [1.0, 1e-6])
        cfg = IntegratorConfig(t_end=200.0, output_cadence=0.02, dt_safety=1.0)
        sink = run(e, cfg)
        assert len(sink.records.times) > 10_000
        assert energy_drift(sink) < 1e-6

    def test_mass_exactly_conserved(self):
        e = Ensemble(0.0, [1.0, 2.0], [0.3, -0.3], [0.1, 0.2], [0.25, 0.75])
        sink = run(e, IntegratorConfig(t_end=5.0, output_cadence=1.0))
        masses = sink.records.mass
        assert np.all(masses == masses[0])

    # r^3 underflows for the inner shell, so its acceleration is inf and
    # the force time scale exactly 0
    UNRESOLVABLE = ([1e-120, 1.0], [0.0, 0.0], [1e-60, 0.0], [1.0, 1.0])

    def test_non_finite_step_raises_at_last_finite_time(self):
        # the run stops where it is; the caller's errstate reaches the
        # record of t = 0 too, so nothing warns
        e = Ensemble(0.0, *self.UNRESOLVABLE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"), pytest.raises(StiffnessError) as err:
                run(e, IntegratorConfig(t_end=10.0, output_cadence=1.0))
        assert err.value.time == 0.0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_non_finite_record_state_is_numerical_error(self):
        # a finite force, but the outer shell's radius overflows to inf
        # by the first record: the Ensemble check fails there and
        # surfaces as a NumericalError, not as the DomainError of a bad
        # argument; the record of t = 0 overflows w^2 under the caller's
        # errstate, so nothing warns
        e = Ensemble(0.0, [1.0, 1.7e308], [0.0, 1.7e308], [0.0, 0.0], [1.0, 1.0])
        cfg = IntegratorConfig(t_end=1.0, output_cadence=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                run(e, cfg)
        assert isinstance(err.value.__cause__, DomainError)
        assert err.value.time == pytest.approx(0.1)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_record_error_wins_over_later_step_error(self, monkeypatch):
        # the record of t = 0 is still in flight when the first step
        # raises; serially the record would have raised first, so its
        # error is the one run() raises
        class RecordError(Exception):
            pass

        stepped = threading.Event()

        def failing_record(*args, **kwargs):
            stepped.wait(10.0)
            raise RecordError

        def adaptive_dt(*args):
            stepped.set()
            return _raw_adaptive_dt(*args)

        monkeypatch.setattr(dynamics, "diagnostics_record", failing_record)
        monkeypatch.setattr(dynamics, "_raw_adaptive_dt", adaptive_dt)
        e = Ensemble(0.0, *self.UNRESOLVABLE)
        with np.errstate(all="ignore"), pytest.raises(RecordError) as err:
            run(e, IntegratorConfig(t_end=10.0, output_cadence=1.0))
        assert stepped.is_set()
        assert isinstance(err.value.__context__, StiffnessError)

    def test_one_record_in_flight(self, monkeypatch):
        # records overlap the next steps, never each other, and a step
        # past the next record time waits for the record in flight: a
        # wrapper of the module's diagnostics_record sees one call at a
        # time, one per record, and no worker outlives run()
        core = CoreSpec(mass=1.0, radius=1.0, n=300, seed=5)
        shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
                          n=100, seed=6)
        ens = build_shell_plus_core(core, shell)[0]
        cfg = IntegratorConfig(t_end=4.0, output_cadence=0.25, dt_safety=0.05)
        kw = {"r_grid": (1.0, 4.0), "q_list": (5.0 / 3.0,)}
        plain = run(ens, cfg, **kw).records
        lock = threading.Lock()
        in_flight = []
        calls = []  # records in flight as each one starts
        waited = []  # whether the steps stayed short of the next record time
        stepped_from = [0.0]  # the time of the latest step
        record = dynamics.diagnostics_record

        def wrapped(raw, **kwargs):
            with lock:
                in_flight.append(None)
                calls.append(len(in_flight))
            time.sleep(0.002)  # a slow record: the steps catch up with it
            try:
                return record(raw, **kwargs)
            finally:
                with lock:
                    in_flight.pop()
                    waited.append(stepped_from[0] < raw.time + cfg.output_cadence)

        def adaptive_dt(*args):
            stepped_from[0] = args[4]
            return _raw_adaptive_dt(*args)

        monkeypatch.setattr(dynamics, "diagnostics_record", wrapped)
        monkeypatch.setattr(dynamics, "_raw_adaptive_dt", adaptive_dt)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            table = run(ens, cfg, **kw).records
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert calls == [1] * 17
        assert all(waited) and len(waited) == 17
        assert_tables_bitwise_equal(table, plain)

    @pytest.mark.parametrize("scenario", ["core", "shell_plus_core", "shell"])
    def test_step_control_bounds_leave_table_bytes(self, monkeypatch, scenario):
        # run() hands the step control the sort of the current radii, and
        # its table equals that of a step control given no profile
        core = CoreSpec(mass=1.0, radius=1.0, n=2000, seed=7)
        shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
                          n=300, seed=8)
        ens = {"core": lambda: build_circular_core(core),
               "shell_plus_core": lambda: build_shell_plus_core(core, shell)[0],
               "shell": lambda: build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25,
                                                      w_min=0.5, w_max=0.6, n=2000))[0]}[scenario]()
        cfg = IntegratorConfig(t_end=8.0, output_cadence=0.5, dt_safety=0.05)
        kw = {"r_grid": (1.0, 4.0), "q_list": (5.0 / 3.0,)}
        sorts = []

        def checked(r, w, accel, config, t, profile):
            sorts.append(np.array_equal(profile[0], np.sort(r)))
            return _raw_adaptive_dt(r, w, accel, config, t, profile)

        def without_profile(r, w, accel, config, t, profile=None):
            return _raw_adaptive_dt(r, w, accel, config, t)

        monkeypatch.setattr(dynamics, "_raw_adaptive_dt", checked)
        table = run(ens, cfg, **kw).records
        assert len(sorts) > 16 and all(sorts)
        monkeypatch.setattr(dynamics, "_raw_adaptive_dt", without_profile)
        assert_tables_bitwise_equal(table, run(ens, cfg, **kw).records)

    def test_deterministic_rerun(self):
        import vpshell

        spec = vpshell.ShellSpec(
            mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.2, w_max=0.4, n=200, seed=9
        )
        cfg = IntegratorConfig(t_end=3.0, output_cadence=0.5)
        outs = []
        for _ in range(2):
            ens, _ = vpshell.build_shell(spec)
            sink = run(ens, cfg, r_grid=(1.0,), q_list=(5 / 3,))
            outs.append(sink.records.variance)
        assert np.array_equal(outs[0], outs[1])


class TestRecordTimes:
    def test_bitwise_equal_to_loop(self):
        # ends on a multiple of the cadence, a rounding step either side
        # of it, within 1e-9 * cadence below it (no extra record), just
        # outside that band (an extra record at t_end) and in between
        rng = np.random.default_rng(21)
        fixed = [(0.0, 400.0, 0.5), (0.0, 1.3, 0.5), (0.0, 0.0, 1.0), (0.1, 0.7, 0.1),
                 (-1.0, 1.0, 0.1), (0.0, 1e-12, 1e-13), (5.0, 5.0, 1e-3)]
        triples = list(fixed)
        for _ in range(3000):
            cadence = float(10.0 ** rng.uniform(-3.0, 1.0))
            t0 = 0.0 if rng.random() < 0.5 else float(rng.uniform(-50.0, 50.0))
            n = int(rng.integers(0, 300))
            end = t0 + n * cadence
            tol = 1.0e-9 * cadence
            for t_end in (end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf),
                          end - 0.5 * tol, end + 0.5 * tol, end - tol, end - 1.01 * tol,
                          end - 2.0 * tol, end + float(rng.uniform(0.0, cadence))):
                if t_end >= t0:
                    triples.append((t0, float(t_end), cadence))
        appended = 0
        for t0, t_end, cadence in triples:
            want = loop_record_times(t0, t_end, cadence)
            got = _record_times(t0, t_end, cadence)
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want).tobytes(), (t0, t_end, cadence)
            appended += want[-1] != t0 + (len(want) - 1) * cadence
        assert 1000 < appended < len(triples) - 1000  # t_end appended, and not


class TestEqualMassPrefix:
    """run() builds the prefix of equal masses once; every byte must be
    what the gather and cumsum of every step give."""

    @staticmethod
    def assert_same_as_per_step_prefix(ensemble, config, monkeypatch, **kw):
        assert diagnostics._RadialOrder(ensemble.mass).equal_prefix is not None
        once = run(ensemble, config, **kw).records
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_RadialOrder", general_order)
            per_step = run(ensemble, config, **kw).records
        assert_tables_bitwise_equal(once, per_step)

    def test_scrambled_shell(self, monkeypatch):
        e, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5,
                                     w_max=0.6, n=2000, seed=3))
        self.assert_same_as_per_step_prefix(
            e, IntegratorConfig(t_end=3.0, output_cadence=0.5), monkeypatch,
            r_grid=(1.0, 2.0), q_list=(5.0 / 3.0,))

    def test_nearly_sorted_core(self, monkeypatch):
        e = build_circular_core(CoreSpec(mass=1.0, radius=1.0, n=2000, seed=4))
        self.assert_same_as_per_step_prefix(
            e, IntegratorConfig(t_end=2.0, output_cadence=0.5), monkeypatch,
            r_grid=(0.5, 1.0), q_list=(2.0,))

    def test_equal_radii(self, monkeypatch):
        # four coincident copies of every shell stay coincident, so every
        # step takes the tie path
        rng = np.random.default_rng(13)
        base = np.sort(rng.uniform(0.5, 2.0, 100))
        copies = [np.repeat(a, 4) for a in (base, rng.normal(0.0, 0.1, 100),
                                               rng.uniform(0.0, 0.3, 100))]
        e = Ensemble(0.0, *copies, np.full(400, 1.0 / 400))
        self.assert_same_as_per_step_prefix(
            e, IntegratorConfig(t_end=2.0, output_cadence=0.5), monkeypatch,
            r_grid=(1.0,), q_list=(5.0 / 3.0,))

    PROBE = """
import numpy as np
from vpshell import Ensemble, acceleration, step
out = []
for mass in (np.full(50, 0.02), np.linspace(0.01, 0.03, 50)):
    e = Ensemble(0.0, np.linspace(0.5, 2.0, 50), np.linspace(-0.1, 0.1, 50),
                 np.full(50, 0.2), mass)
    after = step(e, 0.1)
    out += [a.tobytes().hex() for a in (acceleration(e), after.r, after.w)]
out = " ".join(out)
"""

    def test_nothing_outlives_a_run(self):
        # acceleration() and step() after runs of other sizes, equal and
        # unequal masses, give the bits of a fresh process
        core = CoreSpec(mass=1.0, radius=1.0, n=300, seed=5)
        shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
                          n=100, seed=6)
        cfg = IntegratorConfig(t_end=1.0, output_cadence=0.5)
        run(build_circular_core(core), cfg)
        run(build_shell_plus_core(core, shell)[0], cfg)
        namespace = {}
        exec(self.PROBE, namespace)
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c", self.PROBE + "print(out)"], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert namespace["out"] == fresh.stdout.strip()


def infalling_shell_plus_core():
    # the shell falls through the core, so shells of both masses swap
    # places in the radius order
    core = CoreSpec(mass=1.0, radius=1.0, n=2000, seed=11)
    shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=-0.5, w_max=-0.3,
                      n=500, seed=12)
    return build_shell_plus_core(core, shell)[0]


class TestWarmSort:
    """A scrambled step sorts its radii from the last step's order and
    keeps the last mass prefix while the sorted masses stay the same;
    every record must be that of a run whose every sort is the stable
    oracle's, with a fresh gather and cumsum."""

    KW = {"r_grid": (1.0, 2.0, 4.0), "q_list": (5.0 / 3.0, 2.0)}

    @classmethod
    def assert_warm_run_equals_cold_run(cls, ensemble, config, monkeypatch):
        """Returns how often a sort of scrambled radii after a scrambled
        sort reused the last prefix or built a new one."""
        counts = Counter()
        call = diagnostics._RadialOrder.__call__

        def counted(sort, r):
            # the last sort, as the call finds it
            last = sort._last if diagnostics._scrambled(r) else None
            profile = call(sort, r)
            if last is not None and profile.prefix is last[1]:
                # a reused prefix is read-only: no reader may change the
                # prefix of the next step
                assert not profile.prefix.flags.writeable
                counts["reused"] += 1
            elif last is not None:
                counts["rebuilt"] += 1
            return profile

        with monkeypatch.context() as patch:
            patch.setattr(diagnostics._RadialOrder, "__call__", counted)
            warm = run(ensemble, config, **cls.KW).records
        with monkeypatch.context() as patch:
            patch.setattr(diagnostics._RadialOrder, "__call__", stable_sort)
            cold = run(ensemble, config, **cls.KW).records
        assert_tables_bitwise_equal(warm, cold)
        return counts

    def test_escaping_shell_plus_core(self, monkeypatch):
        counts = self.assert_warm_run_equals_cold_run(
            TestRecordPath.shell_plus_core(), TestRecordPath.CFG, monkeypatch)
        # core and shell never interleave, so every warm sort keeps the prefix
        assert counts["reused"] > 0 and counts["rebuilt"] == 0

    def test_infalling_shell_plus_core(self, monkeypatch):
        counts = self.assert_warm_run_equals_cold_run(
            infalling_shell_plus_core(), IntegratorConfig(t_end=3.0, output_cadence=0.5),
            monkeypatch)
        # a shell that passes core particles changes the sorted masses
        assert counts["reused"] > 0 and counts["rebuilt"] > 0

    def test_equal_masses_take_the_run_prefix(self, monkeypatch):
        e, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=-0.6,
                                     w_max=0.6, n=2000, seed=3))
        counts = self.assert_warm_run_equals_cold_run(
            e, IntegratorConfig(t_end=1.0, output_cadence=0.5), monkeypatch)
        # every sort takes the run's one prefix of equal masses
        assert counts["reused"] > 0 and counts["rebuilt"] == 0


class TestParticleOrder:
    """The shell representation does not depend on particle order: a
    run of permuted particles gives the same table.  Columns read from
    the sorted radii are bitwise equal; sums in particle order move by
    roundoff only."""

    SORTED = ("times", "energy_potential", "inner_radius", "outer_radius",
              "inner_radius_shell")
    SUMMED = ("energy_kinetic", "variance", "dilation", "conformal")

    def test_permuted_shell_plus_core(self):
        e = TestRecordPath.shell_plus_core()
        perm = np.random.default_rng(2024).permutation(e.n)
        permuted = Ensemble(e.time, e.r[perm], e.w[perm], e.ell[perm], e.mass[perm],
                            e.group[perm])
        # the permuted run starts scrambled, so its steps sort warm
        assert diagnostics._scrambled(permuted.r) and not diagnostics._scrambled(e.r)
        a = run(e, TestRecordPath.CFG, **TestWarmSort.KW).records
        b = run(permuted, TestRecordPath.CFG, **TestWarmSort.KW).records
        for name in self.SORTED:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        for family in ("conc", "lq"):
            left, right = getattr(a, family), getattr(b, family)
            assert list(left) == list(right)
            for key in left:
                assert left[key].tobytes() == right[key].tobytes(), (family, key)
        for name in self.SUMMED:
            x, y = getattr(a, name), getattr(b, name)
            assert np.all(np.abs(x - y) <= 1e-13 * np.abs(x)), name
        labels = [classify(t, float(t.energy[0]), 0.0, float(t.mass[0])).label
                  for t in (a, b)]
        assert labels[0] == labels[1]


class TestRecordPath:
    """Records read the step's sort and raw arrays; they must equal what
    an Ensemble snapshot of the same state gives, bit for bit."""

    @staticmethod
    def assert_columns_equal_snapshot_rows(table, snapshots, **kw):
        rows = np.array([diagnostics_record(snap, **kw) for snap in snapshots])
        columns = table_columns(table)
        assert len(columns) == rows.shape[1]
        for column, expected in zip(columns, rows.T):
            assert column.tobytes() == expected.tobytes()

    CFG = IntegratorConfig(t_end=10.0, output_cadence=1.0, dt_safety=0.05)
    TIMES = tuple(float(k) for k in range(11))

    @staticmethod
    def shell_plus_core():
        core = CoreSpec(mass=1.0, radius=1.0, n=2000, seed=11)
        shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
                          n=500, seed=12)
        return build_shell_plus_core(core, shell)[0]

    def test_records_equal_snapshot_records(self):
        ens = self.shell_plus_core()
        kw = {"r_grid": (1.0, 2.0, 4.0), "q_list": (5.0 / 3.0, 2.0)}
        sink = run(ens, self.CFG, snapshot_times=self.TIMES, **kw)
        assert [s.time for s in sink.snapshots] == sink.records.times.tolist()
        self.assert_columns_equal_snapshot_rows(sink.records, sink.snapshots, **kw)
        plain = run(ens, self.CFG, **kw).records
        assert_tables_bitwise_equal(plain, sink.records)

    def test_table_is_what_its_file_reads_back(self, tmp_path):
        # the simulator counterpart of the Kurth table: contiguous float64
        # columns, bitwise equal to the read of the file written from
        # them, and the same report from either
        r_grid, q_list = (1.0, 2.0, 50.0), (5.0 / 3.0, 3.0)
        table = run(self.shell_plus_core(), self.CFG, r_grid=r_grid, q_list=q_list).records
        for column in table_columns(table):
            assert column.dtype == np.float64 and column.flags.c_contiguous
        path = tmp_path / "diagnostics.csv"
        write_diagnostics(str(path), table, r_grid, q_list)
        parsed = read_diagnostics(str(path))
        assert_tables_bitwise_equal(normalised(table), parsed)
        args = (float(parsed.energy[0]), 0.0, float(parsed.mass[0]))
        reports = [json.dumps(classify(t, *args).to_dict(), sort_keys=True)
                   for t in (table, parsed)]
        assert reports[0] == reports[1]

    def test_run_computes_no_group_stats(self, monkeypatch):
        # group statistics are a snapshot diagnostic: the advance loop
        # never reduces the groups, whatever the run writes
        def refuse(*args):
            raise AssertionError("run() computed group statistics")

        monkeypatch.setattr("vpshell.dynamics._group_stats", refuse)
        sink = run(self.shell_plus_core(), self.CFG, r_grid=(1.0, 2.0), q_list=(5.0 / 3.0,),
                   snapshot_times=(0.0, 5.0, 10.0))
        assert len(sink.records.times) == 11 and len(sink.snapshots) == 3

    def test_group_stats_equal_mask_formula_contiguous(self):
        ens = self.shell_plus_core()
        sink = run(ens, self.CFG, snapshot_times=self.TIMES)
        assert len(sink.snapshots) == 11
        for snap in sink.snapshots:
            assert repr(group_stats(snap)) == repr(mask_group_stats(snap))

    def test_group_stats_equal_mask_formula_interleaved(self):
        rng = np.random.default_rng(4)
        n = 300
        group = np.array(["a", "b", "", "shell"])[np.arange(n) % 4]
        ens = Ensemble(0.0, 10.0 ** rng.uniform(-0.5, 0.5, n), rng.normal(0.0, 0.1, n),
                       rng.uniform(0.2, 0.5, n), rng.uniform(0.1, 1.0, n), group)
        cfg = IntegratorConfig(t_end=2.0, output_cadence=0.5, dt_safety=0.05)
        sink = run(ens, cfg, snapshot_times=(0.0, 0.5, 1.0, 1.5, 2.0), r_grid=(1.0,))
        assert sorted(group_stats(sink.snapshots[0])) == ["a", "b", "shell"]
        for snap in sink.snapshots:
            assert repr(group_stats(snap)) == repr(mask_group_stats(snap))
        self.assert_columns_equal_snapshot_rows(sink.records, sink.snapshots, r_grid=(1.0,))


class TestIdentities:
    def test_dilation_identity_residual(self):
        # d/dt sum(m r w) = E + E_kin, verified by finite differences
        import vpshell

        spec = vpshell.ShellSpec(
            mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5, w_max=0.6, n=2000, seed=1
        )
        ens, _ = vpshell.build_shell(spec)
        sink = run(ens, IntegratorConfig(t_end=20.0, output_cadence=0.25, dt_safety=0.05))
        t = sink.records.times
        dil = sink.records.dilation
        ekin = sink.records.energy_kinetic
        etot = sink.records.energy
        lhs = np.diff(dil) / np.diff(t)
        rhs = etot[0] + 0.5 * (ekin[1:] + ekin[:-1])
        scale = np.abs(etot[0]) + 0.5 * (ekin[1:] + ekin[:-1])
        assert np.max(np.abs(lhs - rhs) / scale) < 0.01

    def test_conformal_identity_residual(self):
        import vpshell

        spec = vpshell.ShellSpec(
            mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5, w_max=0.6, n=2000, seed=1
        )
        ens, _ = vpshell.build_shell(spec)
        sink = run(ens, IntegratorConfig(t_end=20.0, output_cadence=0.25, dt_safety=0.05))
        t = sink.records.times
        conf = sink.records.conformal
        epot = sink.records.energy_potential
        lhs = np.diff(conf) / np.diff(t)
        rhs = np.diff(t**2 * 2.0 * epot) / np.diff(t) - (
            0.5 * (t[1:] + t[:-1]) * (epot[1:] + epot[:-1])
        )
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        scale = np.maximum(scale, 0.02 * np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs) / scale) < 0.02


class TestHomologousBall:
    """Kurth's uniform ball through `run()`: the exactly homologous
    sample of `homologous_ball` has var(t) = var(0) phi(t/T_D)^2."""

    # about 10x the error max|var/(var(0) phi^2) - 1| measured at N = 200
    # to t = 40 T_D, at dt_safety 0.1 and 0.05 (6.4e-2/2.6e-2,
    # 4.2e-3/8.1e-4, 4.5e-4/1.3e-4 and 5.2e-3/1.2e-3)
    BOUNDS = {0.5: (0.6, 0.25), 1.0: (4e-2, 8e-3), 1.5: (4.5e-3, 1.3e-3),
              -1.2: (5e-2, 1.2e-2)}

    @staticmethod
    def error(k, dt_safety):
        ensemble, t_d = homologous_ball(200, k)
        config = IntegratorConfig(t_end=40.0 * t_d, output_cadence=0.5 * t_d,
                                  dt_safety=dt_safety)
        table = run(ensemble, config).records
        phi, _ = phi_closed_form(table.times / t_d, k)
        return float(np.max(np.abs(table.variance / (table.variance[0] * phi**2) - 1.0)))

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, -1.2])
    def test_variance_follows_closed_form(self, k):
        coarse, fine = self.BOUNDS[k]
        assert self.error(k, 0.1) <= coarse
        assert self.error(k, 0.05) <= fine

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, -1.2])
    def test_halving_dt_safety_halves_error(self, k):
        # measured 2.5-5.2x; the steps that land on record times cut the
        # second order, so no 4x is asked
        assert self.error(k, 0.1) >= 2.0 * self.error(k, 0.05)


class TestGravitationalScaling:
    """r -> 2r, t -> 4t, w -> w/2, ell -> ell, m -> m/2 maps solutions to
    solutions; every factor is a power of 2, so the map is exact in
    floating point and the scaled run's table is the scaled table."""

    SCALE = {"times": 4.0, "energy": 0.125, "energy_kinetic": 0.125,
             "energy_potential": 0.125, "mass": 0.5, "variance": 4.0, "dilation": 0.5,
             "conformal": 2.0, "inner_radius": 2.0, "outer_radius": 2.0,
             "inner_radius_shell": 2.0}

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_scaled_run_is_scaled_table(self, seed):
        core = CoreSpec(mass=1.0, radius=1.0, n=400, seed=seed)
        shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
                          n=100, seed=seed + 1)
        ens = build_shell_plus_core(core, shell)[0]
        big = Ensemble(0.0, 2.0 * ens.r, 0.5 * ens.w, ens.ell, 0.5 * ens.mass, ens.group)
        r_grid = (0.5, 1.0, 2.0, 50.0)
        table = run(ens, IntegratorConfig(t_end=10.0, output_cadence=0.5, dt_initial=0.1,
                                          dt_safety=0.05), r_grid=r_grid).records
        scaled = run(big, IntegratorConfig(t_end=40.0, output_cadence=2.0, dt_initial=0.4,
                                           dt_safety=0.05),
                     r_grid=tuple(2.0 * R for R in r_grid)).records
        for field in FIELDS:
            expected = self.SCALE[field] * getattr(table, field)
            assert expected.tobytes() == getattr(scaled, field).tobytes(), field
        for R, conc in table.conc.items():
            assert (0.5 * conc).tobytes() == scaled.conc[2.0 * R].tobytes(), R
