import math

import numpy as np
import pytest

from vpshell import (
    DomainError,
    Ensemble,
    IntegratorConfig,
    NumericalError,
    StiffnessError,
    acceleration,
    adaptive_dt,
    step,
)
from vpshell import CoreSpec, ShellSpec, build_shell_plus_core, diagnostics_record
from vpshell.dynamics import _raw_adaptive_dt, _selector, energy_drift, run

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
    sqrt(r/|a|), then the min over particles."""
    eps = 1.0e-30
    dt_kin = r / (np.abs(w) + eps)
    dt_dyn = np.sqrt(r / (np.abs(accel) + eps))
    dt = config.dt_safety * float(np.min(np.minimum(dt_kin, dt_dyn)))
    return min(max(dt, config.dt_min), config.output_cadence)


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
        ekin = sink.series("energy_kinetic")
        assert np.max(np.abs(ekin - ekin[0])) / ekin[0] < 1e-3
        assert min(rec.inner_radius for rec in sink.records) > 0.1

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
        assert adaptive_dt(e, cfg) == 0.25

    def test_linear_in_safety(self):
        e = Ensemble(0.0, [1.0, 2.0], [0.5, -0.1], [0.0, 0.2], [1.0, 1.0])
        lo = adaptive_dt(e, IntegratorConfig(t_end=1.0, output_cadence=100.0, dt_safety=0.05))
        hi = adaptive_dt(e, IntegratorConfig(t_end=1.0, output_cadence=100.0, dt_safety=0.1))
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_fast_inner_particle_dominates(self):
        e = Ensemble(0.0, [0.01, 10.0], [5.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        cfg = IntegratorConfig(t_end=1.0, output_cadence=100.0, dt_safety=1.0)
        # r/|w| of the inner particle = 0.002
        assert adaptive_dt(e, cfg) == pytest.approx(0.002, rel=1e-6)

    def test_bitwise_equal_to_two_array_formula(self):
        # sqrt is monotone and correctly rounded, so one sqrt of the
        # minimum gives the bits of the minimum of the sqrts; w = 0 takes
        # the eps guard, and a run of ties changes nothing
        rng = np.random.default_rng(11)
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9, dt_safety=0.3)
        zeros = 0
        for e in tied_ensembles(9):
            w = np.where(rng.random(e.n) < 0.3, 0.0, e.w)
            zeros += int(np.count_nonzero(w == 0.0))
            accel = acceleration(e)
            got = _raw_adaptive_dt(e.r, w, accel, cfg)
            assert cfg.dt_min < got < cfg.output_cadence
            assert repr(got) == repr(two_array_dt(e.r, w, accel, cfg))
        assert zeros > 1000

    def test_nan_gives_non_finite_dt(self):
        # Python's min() would drop the NaN and return a finite step
        cfg = IntegratorConfig(t_end=1.0, output_cadence=1e9)
        for e in tied_ensembles(10, count=20, n_max=50):
            for k in {0, e.n // 2, e.n - 1}:
                for into_w in (True, False):
                    w, accel = e.w.copy(), acceleration(e)
                    (w if into_w else accel)[k] = np.nan
                    assert not math.isfinite(_raw_adaptive_dt(e.r, w, accel, cfg))


class TestRun:
    def test_zero_horizon_single_record(self):
        e = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(e, IntegratorConfig(t_end=0.0, output_cadence=1.0))
        assert len(sink.records) == 1
        assert sink.records[0].time == 0.0

    def test_record_times_are_cadence_multiples(self):
        e = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(e, IntegratorConfig(t_end=2.0, output_cadence=0.5))
        assert np.allclose(sink.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_final_partial_record(self):
        e = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(e, IntegratorConfig(t_end=1.3, output_cadence=0.5))
        assert sink.times()[-1] == pytest.approx(1.3)

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
            assert [rec.time for rec in sink.records] == [0.0, 0.5, 1.0, 1.5, 2.0]
            if not between:
                assert sink.records == plain
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
        assert len(sink.records) > 10_000
        assert energy_drift(sink) < 1e-6

    def test_mass_exactly_conserved(self):
        e = Ensemble(0.0, [1.0, 2.0], [0.3, -0.3], [0.1, 0.2], [0.25, 0.75])
        sink = run(e, IntegratorConfig(t_end=5.0, output_cadence=1.0))
        masses = sink.series("mass")
        assert np.all(masses == masses[0])

    def test_non_finite_step_raises_at_last_finite_time(self):
        # r^3 underflows for the inner shell, so its acceleration is inf,
        # the state turns non-finite and the next step size is NaN
        e = Ensemble(0.0, [1e-120, 1.0], [0.0, 0.0], [1e-60, 0.0], [1.0, 1.0])
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            run(e, IntegratorConfig(t_end=10.0, output_cadence=1.0))
        assert math.isfinite(err.value.time)
        assert 0.0 < err.value.time < 1.0

    def test_non_finite_record_state_is_numerical_error(self):
        # the first step lands on a record whose state is non-finite: the
        # Ensemble check fails there and surfaces as a NumericalError,
        # not as the DomainError of a bad argument
        e = Ensemble(0.0, [1e-120, 1.0], [0.0, 0.0], [1e-60, 0.0], [1.0, 1.0])
        cfg = IntegratorConfig(t_end=1e-12, output_cadence=1e-13, dt_initial=0.1)
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            run(e, cfg)
        assert isinstance(err.value.__cause__, DomainError)
        assert err.value.time == pytest.approx(1e-13)

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
            outs.append(sink.series("variance"))
        assert np.array_equal(outs[0], outs[1])


class TestRecordPath:
    """Records read the step's sort and raw arrays; they must equal what
    an Ensemble snapshot of the same state gives, bit for bit."""

    CFG = IntegratorConfig(t_end=10.0, output_cadence=1.0, dt_safety=0.05)
    TIMES = tuple(float(k) for k in range(11))

    def shell_plus_core(self):
        core = CoreSpec(mass=1.0, radius=1.0, n=2000, seed=11)
        shell = ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
                          n=500, seed=12)
        return build_shell_plus_core(core, shell)[0]

    def test_records_equal_snapshot_records(self):
        ens = self.shell_plus_core()
        kw = {"r_grid": (1.0, 2.0, 4.0), "q_list": (5.0 / 3.0, 2.0)}
        sink = run(ens, self.CFG, snapshot_times=self.TIMES, **kw)
        assert [s.time for s in sink.snapshots] == [rec.time for rec in sink.records]
        for snap, rec in zip(sink.snapshots, sink.records):
            assert repr(rec) == repr(diagnostics_record(snap, **kw))
        plain = run(ens, self.CFG, **kw).records
        assert repr(plain) == repr(sink.records)

    def test_group_stats_equal_mask_formula_contiguous(self):
        ens = self.shell_plus_core()
        assert all(isinstance(_selector(ens.group == g), slice) for g in ("core", "shell"))
        sink = run(ens, self.CFG, snapshot_times=self.TIMES)
        assert len(sink.group_stats) == len(sink.snapshots) == 11
        for snap, stats in zip(sink.snapshots, sink.group_stats):
            assert repr(stats) == repr(mask_group_stats(snap))

    def test_group_stats_equal_mask_formula_interleaved(self):
        rng = np.random.default_rng(4)
        n = 300
        group = np.array(["a", "b", "", "shell"])[np.arange(n) % 4]
        ens = Ensemble(0.0, 10.0 ** rng.uniform(-0.5, 0.5, n), rng.normal(0.0, 0.1, n),
                       rng.uniform(0.2, 0.5, n), rng.uniform(0.1, 1.0, n), group)
        assert all(isinstance(_selector(group == g), np.ndarray) for g in ("a", "b", "shell"))
        assert _selector(group == "nobody") is None
        cfg = IntegratorConfig(t_end=2.0, output_cadence=0.5, dt_safety=0.05)
        sink = run(ens, cfg, snapshot_times=(0.0, 0.5, 1.0, 1.5, 2.0), r_grid=(1.0,))
        assert sorted(sink.group_stats[0]) == ["a", "b", "shell"]
        for snap, stats, rec in zip(sink.snapshots, sink.group_stats, sink.records):
            assert repr(stats) == repr(mask_group_stats(snap))
            assert repr(rec) == repr(diagnostics_record(snap, r_grid=(1.0,)))


class TestIdentities:
    def test_dilation_identity_residual(self):
        # d/dt sum(m r w) = E + E_kin, verified by finite differences
        import vpshell

        spec = vpshell.ShellSpec(
            mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5, w_max=0.6, n=2000, seed=1
        )
        ens, _ = vpshell.build_shell(spec)
        sink = run(ens, IntegratorConfig(t_end=20.0, output_cadence=0.25, dt_safety=0.05))
        t = sink.times()
        dil = sink.series("dilation_moment")
        ekin = sink.series("energy_kinetic")
        etot = sink.series("energy_total")
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
        t = sink.times()
        conf = sink.series("conformal_moment")
        epot = sink.series("energy_potential")
        lhs = np.diff(conf) / np.diff(t)
        rhs = np.diff(t**2 * 2.0 * epot) / np.diff(t) - (
            0.5 * (t[1:] + t[:-1]) * (epot[1:] + epot[:-1])
        )
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        scale = np.maximum(scale, 0.02 * np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs) / scale) < 0.02
