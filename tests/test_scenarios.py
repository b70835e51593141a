import math

import numpy as np
import pytest

from vpshell import (
    CoreSpec,
    DomainError,
    IntegratorConfig,
    ShellSpec,
    build_circular_core,
    build_shell,
    build_shell_plus_core,
    dynamical_time,
    kinetic_energy,
    potential_energy,
)
from vpshell.dynamics import run


class TestBuildShell:
    def test_escape_report_numbers(self):
        spec = ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.5, w_max=0.6, n=100)
        _, report = build_shell(spec)
        assert report.escape_threshold == pytest.approx(0.3989422804014327, rel=1e-12)
        assert report.satisfied
        assert report.margin == pytest.approx(0.30140513749454345, rel=1e-12)

    def test_below_threshold_reported(self):
        spec = ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.0, w_max=0.1, n=100)
        _, report = build_shell(spec)
        assert not report.satisfied
        assert report.margin_sq < 0.0
        assert report.margin == 0.0

    def test_deterministic(self):
        spec = ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.2, w_max=0.4, n=500, seed=3)
        a, _ = build_shell(spec)
        b, _ = build_shell(spec)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.ell, b.ell)

    def test_support_and_weights(self):
        spec = ShellSpec(mass=2.0, r_inner=1.0, r_outer=1.5, w_min=0.2, w_max=0.4,
                         ell_min=0.1, ell_max=0.2, n=777, seed=1)
        e, _ = build_shell(spec)
        assert np.all((e.r >= 1.0) & (e.r <= 1.5))
        assert np.all((e.w >= 0.2) & (e.w <= 0.4))
        assert np.all((e.ell >= 0.1) & (e.ell <= 0.2))
        assert np.all(e.mass == 2.0 / 777)
        assert e.total_mass == pytest.approx(2.0, rel=1e-14)
        assert set(e.group) == {"shell"}

    def test_invalid_spec(self):
        with pytest.raises(DomainError):
            ShellSpec(mass=1.0, r_inner=1.5, r_outer=1.0, w_min=0.0, w_max=0.1, n=10)
        with pytest.raises(DomainError):
            ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.3, w_max=0.1, n=10)

    @pytest.mark.parametrize("field", ["mass", "r_inner", "r_outer", "w_min", "w_max",
                                       "ell_min", "ell_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_spec_rejected(self, field, value):
        # NaN fails no ordered comparison, so it needs its own check
        values = dict(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.1, w_max=0.2, n=10)
        values[field] = value
        with pytest.raises(DomainError, match="finite"):
            ShellSpec(**values)


class TestBuildCircularCore:
    def test_energies_match_closed_forms(self):
        e = build_circular_core(CoreSpec(mass=1.0, radius=1.0, n=20_000, seed=2))
        assert kinetic_energy(e) == pytest.approx(3.0 / (40 * math.pi), rel=1e-2)
        assert potential_energy(e) == pytest.approx(3.0 / (20 * math.pi), rel=1e-2)

    def test_virial_relation(self):
        e = build_circular_core(CoreSpec(mass=1.0, radius=1.0, n=20_000, seed=2))
        total = kinetic_energy(e) - potential_energy(e)
        assert abs(total + kinetic_energy(e)) / kinetic_energy(e) < 0.02

    def test_steady_under_evolution(self):
        # discreteness jiggle scales down with N; 1e4 particles hold the
        # variance to better than 0.1% over 20 dynamical times
        e = build_circular_core(CoreSpec(mass=1.0, radius=1.0, n=10_000, seed=4))
        t_dyn = dynamical_time(1.0, 1.0)
        sink = run(e, IntegratorConfig(t_end=20 * t_dyn, output_cadence=t_dyn))
        var = sink.series("variance")
        assert (var.max() - var.min()) / var[0] < 1e-3

    @pytest.mark.parametrize("field", ["mass", "radius"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spec_rejected(self, field, value):
        values = dict(mass=1.0, radius=1.0, n=10)
        values[field] = value
        with pytest.raises(DomainError, match="finite"):
            CoreSpec(**values)

    def test_negative_seed_rejected(self):
        # Philox takes only non-negative seeds; refuse with a DomainError first
        with pytest.raises(DomainError, match="seed"):
            CoreSpec(mass=1.0, radius=1.0, n=10, seed=-1)
        with pytest.raises(DomainError, match="seed"):
            ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.1, w_max=0.2, n=10,
                      seed=-1)


class TestShellPlusCore:
    def make(self, m=0.2, w_min=0.42, w_max=0.48, n_core=20_000, n_shell=5_000):
        core = CoreSpec(mass=1.0, radius=1.0, n=n_core, seed=11)
        shell = ShellSpec(mass=m, r_inner=2.0, r_outer=2.5, w_min=w_min, w_max=w_max,
                          n=n_shell, seed=12)
        return build_shell_plus_core(core, shell)

    def test_mass_bound_formula(self):
        _, report = self.make()
        e0 = report.core_energy
        expected = 0.5 * (-1.0 + math.sqrt(1.0 - 16 * math.pi * e0 * 2.0))
        assert report.shell_mass_max == pytest.approx(expected, rel=1e-12)
        # with the exact core energy -3/(40 pi) this is 0.42195...
        assert report.shell_mass_max == pytest.approx(0.4219544, abs=1e-3)

    def test_combined_threshold(self):
        _, report = self.make()
        assert report.escape_threshold == pytest.approx(
            math.sqrt(1.2 / (2 * math.pi * 2.0)), rel=1e-12
        )

    def test_window_feasible_choice(self):
        _, report = self.make()
        assert report.double_inequality_ok
        assert report.total_energy < 0.0
        assert report.escape_satisfied

    def test_window_infeasible_when_mass_too_large(self):
        # above the bound the momentum window is empty
        _, report = self.make(m=0.6, w_min=0.45, w_max=0.5, n_core=2_000, n_shell=500)
        lo, hi = report.momentum_window
        assert lo >= hi
        assert not report.double_inequality_ok

    def test_overlap_rejected(self):
        core = CoreSpec(mass=1.0, radius=2.5, n=100, seed=0)
        shell = ShellSpec(mass=0.1, r_inner=2.0, r_outer=3.0, w_min=0.4, w_max=0.5, n=100)
        with pytest.raises(DomainError):
            build_shell_plus_core(core, shell)

    def test_groups_preserved(self):
        ens, _ = self.make(n_core=1_000, n_shell=300)
        assert int(np.sum(ens.group == "core")) == 1_000
        assert int(np.sum(ens.group == "shell")) == 300

    def test_interior_untouched_while_shell_recedes(self):
        ens, report = self.make(n_core=5_000, n_shell=1_000)
        sink = run(ens, IntegratorConfig(t_end=50.0, output_cadence=2.0))
        core_stats = [gs["core"] for gs in sink.group_stats]
        ekin = np.array([s["kinetic"] for s in core_stats])
        var = np.array([s["variance"] for s in core_stats])
        assert (ekin.max() - ekin.min()) / ekin[0] < 0.01
        assert (var.max() - var.min()) / var[0] < 0.01
        shell_r1 = np.array([gs["shell"]["min_r"] for gs in sink.group_stats])
        assert np.all(np.diff(shell_r1) > 0.0)

    def test_variance_dominates_shell_radius(self):
        ens, _ = self.make(n_core=2_000, n_shell=500)
        sink = run(ens, IntegratorConfig(t_end=50.0, output_cadence=5.0))
        for rec, gs in zip(sink.records, sink.group_stats):
            lhs = 1.2 * rec.variance
            rhs = 0.2 * gs["shell"]["min_r"] ** 2
            assert lhs >= rhs * (1.0 - 1e-12)
