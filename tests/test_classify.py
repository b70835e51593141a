import json

import numpy as np
import pytest

from vpshell import kurth
from vpshell.classify import (
    ThresholdCheck,
    TimeSeries,
    check_propositions,
    classify,
    concentration_limits,
    growth_exponent,
    strong_dispersion_test,
    virialization_metric,
    _detect_period,
    _variance_margin,
)
from vpshell.csvio import ParsedRun
from vpshell.dynamics import IntegratorConfig, _record_times, run
from vpshell.errors import DomainError
from vpshell.scenarios import CoreSpec, ShellSpec, build_shell, build_shell_plus_core


def make_run(times, variance, conc=None, lq=None, ekin=None, epot=None, energy=0.0,
             dilation=None):
    times = np.asarray(times, dtype=float)
    return ParsedRun(
        times=times,
        energy=np.full_like(times, energy),
        energy_kinetic=None if ekin is None else np.asarray(ekin, float),
        energy_potential=None if epot is None else np.asarray(epot, float),
        mass=np.ones_like(times),
        variance=np.asarray(variance, dtype=float),
        dilation=None if dilation is None else np.full_like(times, dilation),
        conformal=None,
        inner_radius=np.zeros_like(times),
        outer_radius=np.ones_like(times),
        inner_radius_shell=np.zeros_like(times),
        conc={} if conc is None else {k: np.asarray(v, float) for k, v in conc.items()},
        lq={} if lq is None else {k: np.asarray(v, float) for k, v in lq.items()},
    )


class TestGrowthExponent:
    @pytest.mark.parametrize("alpha", [0.0, 4.0 / 3.0, 2.0])
    def test_exact_power_laws(self, alpha):
        t = np.linspace(0.0, 1000.0, 200)
        fit = growth_exponent(TimeSeries(t, 3.0 * np.maximum(t, 1e-12) ** alpha))
        assert fit.exponent == pytest.approx(alpha, abs=1e-6)
        assert fit.band < 1e-6

    def test_insufficient_samples(self):
        t = np.linspace(1.0, 100.0, 5)
        assert growth_exponent(TimeSeries(t, t**2)) is None

    def test_insufficient_span(self):
        t = np.linspace(10.0, 30.0, 50)
        assert growth_exponent(TimeSeries(t, t**2)) is None

    def test_nonpositive_values(self):
        t = np.linspace(1.0, 1000.0, 50)
        v = np.ones(50)
        v[-1] = 0.0
        assert growth_exponent(TimeSeries(t, v)) is None


class TestConcentrationLimits:
    def test_total_dispersal(self):
        t = np.linspace(0.0, 100.0, 60)
        decay = 1.0 / (1.0 + t) ** 2
        out = concentration_limits(t, {1.0: 0.5 * decay, 2.0: 0.9 * decay, 4.0: decay}, 1.0)
        assert out["regime"] == "total"
        assert out["m_infinity"] == pytest.approx(0.0, abs=1e-2)

    def test_partial_plateau(self):
        t = np.linspace(0.0, 100.0, 60)
        decay = np.exp(-t / 5.0)
        conc = {1.0: 0.4 + 0.05 * decay, 4.0: 0.5 + 0.1 * decay, 8.0: 0.5 + 0.1 * decay}
        out = concentration_limits(t, conc, 1.0)
        assert out["regime"] == "partial"
        assert out["m_infinity"] == pytest.approx(0.5, abs=1e-2)
        # only the two largest radii decide: a smaller one, here still
        # trending, is not read
        assert sorted(out) == ["band", "converged", "m_infinity", "regime"]
        assert concentration_limits(t, {0.5: 0.5 + 0.004 * t, **conc}, 1.0) == out

    def test_no_dispersal(self):
        t = np.linspace(0.0, 100.0, 60)
        ones = np.ones_like(t)
        out = concentration_limits(t, {1.0: ones, 2.0: ones}, 1.0)
        assert out["regime"] == "none"

    def test_trending_is_flagged_unconverged(self):
        t = np.linspace(0.0, 100.0, 60)
        out = concentration_limits(t, {1.0: 0.5 + 0.004 * t, 2.0: 0.5 + 0.004 * t}, 1.0)
        assert out["regime"] is None
        assert not out["converged"]


class TestStrongDispersion:
    def test_decaying_norms(self):
        t = np.linspace(0.0, 200.0, 100)
        vals = 0.5 * (1.0 + t) ** -1.2
        flag, rate = strong_dispersion_test(TimeSeries(t, vals), 5.0 / 3.0)
        assert flag
        assert rate == pytest.approx(-1.2, abs=0.05)

    def test_constant_norms(self):
        t = np.linspace(0.0, 200.0, 100)
        flag, _ = strong_dispersion_test(TimeSeries(t, np.full(100, 0.5)), 5.0 / 3.0)
        assert not flag

    def test_decay_but_above_floor(self):
        t = np.linspace(0.0, 200.0, 100)
        vals = 0.5 - 0.001 * t  # shrinks 40%, far from the 1% floor
        flag, _ = strong_dispersion_test(TimeSeries(t, vals), 5.0 / 3.0)
        assert not flag


class TestVirializationMetric:
    def test_static_relation_gives_zero(self):
        t = np.linspace(0.0, 50.0, 200)
        ekin = np.full_like(t, 0.25)
        metric, flag = virialization_metric(-0.25, TimeSeries(t, ekin))
        assert np.max(np.abs(metric.values)) < 1e-14
        assert flag

    def test_positive_energy_bounded_below(self):
        t = np.linspace(0.0, 50.0, 200)
        ekin = 0.3 + 0.1 * np.exp(-t)
        metric, flag = virialization_metric(0.2, TimeSeries(t, ekin))
        assert np.all(metric.values >= 0.2)
        assert not flag

    def test_decaying_average_flags_virialized(self):
        t = np.linspace(0.0, 2000.0, 4000)
        ekin = 1.0 / (1.0 + t) ** 0.9
        metric, flag = virialization_metric(0.0, TimeSeries(t, ekin))
        assert flag


class TestPeriodDetector:
    def test_finds_period(self):
        t = np.arange(0.0, 60.0, 0.05)
        v = 1.0 + 0.6 * np.sin(2 * np.pi * t / 9.7) ** 2
        period = _detect_period(TimeSeries(t, v))
        assert period == pytest.approx(9.7 / 2.0, rel=0.01)

    def test_rejects_flat(self):
        t = np.arange(0.0, 60.0, 0.05)
        v = np.full_like(t, 3.0)
        v += 1e-9 * np.sin(t)
        assert _detect_period(TimeSeries(t, v)) is None

    def test_rejects_growth(self):
        t = np.arange(0.0, 60.0, 0.05)
        assert _detect_period(TimeSeries(t, (1 + t) ** 2)) is None


class TestCheckPropositions:
    """`classify` decides the E vs |Q|^2/(2M) check once and passes it."""

    ABOVE = ThresholdCheck(0.5, 0.0, "greater")
    BELOW = ThresholdCheck(-0.5, 0.0, "less")

    def status(self, checks, name):
        return {c.name: c.status for c in checks}[name]

    def test_dispersive_label_requires_energy_above_threshold(self):
        checks = check_propositions(self.ABOVE, "strongly-dispersive", True, None)
        assert self.status(checks, "necessary-energy") == "pass"
        bad = check_propositions(self.BELOW, "totally-dispersive", True, None)
        assert self.status(bad, "necessary-energy") == "fail"

    def test_variance_growth_check(self):
        # the smallest margin of the variance bound decides, at any E
        for threshold in (self.ABOVE, self.BELOW):
            checks = {c.name: c for c in check_propositions(
                threshold, "strongly-dispersive", True, (0.0, 0.0))}
            assert checks["variance-lower-bound"].status == "pass"
            bad = {c.name: c for c in check_propositions(
                threshold, "strongly-dispersive", True, (-1.5e-3, 12.5))}
            assert bad["variance-lower-bound"].status == "fail"
            assert bad["variance-lower-bound"].detail == "smallest margin=-0.0015 at t=12.5"
        # no dilation column: the bound cannot be formed
        checks = check_propositions(self.ABOVE, "strongly-dispersive", True, None)
        assert self.status(checks, "variance-lower-bound") == "not-applicable"

    TIMES = np.array(_record_times(0.0, 400.0, 0.5))

    def test_converged_slow_growth_still_fails(self):
        # negative control: variance growing like t (or t^1.3) at E > 0
        # falls below var(0) + 2 E t^2/M, however straight its log-log fit
        for values in (0.6 * self.TIMES, 0.6 * self.TIMES**1.3):
            run = make_run(self.TIMES, values, energy=0.5, dilation=0.0)
            checks = {c.name: c.status for c in classify(run, 0.5, 0.0, 1.0).propositions}
            assert checks["variance-lower-bound"] == "fail"
        # and a curved one: 2 + 0.6 t^1.3 at E = 0.1, M = 1, D(0) = 0
        # falls below the bound 2 + 0.2 t^2 from t ~ 4.8 on (74.6 against
        # 322 at t = 40)
        times = self.TIMES[self.TIMES <= 40.0]
        run = make_run(times, 2.0 + 0.6 * times**1.3, energy=0.1, dilation=0.0)
        check = {c.name: c for c in classify(run, 0.1, 0.0, 1.0).propositions}
        margin, at = _variance_margin(run)
        assert at == 40.0
        assert margin == pytest.approx(0.6 * 40.0**1.3 - 0.2 * 40.0**2)
        assert check["variance-lower-bound"].status == "fail"
        assert check["variance-lower-bound"].detail == f"smallest margin={margin:.6g} at t=40"

    def test_field_energy_equivalence(self):
        checks = check_propositions(self.ABOVE, "partially-dispersive", False, None)
        assert self.status(checks, "field-energy-equivalence") == "pass"
        bad = check_propositions(self.ABOVE, "partially-dispersive", True, None)
        assert self.status(bad, "field-energy-equivalence") == "fail"

    def test_steady_needs_negative_energy(self):
        ok = check_propositions(ThresholdCheck(-0.1, 0.0, "less"), "steady", False, None)
        assert self.status(ok, "steady-energy") == "pass"
        bad = check_propositions(ThresholdCheck(0.1, 0.0, "greater"), "steady", False, None)
        assert self.status(bad, "steady-energy") == "fail"


class TestVarianceLowerBound:
    """var(t) >= var(0) + 2 D(0) t/M + 2 E(0) t^2/M, less the drift of E."""

    @staticmethod
    def bound_check(table):
        report = classify(table, float(table.energy[0]), 0.0, float(table.mass[0]))
        return {c.name: c for c in report.propositions}["variance-lower-bound"]

    def escaping_shell(self):
        ensemble, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5,
                                            w_max=0.6, n=400, seed=3))
        return run(ensemble, IntegratorConfig(t_end=40.0, output_cadence=0.5)).records

    def shell_plus_core(self):
        ensemble, _ = build_shell_plus_core(
            CoreSpec(mass=1.0, radius=1.0, n=400, seed=4),
            ShellSpec(mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48, n=100,
                      seed=5))
        return run(ensemble, IntegratorConfig(t_end=40.0, output_cadence=0.5)).records

    @pytest.mark.parametrize("builder, sign", [("escaping_shell", 1.0),
                                               ("shell_plus_core", -1.0)])
    def test_simulator_runs_pass(self, builder, sign):
        table = getattr(self, builder)()
        assert sign * table.energy[0] > 0.0
        check = self.bound_check(table)
        assert check.status == "pass", check.detail
        # the margin grows from 0 at t = 0, so the first row after it
        # holds the smallest
        margin, at = _variance_margin(table)
        assert margin > 0.0 and at == 0.5
        assert check.detail == f"smallest margin={margin:.6g} at t=0.5"

    def test_energy_drift_widens_the_bound(self):
        # E falling from 0.1 to 0.04 after t = 0 lowers the bound by
        # 2 t^2 delta/M, so a variance of 2 + 0.1 t^2 passes only through
        # the drift
        times = np.array(_record_times(0.0, 40.0, 0.5))
        table = make_run(times, 2.0 + 0.1 * times**2, energy=0.1, dilation=0.0)
        assert self.bound_check(table).status == "fail"
        table.energy = np.where(times > 0.0, 0.04, 0.1)
        assert self.bound_check(table).status == "pass"



class TestClassifyCascade:
    def test_truncated_series_is_undetermined(self):
        run = make_run(np.linspace(0, 5, 6), np.ones(6))
        report = classify(run, 0.0, 0.0, 1.0)
        assert report.label == "undetermined"

    @pytest.mark.parametrize("energy, momentum, mass", [
        (0.0, -1.0, 1.0), (0.0, 1e300, 1.0), (0.0, 1e5, 1e-300), (0.0, np.nan, 1.0),
        (np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, -1.0),
    ])
    def test_invariants_outside_domain_refused(self, energy, momentum, mass):
        # mass 0 divided by zero, |Q| = 1e300 overflowed, the others gave a label
        run = make_run(np.linspace(0, 5, 6), np.ones(6))
        with pytest.raises(DomainError):
            classify(run, energy, momentum, mass)

    def test_strong_dispersion_wins(self):
        t = np.linspace(0.0, 400.0, 300)
        run = make_run(
            t,
            0.6 * (1 + t) ** 2,
            conc={1.0: 1 / (1 + t), 4.0: 1 / (1 + t)},
            lq={5.0 / 3.0: 0.56 * (1 + t) ** -1.5},
        )
        report = classify(run, 0.75, 0.0, 1.0)
        assert report.label == "strongly-dispersive"
        assert report.statistically_dispersive

    def test_partial_plateau_label(self):
        t = np.linspace(0.0, 400.0, 300)
        decay = np.exp(-t / 30.0)
        run = make_run(
            t,
            1.0 + 0.2 * (1 + t) ** 2 / 1.2,
            conc={1.0: 0.98 + 0.02 * decay, 4.0: 1.0 + 0.1 * decay, 8.0: 1.0 + 0.1 * decay},
            lq={5.0 / 3.0: np.full_like(t, 0.3)},
        )
        report = classify(run, -0.01, 0.0, 1.2)
        assert report.label == "partially-dispersive"
        assert report.statistically_dispersive
        assert report.m_infinity == pytest.approx(1.0, abs=0.02)

    def test_periodic_label(self):
        t = np.arange(0.0, 80.0, 0.1)
        var = 1.0 + 0.8 * np.sin(2 * np.pi * t / 9.7) ** 2
        conc_osc = 0.6 + 0.3 * np.sin(2 * np.pi * t / 9.7) ** 2
        run = make_run(t, var, conc={1.0: conc_osc, 4.0: conc_osc}, lq={})
        report = classify(run, -0.45, 0.0, 1.0)
        assert report.label == "periodic"

    def test_steady_label(self):
        t = np.linspace(0.0, 100.0, 200)
        ones = np.ones_like(t)
        run = make_run(t, 0.6 * ones, conc={1.0: ones, 2.0: ones},
                       lq={5.0 / 3.0: 0.56 * ones},
                       ekin=0.25 * ones, epot=0.5 * ones)
        report = classify(run, -0.25, 0.0, 1.0)
        assert report.label == "steady"
        assert not report.statistically_dispersive
        assert report.virialized

    def test_sufficient_condition_sets_statistical_flag(self):
        # the escaping shell to t = 3: its variance grew 5.8x, short of
        # STAT_GROWTH_FACTOR, and no dispersive label holds yet, but
        # E > |Q|^2/(2M) is the paper's sufficient condition
        ensemble, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5,
                                            w_max=0.6, n=2000))
        table = run(ensemble, IntegratorConfig(t_end=3.0, output_cadence=0.1),
                    r_grid=(1.0, 2.0), q_list=(5.0 / 3.0,)).records
        report = classify(table, float(table.energy[0]), 0.0, float(table.mass[0]))
        assert report.threshold.relation == "greater"
        assert table.variance[-1] < 10.0 * table.variance[0]
        assert report.label == "undetermined"
        assert report.statistically_dispersive
        assert "E > Q^2/2M: statistically dispersive by the sufficient condition" in report.notes

    def test_labels_never_break_implication_chain(self):
        # dispersive labels must carry the statistical flag
        t = np.linspace(0.0, 400.0, 300)
        run = make_run(
            t,
            np.full_like(t, 2.0),  # variance flat: raw flag false
            conc={1.0: 1 / (1 + t), 4.0: 1 / (1 + t)},
            lq={5.0 / 3.0: 0.56 * (1 + t) ** -1.5},
        )
        report = classify(run, 0.5, 0.0, 1.0)
        assert report.label == "strongly-dispersive"
        assert report.statistically_dispersive


def oracle_report_dict(report):
    """The report.json payload, written out field by field: the
    hand-kept serialisation that `ClassificationReport.to_dict` replaced."""
    return {
        "label": report.label,
        "statistically_dispersive": report.statistically_dispersive,
        "growth_exponent": None
        if report.growth is None
        else {
            "value": report.growth.exponent,
            "band": report.growth.band,
            "n_samples": report.growth.n_samples,
            "window": list(report.growth.window),
        },
        "m_infinity": report.m_infinity,
        "m_infinity_band": report.m_infinity_band,
        "concentration_converged": report.concentration_converged,
        "strong_decay_rate": report.strong_decay_rate,
        "virialized": report.virialized,
        "virial_metric_final": report.virial_metric_final,
        "virial_metric_trace": [list(pair) for pair in report.virial_metric_trace],
        "threshold_check": None
        if report.threshold is None
        else {
            "E": report.threshold.energy,
            "Q2_over_2M": report.threshold.q_sq_over_2m,
            "relation": report.threshold.relation,
        },
        "propositions": [
            {"name": p.name, "status": p.status, "detail": p.detail}
            for p in report.propositions
        ],
        "notes": list(report.notes),
    }


def report_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def kurth_label(k):
    """The family's exact regime, as a classifier label."""
    if k == 0.0:
        return "steady"
    return "periodic" if abs(k) < 1.0 else "strongly-dispersive"


KURTH_SCAN_K = [i / 100 for i in range(-200, 201)]


@pytest.fixture(scope="module", params=[400.0, 100.0], ids=["t400", "t100"])
def kurth_scan(request):
    """(k, report) for k = -2 ... 2 in steps of 0.01, each member's table
    built with the kurth-sweep benchmark's settings (cadence 0.5,
    r_grid 1,2,4,8, q_list 5/3,3) and classified with E from its first
    row, as `vpshell classify` takes it, and M = 1."""
    times = np.array(_record_times(0.0, request.param, 0.5))
    reports = []
    for k in KURTH_SCAN_K:
        phi, phi_dot = kurth.phi_closed_form(times, k)
        table = kurth.kurth_diagnostics(times, phi, phi_dot, (5.0 / 3.0, 3.0),
                                        (1.0, 2.0, 4.0, 8.0))
        reports.append((k, classify(table, float(table.energy[0]), 0.0, 1.0)))
    return reports


class TestNecessaryConditionGate:
    def test_kurth_scan_labels_are_exact_or_undetermined(self, kurth_scan):
        # a bound member whose expansion outlasts the horizon must not be
        # labelled strongly or totally dispersive: E < 0 forbids both
        wrong = [(k, r.label) for k, r in kurth_scan
                 if r.label not in (kurth_label(k), "undetermined")]
        assert wrong == []
        failed = [(k, p.name, p.detail) for k, r in kurth_scan for p in r.propositions
                  if p.status == "fail"]
        assert failed == []
        # the marginal members (E = 0 exactly) keep their dispersive label
        labels = dict(kurth_scan)
        assert labels[1.0].label == labels[-1.0].label == "strongly-dispersive"

    def test_variance_bound_not_applicable(self, kurth_scan):
        # a Kurth table has no dilation column, and its E is normalised
        # otherwise than the simulator's
        statuses = {p.status for _, r in kurth_scan for p in r.propositions
                    if p.name == "variance-lower-bound"}
        assert statuses == {"not-applicable"}

    def test_note_only_when_a_branch_is_skipped(self, kurth_scan):
        gated = {k for k, r in kurth_scan
                 if any("ruled out" in note for note in r.notes)}
        assert gated
        assert all(0.0 < abs(k) < 1.0 for k in gated)
        assert all(r.label != "strongly-dispersive" for k, r in kurth_scan if k in gated)

    def test_decaying_norm_below_threshold(self):
        t = np.linspace(0.0, 400.0, 300)
        decaying = make_run(t, 0.6 * (1 + t) ** 2, conc={1.0: 1 / (1 + t), 4.0: 1 / (1 + t)},
                            lq={5.0 / 3.0: 0.56 * (1 + t) ** -1.5})
        assert classify(decaying, 0.5, 0.0, 1.0).label == "strongly-dispersive"
        # |Q|^2/(2M) = 0.5 > E: neither strong nor total dispersion holds
        report = classify(decaying, 0.25, 1.0, 1.0)
        assert report.label not in ("strongly-dispersive", "totally-dispersive")
        assert "E < Q^2/2M: strong and total dispersion ruled out" in report.notes

    def test_vanishing_energy_rounding_does_not_gate(self):
        # E = 0 in exact arithmetic, rounded to -1e-17: with |E_kin(0)| in
        # the energy scale the relation is "equal", not a rounding sign
        t = np.linspace(0.0, 400.0, 300)
        decaying = make_run(t, 0.6 * (1 + t) ** 2, conc={1.0: 1 / (1 + t), 4.0: 1 / (1 + t)},
                            lq={5.0 / 3.0: 0.56 * (1 + t) ** -1.5}, ekin=np.full(t.size, 0.5))
        report = classify(decaying, -1.0e-17, 0.0, 1.0)
        assert report.threshold.relation == "equal"
        assert report.label == "strongly-dispersive"
        assert not any("ruled out" in note for note in report.notes)


class TestHolderGate:
    """A mass that stays in a ball B_R keeps ||rho||_q >= Q(R)/|B_R|^(1-1/q):
    a converged concentration plateau rules strong dispersion out."""

    NOTE = "concentration plateau above MASS_TOL_FRAC * M: strong dispersion ruled out"

    def test_decaying_norm_beside_a_plateau(self):
        t = np.linspace(0.0, 400.0, 300)
        table = make_run(t, 0.6 * (1 + t) ** 2, conc={4.0: np.full(t.size, 0.5),
                                                      8.0: np.full(t.size, 0.5)},
                         lq={5.0 / 3.0: 0.56 * (1 + t) ** -1.5})
        report = classify(table, 0.5, 0.0, 1.0)
        assert report.label == "partially-dispersive"
        assert self.NOTE in report.notes
        # no plateau: the same norm still reads strong, with no note
        table.conc = {4.0: 1 / (1 + t), 8.0: 1 / (1 + t)}
        report = classify(table, 0.5, 0.0, 1.0)
        assert report.label == "strongly-dispersive" and self.NOTE not in report.notes

    def test_bound_core_beside_escaping_shell(self):
        # the shell escapes, so r_max and every bin of the L^q histogram
        # grow like t and the binned norm of the core decays like
        # t^(-3(1 - 1/q)), while the core stays: without the gate this
        # reads strongly-dispersive
        ensemble, _ = build_shell_plus_core(
            CoreSpec(mass=1.0, radius=1.0, n=400, seed=1),
            ShellSpec(mass=1.0, r_inner=2.0, r_outer=2.5, w_min=2.0, w_max=2.2, n=100,
                      seed=2))
        cfg = IntegratorConfig(t_end=500.0, output_cadence=5.0, dt_safety=0.05)
        table = run(ensemble, cfg, r_grid=(1.0, 4.0, 8.0), q_list=(5.0 / 3.0,)).records
        assert table.energy[0] > 0.0
        assert strong_dispersion_test(TimeSeries(table.times, table.lq[5.0 / 3.0]),
                                      5.0 / 3.0)[0]
        report = classify(table, float(table.energy[0]), 0.0, float(table.mass[0]))
        assert report.label == "partially-dispersive"
        assert self.NOTE in report.notes
        assert report.m_infinity == pytest.approx(1.0, abs=0.01)
        checks = {c.name: c.status for c in report.propositions}
        assert checks["field-energy-equivalence"] == "pass"


class TestReportJson:
    """`to_dict` derives from the dataclasses; the oracle spells it out."""

    def test_kurth_scan(self, kurth_scan):
        for k, report in kurth_scan:
            assert report_json(report.to_dict()) == report_json(oracle_report_dict(report)), k

    def test_simulator_report_with_virial_trace(self):
        ensemble, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.5, w_min=0.2,
                                            w_max=0.4, n=200, ell_max=0.1, seed=5))
        table = run(ensemble, IntegratorConfig(t_end=20.0, output_cadence=0.5),
                    r_grid=(1.0, 2.0), q_list=(5.0 / 3.0,)).records
        report = classify(table, float(table.energy[0]), 0.0, float(table.mass[0]))
        assert len(report.virial_metric_trace) > 1
        assert report.growth is not None and report.propositions
        assert report_json(report.to_dict()) == report_json(oracle_report_dict(report))

    def test_short_series_report(self):
        report = classify(make_run(np.linspace(0, 5, 6), np.ones(6)), -0.5, 0.0, 1.0)
        assert report.notes == ("fewer than 10 samples",)
        assert report_json(report.to_dict()) == report_json(oracle_report_dict(report))
