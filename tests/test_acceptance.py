"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s or read captured output on failure).

Criterion 7c checks the virial average of the marginal exact solution
(Kurth k = 1, E = 0) against its closed form:
  phi = (1 + v**2)/2 with v + v**3/3 = 2t + 4/3, so v' = 1/phi, v(0) = 1;
  E_kin = (3/5)(phi'**2 + phi**-2) = 1.2/phi, so int_0^t E_kin = 1.2 (v - 1);
  metric(t)/E_kin(0) = (v - 1)/t = 6/(v**2 + v + 4).
This is 1.712e-2 at t = 1e3 and reaches 1e-2 at t_c ~ 2291.8, where
v_c**2 + v_c - 596 = 0.
"""

import math
import os
import time

import numpy as np
import pytest

import vpshell as vp
from vpshell.classify import TimeSeries, classify, growth_exponent, virialization_metric
from vpshell.cli import cmd_sweep, main
from vpshell.config import parse_config
from vpshell.csvio import read_diagnostics, write_diagnostics
from vpshell.dynamics import IntegratorConfig, _record_times, energy_drift, run
from vpshell.kurth import (
    first_integral,
    kurth_energy,
    kurth_lq_norm,
    kurth_period,
    phi_closed_form,
)
from conftest import galilean_shift, integrate_phi

FOUR_PI = 4.0 * math.pi


def report_line(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    return ok


def classify_sink(sink, r_grid, q_list, tmp_path, name):
    path = os.path.join(str(tmp_path), f"{name}.csv")
    write_diagnostics(path, sink.records, r_grid, q_list)
    parsed = read_diagnostics(path)
    table = sink.records
    return parsed, classify(parsed, float(table.energy[0]), 0.0, float(table.mass[0]))


# ----------------------------------------------------------------------
# shared runs (module scope: each executes once)
# ----------------------------------------------------------------------

R3_GRID = (1.0, 2.0, 4.0)
R4_GRID = (1.0, 2.0)
R5_GRID = (1.0, 4.0, 8.0)
Q_LIST = (5.0 / 3.0,)


@pytest.fixture(scope="module")
def shell_run(tmp_path_factory):
    spec = vp.ShellSpec(
        mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5, w_max=0.6,
        n=10_000, seed=20250808,
    )
    ensemble, build_report = vp.build_shell(spec)
    t0 = time.time()
    sink = run(
        ensemble,
        IntegratorConfig(t_end=100.0, output_cadence=0.25, dt_safety=0.05),
        r_grid=R3_GRID,
        q_list=Q_LIST,
        snapshot_times=_record_times(0.0, 100.0, 0.25),
    )
    elapsed = time.time() - t0
    # the shell's group statistics at every record; the 401 snapshots
    # (about 0.5 MB each) are reduced and dropped
    group_stats = [vp.group_stats(snap) for snap in sink.snapshots]
    sink.snapshots.clear()
    tmp = tmp_path_factory.mktemp("run3")
    parsed, label_report = classify_sink(sink, R3_GRID, Q_LIST, tmp, "run3")
    return {
        "spec": spec, "build": build_report, "sink": sink, "group_stats": group_stats,
        "parsed": parsed, "report": label_report, "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def core_run(tmp_path_factory):
    spec = vp.CoreSpec(mass=1.0, radius=1.0, n=100_000, seed=7)
    ensemble = vp.build_circular_core(spec)
    t_dyn = vp.dynamical_time(1.0, 1.0)
    sink = run(
        ensemble,
        IntegratorConfig(t_end=100.0 * t_dyn, output_cadence=2.0),
        r_grid=R4_GRID,
        q_list=Q_LIST,
    )
    tmp = tmp_path_factory.mktemp("run4")
    parsed, label_report = classify_sink(sink, R4_GRID, Q_LIST, tmp, "run4")
    return {"spec": spec, "sink": sink, "parsed": parsed, "report": label_report,
            "t_dyn": t_dyn}


@pytest.fixture(scope="module")
def composite_run(tmp_path_factory):
    core_spec = vp.CoreSpec(mass=1.0, radius=1.0, n=20_000, seed=11)
    shell_spec = vp.ShellSpec(
        mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
        n=5_000, seed=12,
    )
    ensemble, build_report = vp.build_shell_plus_core(core_spec, shell_spec)
    sink = run(
        ensemble,
        IntegratorConfig(t_end=800.0, output_cadence=2.0, dt_safety=0.05),
        r_grid=R5_GRID,
        q_list=Q_LIST,
    )
    tmp = tmp_path_factory.mktemp("run5")
    parsed, label_report = classify_sink(sink, R5_GRID, Q_LIST, tmp, "run5")
    return {
        "core_spec": core_spec, "shell_spec": shell_spec, "build": build_report,
        "sink": sink, "parsed": parsed, "report": label_report,
    }


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_kurth_regime_table(tmp_path):
    ok = True
    for k in (0.0, 0.5, 1.0, 1.5):
        expected = 0.6 * (k * k - 1.0)
        ok &= abs(kurth_energy(k) - expected) <= 1e-12
        ok &= abs(float(first_integral(1.0, k)) - expected) <= 1e-12
    ok = report_line("1a energies (3/5)(k^2-1) to 1e-12", ok, "k in {0,0.5,1,1.5}")

    static = integrate_phi(0.0, 50.0)
    ok_b = bool(np.all(static.phi == 1.0) and np.all(static.phi_dot == 0.0))
    ok &= report_line("1b static member exact", ok_b, "phi == 1 bitwise")

    period = kurth_period(0.5)
    traj = integrate_phi(0.5, period)
    err = max(abs(traj.phi[-1] - 1.0), abs(traj.phi_dot[-1] - 0.5))
    ok &= report_line(
        "1c periodic return after quadrature period", err <= 1e-5,
        f"T={period:.6f}, return error {err:.2e}",
    )

    worst = 0.0
    for k in (0.0, 0.5, 1.0, 1.5):
        t = integrate_phi(k, 50.0)
        inv = first_integral(t.phi, t.phi_dot)
        scale = 0.6 * (k * k + 3.0)
        worst = max(worst, float(np.max(
            np.abs(inv - inv[0]) / scale / np.maximum(t.t, 1.0)
        )))
    ok &= report_line("1d first-integral drift", worst <= 1e-8, f"max {worst:.2e}/unit time")

    for k in (1.0, 1.5):
        phi, _ = phi_closed_form(np.linspace(0.0, 400.0, 400), k)
        norms = kurth_lq_norm(phi, 5.0 / 3.0)
        ok &= report_line(
            f"1e density norm decays (k={k})", norms[-1] < 1e-2 * norms[0],
            f"ratio {norms[-1] / norms[0]:.2e}",
        )

    cfg = parse_config(
        "scenario = kurth\nkurth.k = 0.0\nt_end = 400.0\noutput_cadence = 0.2\n"
        "r_grid = 1.0,4.0,8.0\nq_list = 1.6666666666666667\n"
    )
    summary = cmd_sweep(cfg, "kurth.k", [0.0, 0.5, 1.0, 1.5], str(tmp_path / "sweep"))
    labels = [line.split(",")[3] for line in open(summary).read().splitlines()[1:]]
    expected = ["steady", "periodic", "strongly-dispersive", "strongly-dispersive"]
    ok &= report_line("1f sweep labels", labels == expected, f"{labels}")
    assert ok


def test_criterion_02_growth_exponents():
    t0 = time.time()
    ok = True
    for k, target in ((1.0, 4.0 / 3.0), (1.5, 2.0)):
        t = np.linspace(100.0, 10_000.0, 500)
        phi, _ = phi_closed_form(t, k)
        fit = growth_exponent(TimeSeries(t, 0.6 * phi**2))
        ok &= report_line(
            f"2 variance exponent (k={k})", abs(fit.exponent - target) <= 0.05,
            f"{fit.exponent:.4f} vs {target:.4f} +- 0.05",
        )
    print(f"  criterion 2 runtime: {time.time() - t0:.2f}s")
    assert ok


def test_criterion_03_escaping_shell(shell_run):
    sink = shell_run["sink"]
    build = shell_run["build"]
    label_report = shell_run["report"]

    ok = report_line(
        "3a escape threshold and margin",
        abs(build.escape_threshold - 0.3989422804014327) < 1e-12
        and abs(build.margin - 0.30140513749454345) < 1e-12,
        f"threshold {build.escape_threshold:.6f}, W {build.margin:.6f}",
    )

    W = build.margin
    table = sink.records
    r_ok = all(
        r1 >= 1.0 + W * t * 0.98 for t, r1 in zip(table.times, table.inner_radius_shell)
    )
    ok &= report_line("3b inner radius grows at rate W", r_ok, f"W = {W:.4f}")

    w_ok = all(gs["shell"]["min_w"] >= 0.98 * W for gs in shell_run["group_stats"])
    ok &= report_line("3c radial momentum floor", w_ok, "min w >= 0.98 W")

    pot_ok = all(
        epot <= 1.02 / (8.0 * math.pi * r1)
        for epot, r1 in zip(table.energy_potential, table.inner_radius_shell)
    )
    ok &= report_line("3d field-energy envelope", pot_ok, "E_pot <= 1.02 M^2/(8 pi R1)")

    ok &= report_line(
        "3e dispersive label",
        label_report.label in ("totally-dispersive", "strongly-dispersive"),
        label_report.label,
    )
    statuses = {p.name: p.status for p in label_report.propositions}
    prop_ok = set(statuses.values()) <= {"pass", "not-applicable"}
    prop_ok &= statuses["variance-lower-bound"] == "pass"
    energy = sink.records.energy[0]
    ok &= report_line(
        "3f propositions consistent", prop_ok and energy >= 0.0,
        f"E = {energy:.4f} >= Q^2/2M = 0; "
        + ", ".join(f"{p.name}:{p.status}" for p in label_report.propositions),
    )
    ok &= report_line(
        "3g runtime", shell_run["elapsed"] <= 60.0, f"{shell_run['elapsed']:.1f}s <= 60s"
    )
    ok &= report_line("3h energy drift", energy_drift(sink) <= 1e-3,
                      f"{energy_drift(sink):.2e}")
    assert ok


def test_criterion_04_static_core(core_run):
    sink = core_run["sink"]
    table = sink.records
    ekin = table.energy_kinetic
    energy = table.energy[0]
    ekin_ref = 3.0 / (40.0 * math.pi)
    epot_ref = 3.0 / (20.0 * math.pi)

    ok = report_line(
        "4a kinetic energy", abs(ekin[0] - ekin_ref) <= 0.01 * ekin_ref,
        f"{ekin[0]:.6f} vs 3/(40 pi) = {ekin_ref:.6f}",
    )
    epot0 = table.energy_potential[0]
    ok &= report_line(
        "4b field energy", abs(epot0 - epot_ref) <= 0.01 * epot_ref,
        f"{epot0:.6f} vs 3/(20 pi) = {epot_ref:.6f}",
    )
    virial = np.abs(energy + ekin) / ekin
    ok &= report_line("4c virial relation", float(virial.max()) <= 0.02,
                      f"max |E + E_kin|/E_kin = {virial.max():.2e}")
    var = table.variance
    drift = (var.max() - var.min()) / var[0]
    ok &= report_line(
        "4d variance drift over 100 dynamical times", drift <= 1e-3,
        f"{drift:.2e} over t = {table.times[-1]:.1f}",
    )
    label_report = core_run["report"]
    ok &= report_line("4e steady label", label_report.label == "steady", label_report.label)
    steady_prop = {p.name: p.status for p in label_report.propositions}["steady-energy"]
    ok &= report_line(
        "4f static solutions have E < 0",
        steady_prop == "pass" and energy < 0.0,
        f"E = {energy:.6f}",
    )
    ok &= report_line("4g energy drift", energy_drift(sink) <= 1e-3,
                      f"{energy_drift(sink):.2e}")
    assert ok


def test_criterion_05_negative_energy_partial_dispersal(composite_run):
    sink = composite_run["sink"]
    build = composite_run["build"]
    label_report = composite_run["report"]
    m0, m = 1.0, composite_run["shell_spec"].mass

    expected_bound = 0.5 * (
        -m0 + math.sqrt(m0 * m0 - 16.0 * math.pi * build.core_energy * 2.0)
    )
    ok = report_line(
        "5a shell-mass bound", abs(build.shell_mass_max - expected_bound) < 1e-12
        and m < build.shell_mass_max,
        f"m = {m} < m_max = {build.shell_mass_max:.4f}",
    )
    ok &= report_line(
        "5b momentum window satisfied", build.double_inequality_ok,
        f"window ({build.momentum_window[0]:.4f}, {build.momentum_window[1]:.4f})",
    )
    energy = sink.records.energy[0]
    ok &= report_line("5c total energy negative", energy < 0.0, f"E = {energy:.6f}")

    var_ok = all(
        (m0 + m) * variance >= m * r1 ** 2 * (1.0 - 1e-12)
        for variance, r1 in zip(sink.records.variance, sink.records.inner_radius_shell)
    )
    ok &= report_line("5d variance dominates shell radius", var_ok,
                      "(M0+m) var >= m R1_shell^2 at every record")

    growth = label_report.growth
    ok &= report_line("5e variance exponent", abs(growth.exponent - 2.0) <= 0.1,
                      f"{growth.exponent:.4f} vs 2 +- 0.1")
    ok &= report_line(
        "5f partially dispersive with surviving core",
        label_report.label == "partially-dispersive"
        and abs(label_report.m_infinity - m0) <= 0.02 * m0
        and label_report.statistically_dispersive,
        f"label {label_report.label}, M_inf = {label_report.m_infinity:.4f}",
    )
    ok &= report_line(
        "5g not claimed total", label_report.label != "totally-dispersive"
        and label_report.label != "strongly-dispersive",
        "E < Q^2/2M forbids total dispersal",
    )
    ok &= report_line("5h energy drift", energy_drift(sink) <= 1e-3,
                      f"{energy_drift(sink):.2e}")
    assert ok


def _dilation_residual(sink):
    table = sink.records
    t = table.times
    dil = table.dilation
    ekin = table.energy_kinetic
    energy = table.energy[0]
    ekin_mid = 0.5 * (ekin[1:] + ekin[:-1])
    lhs = np.diff(dil) / np.diff(t)
    return float(np.max(np.abs(lhs - (energy + ekin_mid)) / (abs(energy) + ekin_mid)))


def _conformal_residual(sink):
    table = sink.records
    t = table.times
    conf = table.conformal
    epot = table.energy_potential
    lhs = np.diff(conf) / np.diff(t)
    t_mid = 0.5 * (t[1:] + t[:-1])
    epot_mid = 0.5 * (epot[1:] + epot[:-1])
    rhs = np.diff(t**2 * 2.0 * epot) / np.diff(t) - t_mid * 2.0 * epot_mid
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    scale = np.maximum(scale, 0.02 * np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - rhs) / scale))


def test_criterion_06_identity_residuals(shell_run, core_run, composite_run):
    ok = True
    for name, data in (("shell", shell_run), ("core", core_run),
                       ("composite", composite_run)):
        res_d = _dilation_residual(data["sink"])
        ok &= report_line(f"6a dilation identity ({name})", res_d <= 0.01,
                          f"max residual {res_d:.2e} <= 1%")
        res_c = _conformal_residual(data["sink"])
        ok &= report_line(f"6b pseudoconformal law ({name})", res_c <= 0.02,
                          f"max residual {res_c:.2e} <= 2%")

    rng = np.random.default_rng(20250808)
    n = 10_000
    E = rng.normal(0, 5, n)
    Q = rng.normal(0, 3, (n, 3))
    M = rng.lognormal(0, 1, n)
    u = rng.normal(0, 3, (n, 3))
    inv0 = E - np.einsum("ij,ij->i", Q, Q) / (2 * M)
    worst = 0.0
    for i in range(0, n, 500):
        Ep, Qp = galilean_shift(E[i], Q[i], M[i], u[i])
        inv1 = Ep - np.dot(Qp, Qp) / (2 * M[i])
        scale = abs(E[i]) + abs(inv0[i]) + M[i] * np.dot(u[i], u[i]) + 1.0
        worst = max(worst, abs(inv1 - inv0[i]) / scale)
    Qp = Q - M[:, None] * u
    Ep = E - np.einsum("ij,ij->i", Q, u) + 0.5 * M * np.einsum("ij,ij->i", u, u)
    inv1 = Ep - np.einsum("ij,ij->i", Qp, Qp) / (2 * M)
    scale = np.abs(E) + np.abs(inv0) + M * np.einsum("ij,ij->i", u, u) + 1.0
    worst = max(worst, float(np.max(np.abs(inv1 - inv0) / scale)))
    ok &= report_line("6c boost invariant preserved", worst < 1e-12,
                      f"worst relative change {worst:.2e} over 1e4 boosts")
    assert ok


def _marginal_v(t):
    """Real root of v**3 + 3v - (6t + 4) = 0 by Cardano's formula."""
    q = 3.0 * t + 2.0
    root = math.sqrt(q * q + 1.0)
    return math.cbrt(q + root) + math.cbrt(q - root)


def test_criterion_07_virialization(shell_run, core_run):
    ok = True

    table = core_run["sink"].records
    energy = table.energy[0]
    metric, _ = virialization_metric(
        energy, TimeSeries(table.times, table.energy_kinetic)
    )
    eps = 1e-2 * (abs(energy) + table.energy_kinetic[0])
    worst = float(np.max(np.abs(metric.values)))
    ok &= report_line("7a static core metric is zero", worst <= eps,
                      f"max |metric| = {worst:.2e} <= {eps:.2e}")

    # marginal-energy exact solution: E = 0, kinetic (3/5)(phi'^2 + phi^-2)
    t = np.linspace(0.0, 2500.0, 5001)
    phi, phi_dot = phi_closed_form(t, 1.0)
    ekin = 0.6 * (phi_dot**2 + phi**-2)
    kmetric, _ = virialization_metric(0.0, TimeSeries(t, ekin))
    tail = kmetric.values[kmetric.times >= 100.0]
    decays = bool(np.all(np.diff(tail) < 0.0) and tail[-1] < 0.6 * tail[0])
    ok &= report_line(
        "7b marginal member metric decays to zero", decays and kmetric.values[-1] <= 1e-2 * ekin[0],
        f"metric({kmetric.times[-1]:.0f}) = {kmetric.values[-1]:.4e}",
    )
    # 7c: the exact law on a grid fine enough that the trapezoid error
    # (measured 1.2e-5 relative at dt = 0.05) sits well inside the tolerances
    t_fine = np.linspace(0.0, 2500.0, 50001)
    phi_f, phi_dot_f = phi_closed_form(t_fine, 1.0)
    ekin_f = 0.6 * (phi_dot_f**2 + phi_f**-2)
    fine_metric, _ = virialization_metric(0.0, TimeSeries(t_fine, ekin_f))
    i_1e3 = int(np.searchsorted(fine_metric.times, 1000.0))
    v = _marginal_v(float(fine_metric.times[i_1e3]))
    exact = 6.0 / (v * v + v + 4.0) * ekin_f[0]
    rel_err = abs(float(fine_metric.values[i_1e3]) / exact - 1.0)
    v_c = (-1.0 + math.sqrt(2385.0)) / 2.0
    t_c = v_c**3 / 6.0 + v_c / 2.0 - 2.0 / 3.0
    below = np.flatnonzero(fine_metric.values <= 1e-2 * ekin_f[0])
    t_cross = float(fine_metric.times[below[0]]) if below.size else math.inf
    ok &= report_line(
        "7c marginal member metric follows 6/(v^2 + v + 4) E_kin(0)",
        rel_err <= 1e-4 and abs(t_cross - t_c) <= 0.5,
        f"metric(1e3) = {fine_metric.values[i_1e3]:.6e} vs exact {exact:.6e} "
        f"(rel {rel_err:.1e}); first <= 1e-2 E_kin(0) at t = {t_cross:.2f} "
        f"vs t_c = {t_c:.2f}",
    )

    s3 = shell_run["sink"].records
    e3 = s3.energy[0]
    m3, flag3 = virialization_metric(
        e3, TimeSeries(s3.times, s3.energy_kinetic)
    )
    ok &= report_line(
        "7d positive-energy shell never virialises",
        float(m3.values[-1]) >= 0.99 * e3 and not flag3,
        f"metric -> {m3.values[-1]:.4f} >= E = {e3:.4f}",
    )
    assert ok


def test_criterion_08_oracle_equivalence(rng=None):
    rng = np.random.default_rng(7)
    worst_sigma = 0.0
    count = 0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        ens = vp.Ensemble(
            0.0,
            10.0 ** rng.uniform(-1, 1, n),
            rng.normal(0, 1, n),
            np.abs(rng.normal(0, 1, n)),
            rng.uniform(0.1, 1.0, n),
        )
        R = 10.0 ** rng.uniform(-1.0, 0.7)
        ours, our_d = vp.concentration_function(ens, R, return_center=True)
        # brute force: 2e4 uniform sphere points per particle, centres on
        # a 201-point grid plus the centre under test; only the axis
        # coordinate matters by symmetry, and stratifying it keeps each
        # particle's count within one sample of exact, so the binomial
        # 3-sigma bound holds with large margin for every panel member
        k_pts = 20_000
        axis = []
        for r_i in ens.r:
            u = (np.arange(k_pts) + rng.random(k_pts)) / k_pts * 2.0 - 1.0
            axis.append(np.sort(r_i * u))
        d_grid = np.append(np.linspace(0.0, ens.r.max() + R, 201), our_d)
        best_val, best_var = -1.0, 0.0
        for d in d_grid:
            total, var = 0.0, 0.0
            for r_i, m_i, ax in zip(ens.r, ens.mass, axis):
                if d == 0.0:
                    p_hat = 1.0 if r_i < R else 0.0
                else:
                    # inside iff axis coordinate exceeds (r^2+d^2-R^2)/(2d)
                    cut = (r_i * r_i + d * d - R * R) / (2.0 * d)
                    p_hat = 1.0 - np.searchsorted(ax, cut) / k_pts
                total += m_i * p_hat
                var += m_i * m_i * p_hat * (1 - p_hat) / k_pts
            if total > best_val:
                best_val, best_var = total, var
        sigma = math.sqrt(best_var)
        tol = 3.0 * sigma + 1e-9 * ens.total_mass
        gap = abs(ours - best_val)
        assert gap <= tol, (n, R, ours, best_val, sigma)
        worst_sigma = max(worst_sigma, gap / (sigma + 1e-300))
        count += 1
    ok = report_line("8a concentration vs Monte-Carlo", count == 100,
                     f"100 ensembles, worst gap {worst_sigma:.2f} sigma")

    worst = 0.0
    for k in (1.0, 1.5, 2.0):
        traj = integrate_phi(k, 100.0)
        phi, _ = phi_closed_form(traj.t, k)
        worst = max(worst, float(np.max(np.abs(traj.phi - phi) / phi)))
    ok &= report_line("8b closed forms vs direct integration", worst <= 1e-6,
                      f"max relative gap {worst:.2e} on t in [0, 100]")
    assert ok


CFG_TEXT = """\
scenario = shell
seed = 9
t_end = 5.0
output_cadence = 0.5
shell.mass = 1.0
shell.r_inner = 1.0
shell.r_outer = 1.25
shell.w_min = 0.5
shell.w_max = 0.6
shell.n = 500
r_grid = 1.0,2.0
q_list = 1.6666666666666667
"""


def test_criterion_09_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(CFG_TEXT)
    outputs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        code = main([
            "run", "--config", str(cfg_path), "--out", str(tmp_path / name),
            "--threads", str(threads),
        ])
        assert code == 0
        outputs.append((tmp_path / name / "diagnostics.csv").read_bytes())
    ok = report_line("9a rerun byte-identical", outputs[0] == outputs[1],
                     f"{len(outputs[0])} bytes")
    ok &= report_line("9b thread count irrelevant", outputs[0] == outputs[2],
                      "--threads 1 vs --threads 4")
    sweep_dirs = []
    cfg = parse_config(CFG_TEXT)
    for name, threads in (("s1", 1), ("s2", 2)):
        cmd_sweep(cfg, "shell.w_min", [0.3, 0.5], str(tmp_path / name), threads=threads)
        sweep_dirs.append((tmp_path / name / "summary.csv").read_bytes())
    ok &= report_line("9c sweep summary thread-invariant", sweep_dirs[0] == sweep_dirs[1],
                      "summary.csv identical")
    assert ok
