import math

import numpy as np
import pytest

from vpshell import DomainError, kurth
from vpshell.dynamics import _record_times
from vpshell.kurth import (
    classify_k,
    first_integral,
    kurth_diagnostics,
    kurth_energy,
    kurth_period,
    phi_closed_form,
)
from conftest import integrate_phi


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


def one(*values):
    """One-element float arrays, one per value."""
    return [np.array([value], dtype=np.float64) for value in values]


def drift_rate(traj, k):
    """Max first-integral deviation per unit time, relative to the
    positive-term scale at t = 0."""
    I = first_integral(traj.phi, traj.phi_dot)
    scale = 0.6 * (k * k + 3.0)
    dev = np.abs(I - I[0]) / scale
    return float(np.max(dev / np.maximum(traj.t, 1.0)))


class TestEnergy:
    @pytest.mark.parametrize("k,expected", [(0.0, -0.6), (1.0, 0.0), (0.5, -0.45)])
    def test_values(self, k, expected):
        assert kurth_energy(k) == pytest.approx(expected, abs=1e-15)

    def test_matches_first_integral_at_start(self):
        for k in (-1.7, -0.3, 0.0, 0.4, 1.0, 2.2):
            assert kurth_energy(k) == pytest.approx(
                float(first_integral(1.0, k)), abs=1e-14
            )

    def test_scaled_split_is_consistent(self):
        # kinetic - potential reproduces the first integral exactly and
        # the static member satisfies the virial relation E = -kinetic
        for k in (0.0, 0.5, 1.0, 1.5):
            phi, phi_dot = one(1.0, k)
            assert kinetic_scaled(phi, phi_dot) - potential_scaled(phi) == pytest.approx(
                kurth_energy(k), abs=1e-14
            )
        phi, phi_dot = one(1.0, 0.0)
        assert kinetic_scaled(phi, phi_dot) == pytest.approx(-kurth_energy(0.0))

    def test_scaled_split_maps_to_simulator_units(self):
        # one factor of 8 pi relates the family's normalisation to the
        # simulator: a sampled static member (circular-orbit unit ball)
        # must reproduce kinetic_scaled / (8 pi) and potential_scaled / (8 pi)
        import vpshell as vp

        ball = vp.build_circular_core(vp.CoreSpec(mass=1.0, radius=1.0, n=20_000, seed=3))
        phi, phi_dot = one(1.0, 0.0)
        scale = 8.0 * math.pi
        assert vp.kinetic_energy(ball) == pytest.approx(
            kinetic_scaled(phi, phi_dot) / scale, rel=1e-2
        )
        assert vp.potential_energy(ball) == pytest.approx(
            potential_scaled(phi) / scale, rel=1e-2
        )


class TestClassifyK:
    def test_regimes(self):
        assert classify_k(0.0) == "static"
        assert classify_k(0.5) == "periodic"
        assert classify_k(-1.2) == "dispersive"
        assert classify_k(1.0) == "dispersive"


class TestIntegratePhi:
    def test_static_is_exact_fixed_point(self):
        traj = integrate_phi(0.0, 20.0)
        assert np.all(traj.phi == 1.0)
        assert np.all(traj.phi_dot == 0.0)

    def test_periodic_returns_to_start(self):
        T = kurth_period(0.5)
        traj = integrate_phi(0.5, T)
        assert traj.t[-1] == pytest.approx(T, rel=1e-12)
        assert traj.phi[-1] == pytest.approx(1.0, abs=1e-6)
        assert traj.phi_dot[-1] == pytest.approx(0.5, abs=1e-6)

    def test_parabolic_value_at_t10(self):
        traj = integrate_phi(1.0, 10.0)
        assert traj.phi[-1] == pytest.approx(phi_closed_form(10.0, 1.0)[0][0], abs=1e-3)

    def test_first_integral_drift(self):
        for k in (0.0, 0.5, 1.0, 1.5):
            assert drift_rate(integrate_phi(k, 30.0), k) < 1e-8

    def test_monotone_dispersal(self):
        traj = integrate_phi(1.2, 50.0)
        assert np.all(np.diff(traj.phi) > 0.0)
        assert traj.phi[-1] > 30.0

    def test_negative_k_contracts_then_expands(self):
        traj = integrate_phi(-1.2, 30.0)
        i_min = int(np.argmin(traj.phi))
        assert 0 < i_min < traj.phi.size - 1
        # sampled minimum sits within one output cadence of pericenter
        assert traj.phi[i_min] == pytest.approx(1.0 / 2.2, rel=5e-4)
        assert traj.phi[-1] > 10.0


class TestParabolic:
    def test_initial_condition(self):
        assert phi_closed_form(0.0, 1.0)[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        # solve v + v^3/3 = 2 (t + 2/3) by plain bisection
        t = 10.0
        target = 2.0 * (t + 2.0 / 3.0)
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + mid**3 / 3.0 < target:
                lo = mid
            else:
                hi = mid
        v = 0.5 * (lo + hi)
        expected = 0.5 * (1.0 + v * v)
        assert expected == pytest.approx(7.532546628658921, rel=1e-12)
        assert phi_closed_form(10.0, 1.0)[0][0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_cubic_residual(self, k):
        # v = phi * phi' solves v + v^3/3 = 2t + (4/3)k to roundoff (the
        # Newton solve it replaced stopped at 1e-12 relative steps)
        t = np.concatenate((np.arange(0.0, 400.5, 0.5), np.logspace(-3, 6, 50)))
        phi, phi_dot = phi_closed_form(t, k)
        v = phi * phi_dot
        s = 2.0 * t + (4.0 / 3.0) * k
        assert np.max(np.abs(v + v**3 / 3.0 - s) / np.abs(s)) < 1e-14

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_marginal_energy_exact_at_start(self, k):
        # the table's first row is E = 0 exactly, so the classifier sees
        # the marginal member on the threshold, not below it
        phi, phi_dot = phi_closed_form(0.0, k)
        assert (phi[0], phi_dot[0]) == (1.0, k)
        assert first_integral(phi, phi_dot)[0] == 0.0

    def test_two_thirds_power_growth(self):
        t = np.logspace(2, 4, 200)
        slope = np.polyfit(np.log(t), np.log(phi_closed_form(t, 1.0)[0]), 1)[0]
        assert slope == pytest.approx(2.0 / 3.0, abs=0.02)


class TestHyperbolic:
    def test_initial_condition_forced(self):
        for k in (1.5, 2.0, 4.0, -2.0):
            assert phi_closed_form(0.0, k)[0][0] == pytest.approx(1.0, abs=5e-12)

    def test_branch_constants_k2(self):
        # v(0) = arccosh 2 and the t=0 value of the implicit relation
        v0 = math.acosh(2.0)
        assert v0 == pytest.approx(1.3169579, abs=1e-7)
        assert abs(v0 - 2.0 * math.sinh(v0)) == pytest.approx(2.1471437, abs=1e-7)

    def test_linear_growth(self):
        t = np.logspace(2, 4, 200)
        slope = np.polyfit(np.log(t), np.log(phi_closed_form(t, 1.5)[0]), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_satisfies_first_integral(self):
        for k in (1.5, 2.0, -3.0):
            t = np.linspace(0.0, 50.0, 500)
            phi, phi_dot = phi_closed_form(t, k)
            I = first_integral(phi, phi_dot)
            assert np.max(np.abs(I - kurth_energy(k))) < 1e-9


class TestElliptic:
    def test_initial_condition(self):
        for k in (0.3, 0.5, 0.9, -0.5):
            assert phi_closed_form(0.0, k)[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_satisfies_first_integral(self):
        for k in (0.3, 0.5, 0.9, -0.7):
            t = np.linspace(0.0, 40.0, 400)
            phi, phi_dot = phi_closed_form(t, k)
            I = first_integral(phi, phi_dot)
            assert np.max(np.abs(I - kurth_energy(k))) < 1e-10

    def test_periodicity(self):
        T = kurth_period(0.5)
        phi, phi_dot = phi_closed_form(np.array([0.0, T, 2 * T]), 0.5)
        assert np.allclose(phi, 1.0, atol=1e-10)
        assert np.allclose(phi_dot, 0.5, atol=1e-10)


class TestRootSolve:
    """The safeguarded Newton solve keeps a converged root: a step that
    lands on an end of the bracket is not replaced by bisection."""

    @pytest.mark.parametrize("k", [0.25, 0.5, 0.75, 1.25, 1.5, 2.0])
    def test_sweep_member_converges_to_a_few_ulps(self, k, monkeypatch):
        # the grid and the members of the kurth-sweep benchmark that solve
        t = np.array(_record_times(0.0, 400.0, 0.5))
        assert t.size == 801
        solve, calls, solves = kurth._solve_monotone, [], []

        def counted(f, fprime, lo, hi, x0):
            def f_counted(x):
                calls.append(x)
                return f(x)

            solves.append((f, solve(f_counted, fprime, lo, hi, x0)))
            return solves[-1][1]

        monkeypatch.setattr(kurth, "_solve_monotone", counted)
        phi_closed_form(t, k)
        ((f, root),) = solves
        assert len(calls) <= 25
        # f(x) = g(x) - s with g(0) = 0; the residual is a few ulps of
        # the larger of g(x) and s
        s = -f(np.zeros_like(root))
        scale = np.maximum(np.abs(f(root) + s), np.abs(s))
        assert np.all(np.abs(f(root)) <= 8.0 * np.spacing(scale))

    def test_exact_root_is_returned_after_one_evaluation(self):
        roots = np.array([-3.0, 0.5, 2.0, 1.0e6])
        calls = []

        def f(x):
            calls.append(x)
            return x**3 - roots**3

        x = kurth._solve_monotone(f, lambda x: 3.0 * x * x, roots - 1.0, roots + 1.0, roots)
        assert len(calls) == 1
        assert x.tobytes() == roots.tobytes()


class TestClosedFormAgainstOde:
    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0])
    def test_agreement(self, k):
        traj = integrate_phi(k, 30.0)
        phi, _ = phi_closed_form(traj.t, k)
        assert np.max(np.abs(traj.phi - phi) / phi) < 1e-6

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_refused(self, k):
        with pytest.raises(DomainError):
            phi_closed_form(np.array([0.0, 1.0]), k)


class TestPeriod:
    def test_against_closed_form(self):
        # the turning-point substitution gives T = 2 pi (1-k^2)^(-3/2)
        for k in (0.1, 0.5, 0.9, -0.6):
            expected = 2 * math.pi * (1 - k * k) ** -1.5
            assert kurth_period(k) == pytest.approx(expected, rel=1e-15)

    def test_small_oscillation_limit(self):
        assert kurth_period(1e-4) == pytest.approx(2 * math.pi, rel=1e-6)

    def test_turning_points_on_level_set(self):
        k = 0.5
        e = kurth_energy(k)
        for phi in (1.0 / 1.5, 2.0):
            assert phi**-2 - 2.0 / phi == pytest.approx((5.0 / 3.0) * e, abs=1e-13)

    def test_domain_error(self):
        for k in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                kurth_period(k)


class TestDiagnostics:
    def test_norm_equals_mass_at_q1(self):
        rec = kurth_diagnostics(*one(0.0, 1.0, 0.0), q_list=(1.0,))
        assert rec.lq[1.0][0] == pytest.approx(1.0)
        assert rec.mass[0] == 1.0

    def test_variance_value(self):
        rec = kurth_diagnostics(*one(0.0, 1.0, 0.5))
        assert rec.variance[0] == pytest.approx(0.6)

    def test_lq_closed_form_phi2(self):
        rec = kurth_diagnostics(*one(1.0, 2.0, 0.0), q_list=(5.0 / 3.0,))
        assert rec.lq[5.0 / 3.0][0] == pytest.approx(0.24543051658062925, rel=1e-12)

    def test_norms_vanish_along_dispersal(self):
        t = np.linspace(0.0, 400.0, 400)
        phi, _ = phi_closed_form(t, 1.5)
        from vpshell.kurth import kurth_lq_norm

        norms = kurth_lq_norm(phi, 5.0 / 3.0)
        assert norms[-1] < 1e-2 * norms[0]
        assert np.all(np.diff(norms) < 0.0)

    def test_split_not_emitted(self):
        rec = kurth_diagnostics(*one(0.0, 1.0, 1.0))
        assert rec.energy_kinetic is None
        assert rec.energy_potential is None
        assert rec.energy[0] == pytest.approx(0.0, abs=1e-15)

    def test_concentration_analytic(self):
        rec = kurth_diagnostics(*one(0.0, 2.0, 0.0), r_grid=(1.0, 4.0))
        assert rec.conc[1.0][0] == pytest.approx(0.125)
        assert rec.conc[4.0][0] == 1.0
