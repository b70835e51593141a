import math

import numpy as np
import pytest

from vpshell import (
    DomainError,
    Ensemble,
    build_radial_profile,
    concentration_function,
    concentration_mass,
    conformal_moment,
    cumulative_mass,
    dilation_moment,
    galilean_shift,
    kinetic_energy,
    lq_norm,
    potential_energy,
    statistical_dispersion,
)
from vpshell.diagnostics import _sorted_mass_profile
from conftest import random_ensemble


def brute_force_concentration(e, R):
    """O(N^2) oracle for the concentration function.

    The largest concentration_mass over every breakpoint |R - r_i|,
    R + r_i and every stationary point sqrt(W / S) that falls inside
    its own interval, with the band sums W = sum m (r - R^2 / r) and
    S = sum m / r taken directly from the shells cut at the interval's
    midpoint.  The limit d -> 0+ counts shells on |x| = R at half mass.
    """
    r, m = e.r, e.mass
    if R > r.max():
        return e.total_mass
    best = float(np.sum(m[r < R]) + 0.5 * np.sum(m[r == R]))
    breaks = np.unique(np.concatenate(([0.0], np.abs(R - r), R + r)))
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        band = (np.abs(R - r) < mid) & (mid < R + r)
        W = np.sum(m[band] * (r[band] - R * R / r[band]))
        S = np.sum(m[band] / r[band])
        if W > 0.0 and lo < math.sqrt(W / S) < hi:
            best = max(best, concentration_mass(e, math.sqrt(W / S), R))
    for d in breaks[1:]:
        best = max(best, concentration_mass(e, d, R))
    return best


def uniform_ball(n, mass=1.0, radius=1.0, circular=False):
    """Deterministic equal-mass sampling of a constant-density ball."""
    frac = (np.arange(n) + 0.5) / n
    r = radius * frac ** (1.0 / 3.0)
    ell = r**2 * math.sqrt(mass / (4.0 * math.pi * radius**3)) if circular else np.zeros(n)
    return Ensemble(0.0, r, np.zeros(n), ell, np.full(n, mass / n))


class TestCumulativeMass:
    def test_all_enclosed(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        assert cumulative_mass(e, 2.0) == 1.0

    def test_none_enclosed(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        assert cumulative_mass(e, 0.5) == 0.0

    def test_partial_sum(self):
        # independent oracle: direct sum over the particles below the query
        r = np.array([1.0, 2.0, 3.0])
        m = np.array([0.2, 0.3, 0.5])
        e = Ensemble(0.0, r, np.zeros(3), np.zeros(3), m)
        assert cumulative_mass(e, 2.5) == pytest.approx(float(m[r < 2.5].sum()))
        assert cumulative_mass(e, 2.5) == pytest.approx(0.5)

    def test_strict_at_own_radius(self):
        e = Ensemble(0.0, [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.4, 0.6])
        # coincident radii see neither themselves nor each other
        assert cumulative_mass(e, 1.0) == 0.0

    def test_monotone_in_radius(self, rng):
        for _ in range(20):
            e = random_ensemble(rng)
            q = np.sort(rng.uniform(0.0, 12.0, 40))
            vals = cumulative_mass(e, q)
            assert np.all(np.diff(vals) >= 0.0)
            assert vals[-1] <= e.total_mass + 1e-12

    def test_domain_errors(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            cumulative_mass(e, float("nan"))
        with pytest.raises(DomainError):
            cumulative_mass(e, -1.0)
        with pytest.raises(DomainError):
            Ensemble(0.0, [], [], [], [])


class TestContainerValidation:
    def test_ensemble_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            Ensemble(0.0, [0.0], [0.0], [0.0], [1.0])  # r must be > 0
        with pytest.raises(DomainError):
            Ensemble(0.0, [1.0], [0.0], [-0.1], [1.0])
        with pytest.raises(DomainError):
            Ensemble(0.0, [1.0], [np.inf], [0.0], [1.0])
        with pytest.raises(DomainError):
            Ensemble(0.0, [1.0, 2.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            Ensemble(0.0, [1.0], [0.0], [0.0], [0.0])  # massless

    def test_profile_rejects_bad_edges(self):
        from vpshell import RadialDensityProfile

        with pytest.raises(DomainError):
            RadialDensityProfile([0.0, 1.0, 0.5], [1.0, 1.0])
        with pytest.raises(DomainError):
            RadialDensityProfile([0.0, 1.0], [-1.0])

    def test_ensemble_arrays_read_only(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            e.r[0] = 2.0

    def test_long_group_label_kept(self, tmp_path):
        # a label longer than 16 characters survives the ensemble and the
        # snapshot file, and does not cut the "shell" label beside it
        from vpshell.csvio import write_snapshot
        from vpshell.diagnostics import diagnostics_record

        label = "central_core_particles"
        e = Ensemble(0.0, [0.5, 2.0, 3.0], [0.0] * 3, [0.0] * 3, [1.0] * 3,
                     [label, "shell", "shell"])
        assert list(e.group) == [label, "shell", "shell"]
        rec = diagnostics_record(e)
        assert rec.inner_radius_shell == 2.0
        assert rec.inner_radius == 0.5
        path = tmp_path / "snap.csv"
        write_snapshot(str(path), e)
        assert [row.split(",")[-1] for row in path.read_text().splitlines()[2:]] == [
            label, "shell", "shell"]


class TestPotentialEnergy:
    def test_single_shell(self):
        # only the exterior tail contributes: M^2 / (8 pi r)
        for mass in (1.0, 2.5):
            e = Ensemble(0.0, [1.0], [0.0], [0.0], [mass])
            assert potential_energy(e) == pytest.approx(mass**2 / (8 * math.pi), rel=1e-14)

    def test_two_shells_by_hand(self):
        # (1/8pi) [ (1/2)^2 (1/1 - 1/2) + 1/2 ] = 5 / (64 pi)
        e = Ensemble(0.0, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.5])
        assert potential_energy(e) == pytest.approx(5.0 / (64 * math.pi), rel=1e-14)

    def test_uniform_ball_closed_form(self):
        # integral of M(<r)^2/r^2 for M = r^3 on [0,1] plus the tail = 6/5
        e = uniform_ball(10_000)
        assert potential_energy(e) == pytest.approx(3.0 / (20 * math.pi), rel=1e-2)

    def test_order_invariance(self, rng):
        e = random_ensemble(rng, n_max=30)
        perm = rng.permutation(e.n)
        shuffled = Ensemble(0.0, e.r[perm], e.w[perm], e.ell[perm], e.mass[perm])
        assert potential_energy(shuffled) == pytest.approx(potential_energy(e), rel=1e-13)

    def test_pairwise_oracle(self, rng):
        # independent route: expanding M(<r)^2 into pair terms gives
        # (1/(8 pi)) sum_ij m_i m_j / max(r_i, r_j)
        for _ in range(20):
            e = random_ensemble(rng, n_max=40)
            pair = np.sum(
                np.outer(e.mass, e.mass) / np.maximum.outer(e.r, e.r)
            ) / (8 * math.pi)
            assert potential_energy(e) == pytest.approx(pair, rel=1e-12)


class TestKineticEnergy:
    def test_at_rest(self):
        e = Ensemble(0.0, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert kinetic_energy(e) == 0.0

    def test_radial_only(self):
        e = Ensemble(0.0, [1.0], [2.0], [0.0], [1.0])
        assert kinetic_energy(e) == pytest.approx(2.0)

    def test_circular_ball(self):
        e = uniform_ball(10_000, circular=True)
        assert kinetic_energy(e) == pytest.approx(3.0 / (40 * math.pi), rel=1e-2)


class TestMoments:
    def test_variance_single_shell(self):
        e = Ensemble(0.0, [2.0], [0.0], [0.0], [0.7])
        assert statistical_dispersion(e) == pytest.approx(4.0)

    def test_variance_uniform_ball(self):
        assert statistical_dispersion(uniform_ball(10_000)) == pytest.approx(0.6, rel=1e-2)

    def test_variance_two_shells(self):
        e = Ensemble(0.0, [1.0, 3.0], [0.0, 0.0], [0.0, 0.0], [0.75, 0.25])
        assert statistical_dispersion(e) == pytest.approx(3.0)

    def test_dilation(self):
        e = Ensemble(0.0, [2.0], [3.0], [0.0], [1.0])
        assert dilation_moment(e) == pytest.approx(6.0)
        at_rest = Ensemble(0.0, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert dilation_moment(at_rest) == 0.0

    def test_conformal_reduces_to_spatial_at_t0(self, rng):
        e = random_ensemble(rng)
        expected = statistical_dispersion(e) * e.total_mass
        assert conformal_moment(e, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_conformal_vanishes_when_x_equals_tp(self):
        e = Ensemble(0.0, [1.0], [1.0], [0.0], [1.0])
        assert conformal_moment(e, 1.0) == 0.0

    def test_conformal_by_hand(self):
        # r=2, w=1, ell=2, t=1: 4 - 4 + (1 + 1) = 2
        e = Ensemble(0.0, [2.0], [1.0], [2.0], [1.0])
        assert conformal_moment(e, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_conformal_nonnegative(self, rng):
        for _ in range(20):
            e = random_ensemble(rng)
            assert conformal_moment(e, rng.uniform(0, 10)) >= 0.0


class TestConcentration:
    def test_ball_contains_shell(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        assert concentration_mass(e, 0.0, 2.0) == 1.0
        assert concentration_mass(e, 0.0, 0.5) == 0.0

    def test_cap_fraction_by_hand(self):
        # mu = (1 + 0.75 - 0.25) / (2 sqrt(0.75)) = sqrt(3)/2
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        expected = (1.0 - math.sqrt(3.0) / 2.0) / 2.0
        assert concentration_mass(e, math.sqrt(0.75), 0.5) == pytest.approx(expected, rel=1e-12)

    def test_cap_against_monte_carlo(self, rng):
        # 1e5 uniform points on each sphere; agreement within 3 standard errors
        for _ in range(25):
            e = random_ensemble(rng, n_max=20)
            R = 10.0 ** rng.uniform(-1.0, 0.7)
            d = rng.uniform(0.0, e.r.max() + R)
            n_pts = 100_000
            total = 0.0
            var = 0.0
            for r_i, m_i in zip(e.r, e.mass):
                xyz = rng.normal(size=(n_pts, 3))
                xyz *= r_i / np.linalg.norm(xyz, axis=1)[:, None]
                xyz[:, 0] -= d
                p_hat = np.mean(np.einsum("ij,ij->i", xyz, xyz) < R * R)
                total += m_i * p_hat
                var += m_i**2 * p_hat * (1 - p_hat) / n_pts
            sigma = math.sqrt(var)
            assert abs(concentration_mass(e, d, R) - total) <= 3.0 * sigma + 1e-12

    def test_sup_not_at_shell_radius(self):
        # the best centre for a thin shell sits at sqrt(r^2 - R^2), not at r
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        expected = (1.0 - math.sqrt(3.0) / 2.0) / 2.0
        val, centre = concentration_function(e, 0.5, return_center=True)
        assert val == pytest.approx(expected, rel=1e-14)
        assert centre == math.sqrt(0.75)
        # dense-scan oracle
        scan = max(concentration_mass(e, d, 0.5) for d in np.linspace(0, 1.5, 20001))
        assert val >= scan - 1e-10

    def test_sup_is_total_mass_for_large_ball(self, rng):
        e = random_ensemble(rng)
        assert concentration_function(e, e.r.max() * 1.5) == pytest.approx(e.total_mass)

    def test_two_separated_shells(self):
        e = Ensemble(0.0, [1.0, 100.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.1])
        val = concentration_function(e, 2.0)
        scan = max(concentration_mass(e, d, 2.0) for d in np.linspace(0, 102, 40001))
        assert val == pytest.approx(0.9, abs=1e-9)
        assert val >= scan - 1e-9

    def test_monotone_in_radius(self, rng):
        for _ in range(5):
            e = random_ensemble(rng, n_max=20)
            radii = np.sort(10.0 ** rng.uniform(-1, 1, 6))
            vals = [concentration_function(e, R) for R in radii]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= e.total_mass + 1e-12 for v in vals)

    def test_matches_dense_scan(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, n_max=30)
            R = 10.0 ** rng.uniform(-0.7, 0.7)
            val = concentration_function(e, R)
            if R > e.r.max():
                assert val == pytest.approx(e.total_mass)
                continue
            grid = np.linspace(0.0, e.r.max() + R, 20001)
            scan = max(concentration_mass(e, d, R) for d in grid)
            assert val >= scan - 1e-12 * e.total_mass
            assert val <= e.total_mass + 1e-12

    def test_exact_against_breakpoint_oracle(self, rng):
        for _ in range(300):
            e = random_ensemble(rng, n_max=60)
            R = 10.0 ** rng.uniform(-1.0, 0.7)
            M = e.total_mass
            val, centre = concentration_function(e, R, return_center=True)
            assert abs(val - brute_force_concentration(e, R)) <= 1e-12 * M
            # attained at the returned centre, and never above the total
            assert abs(concentration_mass(e, centre, R) - val) <= 1e-12 * M
            assert val <= M

    def test_single_shell_closed_form(self):
        # best centre sqrt(r^2 - R^2) holds (1 - sqrt(1 - R^2/r^2)) / 2
        # of the shell; continuous up to R = r, where it is one half
        e = Ensemble(0.0, [2.0], [0.0], [0.0], [3.0])
        for R in (0.1, 0.5, 1.0, 1.9, 2.0):
            val, centre = concentration_function(e, R, return_center=True)
            expected = 3.0 * 0.5 * (1.0 - math.sqrt(1.0 - (R / 2.0) ** 2))
            assert val == pytest.approx(expected, rel=1e-14)
            assert centre == pytest.approx(math.sqrt(4.0 - R * R), abs=1e-15)
        assert concentration_function(e, 2.0 + 1e-12) == 3.0

    def test_radius_equal_to_ball_radius(self):
        # the shell on |x| = R is cut in half as d -> 0+, and the ball
        # mass 1 + (1/2 - d/4) falls off from there: the supremum is the
        # limit at the origin, which d = 0 itself (strict r < R) misses
        e = Ensemble(0.0, [0.5, 1.0, 3.0], [0.0] * 3, [0.0] * 3, [1.0] * 3)
        val, centre = concentration_function(e, 1.0, return_center=True)
        assert val == 1.5
        assert centre == 0.0
        assert concentration_mass(e, 1e-3, 1.0) == pytest.approx(1.5 - 0.25e-3, abs=1e-12)
        assert val == brute_force_concentration(e, 1.0)

    def test_ball_radius_equal_to_max_radius(self, rng):
        for _ in range(50):
            e = random_ensemble(rng, n_max=30)
            R = float(e.r.max())
            val = concentration_function(e, R)
            assert val == pytest.approx(brute_force_concentration(e, R), abs=1e-12 * e.total_mass)
            assert val < e.total_mass

    def test_duplicate_radii(self, rng):
        # coincident shells act as one shell carrying their summed mass
        for _ in range(50):
            base = random_ensemble(rng, n_max=20)
            k = rng.integers(1, 4, base.n)
            dup = Ensemble(0.0, np.repeat(base.r, k), np.repeat(base.w, k),
                           np.repeat(base.ell, k), np.repeat(base.mass, k))
            merged = Ensemble(0.0, base.r, base.w, base.ell, base.mass * k)
            for R in (float(base.r[0]), 10.0 ** rng.uniform(-1.0, 0.7)):
                val = concentration_function(dup, R)
                M = dup.total_mass
                assert val == pytest.approx(concentration_function(merged, R), abs=1e-12 * M)
                assert val == pytest.approx(brute_force_concentration(dup, R), abs=1e-12 * M)

    def test_domain_error(self):
        e = Ensemble(0.0, [1.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            concentration_mass(e, 0.0, -1.0)
        with pytest.raises(DomainError):
            concentration_function(e, 0.0)


class TestRadialProfile:
    def test_single_particle_single_bin(self):
        e = Ensemble(0.0, [2.0], [0.0], [0.0], [3.0])
        prof = build_radial_profile(e, 1)
        assert prof.bin_density[0] == pytest.approx(3.0 / ((4 * math.pi / 3) * 8.0))

    def test_uniform_ball_density(self):
        prof = build_radial_profile(uniform_ball(100_000), 50)
        # outer bins are well sampled; inner ones are noisier
        assert np.median(prof.bin_density[10:]) == pytest.approx(3 / (4 * math.pi), rel=5e-2)

    def test_mass_closure(self, rng):
        for _ in range(10):
            e = random_ensemble(rng)
            prof = build_radial_profile(e, int(rng.integers(1, 40)))
            assert prof.binned_mass() == pytest.approx(e.total_mass, rel=1e-12)

    def test_matches_weighted_histogram(self, rng):
        # bins are half-open except the last, which holds the maximum
        # radius; 2.0 sits on an interior edge of the four bins on [0, 4]
        edge_case = Ensemble(0.0, [0.5, 1.0, 2.0, 2.0, 3.9, 4.0], [0.0] * 6, [0.0] * 6,
                             [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        cases = [(edge_case, 4)] + [
            (random_ensemble(rng), int(rng.integers(1, 40))) for _ in range(20)
        ]
        for e, n_bins in cases:
            prof = build_radial_profile(e, n_bins)
            edges = np.linspace(0.0, e.r.max(), n_bins + 1)
            reference, _ = np.histogram(e.r, bins=edges, weights=e.mass)
            volume = (4 * math.pi / 3) * (edges[1:] ** 3 - edges[:-1] ** 3)
            np.testing.assert_array_equal(prof.bin_edges, edges)
            np.testing.assert_allclose(prof.bin_density * volume, reference, rtol=1e-12, atol=0)
        binned = build_radial_profile(edge_case, 4).bin_density * (
            (4 * math.pi / 3) * (np.arange(1, 5) ** 3 - np.arange(4) ** 3))
        np.testing.assert_allclose(binned, [0.1, 0.2, 0.7, 1.1], rtol=1e-12)

    def test_empty_bin_zero_density(self):
        e = Ensemble(0.0, [0.1, 10.0], [0, 0], [0, 0], [1.0, 1.0])
        prof = build_radial_profile(e, 20)
        assert np.any(prof.bin_density == 0.0)


class TestLqNorm:
    def test_q1_recovers_mass(self, rng):
        # midpoint rule in radius, so q=1 carries discretisation error
        # dominated by the innermost occupied bins; per bin the midpoint
        # volume element never exceeds the exact one, so the norm is a
        # one-sided estimate of the mass
        for _ in range(5):
            e = random_ensemble(rng)
            prof = build_radial_profile(e, 30)
            val = lq_norm(prof, 1.0)
            assert val == pytest.approx(e.total_mass, rel=0.15)
            assert val <= e.total_mass * (1.0 + 1e-12)
        ball = uniform_ball(50_000)
        prof = build_radial_profile(ball, 200)
        assert lq_norm(prof, 1.0) == pytest.approx(1.0, rel=2e-3)

    def test_uniform_ball_closed_form(self):
        prof = build_radial_profile(uniform_ball(100_000), 50)
        assert lq_norm(prof, 5.0 / 3.0) == pytest.approx(0.5638512613244827, rel=2e-2)

    def test_domain_error(self):
        prof = build_radial_profile(uniform_ball(100), 5)
        with pytest.raises(DomainError):
            lq_norm(prof, 0.5)


class TestGalileanShift:
    def test_identity(self):
        E, Q = galilean_shift(1.3, (0.1, 0.2, 0.3), 2.0, (0.0, 0.0, 0.0))
        assert E == 1.3
        assert np.allclose(Q, (0.1, 0.2, 0.3))

    def test_worked_example(self):
        E, Q = galilean_shift(1.0, (0.0, 0.0, 0.0), 1.0, (2.0, 0.0, 0.0))
        assert E == pytest.approx(3.0)
        assert np.allclose(Q, (-2.0, 0.0, 0.0))
        assert E - np.dot(Q, Q) / 2.0 == pytest.approx(1.0)

    def test_boost_round_trip(self, rng):
        E0, Q0, M = 0.7, rng.normal(size=3), 1.7
        u = rng.normal(size=3)
        E1, Q1 = galilean_shift(E0, Q0, M, u)
        E2, Q2 = galilean_shift(E1, Q1, M, -u)
        assert E2 == pytest.approx(E0, abs=1e-13)
        assert np.allclose(Q2, Q0)

    def test_invariant_random(self, rng):
        # 1e4 random boosts: E - |Q|^2/(2M) preserved to roundoff
        n = 10_000
        E = rng.normal(0, 5, n)
        Q = rng.normal(0, 3, (n, 3))
        M = rng.lognormal(0, 1, n)
        u = rng.normal(0, 3, (n, 3))
        inv0 = E - np.einsum("ij,ij->i", Q, Q) / (2 * M)
        Qp = Q - M[:, None] * u
        Ep = E - np.einsum("ij,ij->i", Q, u) + 0.5 * M * np.einsum("ij,ij->i", u, u)
        inv1 = Ep - np.einsum("ij,ij->i", Qp, Qp) / (2 * M)
        scale = np.abs(E) + np.abs(inv0) + M * np.einsum("ij,ij->i", u, u) + 1.0
        assert np.max(np.abs(inv1 - inv0) / scale) < 1e-12

    def test_mass_domain_error(self):
        with pytest.raises(DomainError):
            galilean_shift(1.0, (0, 0, 0), 0.0, (1, 0, 0))


def stable_sorted_mass_profile(r, mass):
    """Oracle of `_sorted_mass_profile`: one stable argsort, whatever
    the order of the radii."""
    order = np.argsort(r, kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(mass[order])))
    return r[order], mass[order], prefix, order


def radii_in_order(rng, n, kind, ties):
    r = np.sort(rng.uniform(0.5, 3.0, n))
    if ties and n > 1:
        # radii copied onto their neighbours before the shuffle; the
        # copies carry different masses
        first = rng.integers(0, n - 1, size=max(n // 10, 1))
        r[first + 1] = r[first]
    if kind == "reversed":
        r = r[::-1].copy()
    elif kind == "nearly sorted":
        # neighbours swapped here and there, as in a static core
        swap = 2 * rng.choice(max(n // 2 - 1, 1), size=n // 50, replace=False)
        r[swap], r[swap + 1] = r[swap + 1], r[swap].copy()
    elif kind == "scrambled":
        r = rng.permutation(r)
    elif kind == "scrambled tail":
        # a sorted core and a third of the shells crossing each other
        tail = n - n // 3
        r[tail:] = rng.permutation(r[tail:])
    return r


ORDERS = ("sorted", "reversed", "nearly sorted", "scrambled", "scrambled tail")


@pytest.fixture
def argsort_kinds(monkeypatch):
    """The `kind` of every np.argsort call made while the test runs."""
    kinds = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda a, kind=None: kinds.append(kind) or argsort(a, kind=kind))
    return kinds


class TestSortedMassProfile:
    """The profile picks its argsort by how scrambled the radii are;
    the result must be the stable sort's, bit for bit."""

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("kind", ORDERS)
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 1000, 10000])
    def test_equals_stable_oracle(self, n, kind, ties):
        rng = np.random.default_rng([n, ORDERS.index(kind), ties])
        r = radii_in_order(rng, n, kind, ties)
        mass = rng.uniform(0.1, 1.0, n)
        *got, tied = _sorted_mass_profile(r, mass)
        want = stable_sorted_mass_profile(r, mass)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert tied == bool(np.any(want[0][1:] == want[0][:-1]))

    @pytest.mark.parametrize("kind, n, calls", [
        ("nearly sorted", 10000, ["stable"]),
        ("scrambled tail", 10000, [None]),
        ("scrambled", 1000, [None]),
        ("scrambled", 15, ["stable"]),  # a one-element probe reads sorted
    ])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_branch_taken(self, kind, n, calls, ties, argsort_kinds):
        # both branches are exercised by the oracle test above, and a tie
        # on the default branch sorts again with the stable sort
        rng = np.random.default_rng(7)
        _sorted_mass_profile(radii_in_order(rng, n, kind, ties), np.ones(n))
        assert argsort_kinds == (calls + ["stable"] if ties and calls == [None] else calls)

    def test_scrambled_run_equals_stable_run(self, argsort_kinds, monkeypatch):
        # an escaping shell scrambles its radii within a few steps; the
        # records must not depend on which argsort ordered them
        import dataclasses

        import vpshell.dynamics as dynamics
        from vpshell import IntegratorConfig, ShellSpec, build_shell

        e, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5,
                                     w_max=0.6, n=2000, seed=3))
        config = IntegratorConfig(t_end=3.0, output_cadence=0.5)

        def records():
            sink = dynamics.run(e, config, r_grid=(1.0, 2.0), q_list=(5.0 / 3.0,))
            return [dataclasses.astuple(rec) for rec in sink.records]

        chosen = records()
        assert None in argsort_kinds  # the default argsort ordered some steps

        def stable_profile(r, mass):
            r_sorted, m_sorted, prefix, order = stable_sorted_mass_profile(r, mass)
            return r_sorted, m_sorted, prefix, order, bool(np.any(r_sorted[1:] == r_sorted[:-1]))

        monkeypatch.setattr(dynamics, "_sorted_mass_profile", stable_profile)
        assert chosen == records()
