import math

import numpy as np
import pytest

from vpshell import (
    DomainError,
    Ensemble,
    build_radial_profile,
    concentration_function,
    conformal_moment,
    diagnostics_record,
    dilation_moment,
    kinetic_energy,
    lq_norm,
    potential_energy,
    statistical_dispersion,
)
from vpshell.diagnostics import (
    _concentration,
    _RadialOrder,
    _scrambled,
    _shell_terms,
    _workspace,
)
from vpshell.csvio import diagnostics_header
from conftest import (galilean_shift, general_order, random_ensemble, stable_sort,
                      stable_sorted_mass_profile, table_columns)


def cumulative_mass(ensemble, r):
    """Mass strictly inside radius r, a scalar or an array of radii.

    A particle evaluating the field at its own radius does not see its
    own mass (strict inequality), so a lone shell feels no self-force.
    """
    r_arr = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r_arr)):
        raise DomainError("query radius must be finite")
    if np.any(r_arr < 0.0):
        raise DomainError("query radius must be >= 0")
    r_sorted, _, prefix, *_ = _RadialOrder(ensemble.mass)(ensemble.r)
    out = prefix[np.searchsorted(r_sorted, r_arr, side="left")]
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def concentration_mass(ensemble, d, R):
    """Mass inside a ball of radius R whose centre sits at distance d.

    Exact for the shell representation: each particle contributes the
    fraction of its sphere covered by the ball, the spherical cap
    cos(theta) > mu.  For d = 0 a shell is either fully inside (r < R,
    strict) or fully outside.
    """
    if R <= 0.0 or not np.isfinite(R):
        raise DomainError("ball radius must be positive and finite")
    if d < 0.0 or not np.isfinite(d):
        raise DomainError("centre distance must be >= 0 and finite")
    r = ensemble.r
    if d == 0.0:
        return float(np.sum(ensemble.mass[r < R]))
    mu = (r * r + d * d - R * R) / (2.0 * d * r)
    return float(np.sum(ensemble.mass * np.clip(0.5 * (1.0 - mu), 0.0, 1.0)))


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
        from vpshell.csvio import diagnostics_header, write_snapshot

        label = "central_core_particles"
        e = Ensemble(0.0, [0.5, 2.0, 3.0], [0.0] * 3, [0.0] * 3, [1.0] * 3,
                     [label, "shell", "shell"])
        assert list(e.group) == [label, "shell", "shell"]
        rec = dict(zip(diagnostics_header((), ()).split(","), diagnostics_record(e)))
        assert rec["R1_shell"] == 2.0
        assert rec["R1"] == 0.5
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


def fresh_concentration(r, mass, prefix, total, R):
    """Reference for `_concentration` that allocates every array afresh.

    The same arithmetic in the same order (breakpoints, band sums,
    clipped stationary points, first maximum of [at_zero, *values],
    re-evaluation with the cap sum), so value and centre must agree
    bit for bit with the workspace version.
    """
    k0 = int(np.searchsorted(r, R, side="left"))
    if k0 == r.size:
        return total, 0.0
    k1 = int(np.searchsorted(r, R, side="right"))
    at_zero = float(prefix[k0] + 0.5 * (prefix[k1] - prefix[k0]))
    if at_zero >= total:
        return total, 0.0
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
    j = int(np.searchsorted(d, 0.0, side="right"))
    lo, hi = d[j:-1], d[j + 1:]
    c, w, s = c[j:-1], w[j:-1], s[j:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        centres = np.fmin(np.fmax(np.sqrt(np.maximum(w, 0.0) / s), lo), hi)
    values = c - w / (4.0 * centres) - 0.25 * centres * s
    values = np.concatenate(([at_zero], values))
    centres = np.concatenate(([0.0], centres))
    best_d = float(centres[int(np.argmax(values))])
    if best_d == 0.0:
        return min(at_zero, total), 0.0
    i0 = np.searchsorted(r, abs(R - best_d), side="left")
    i1 = np.searchsorted(r, R + best_d, side="right")
    inside = float(prefix[i0]) if best_d < R else 0.0
    ri = r[i0:i1]
    mu = (ri * ri + best_d * best_d - R * R) / (2.0 * best_d * ri)
    caps = np.clip(0.5 * (1.0 - mu), 0.0, 1.0)
    return min(inside + float(np.dot(mass[i0:i1], caps)), total), best_d


def sorted_state(e):
    r, mass, prefix, *_ = _RadialOrder(e.mass)(e.r)
    return r, mass, prefix, e.total_mass


class TestConcentrationWorkspace:
    """`_concentration` writes into a run-owned workspace; every value
    and centre must equal the fresh-allocation reference bit for bit."""

    def check(self, e, radii, work):
        # one workspace for every radius of the record, checked against
        # the fresh reference, a fresh workspace and the brute-force oracle
        r, mass, prefix, total = sorted_state(e)
        terms = _shell_terms(r, mass, work)
        results = []
        for R in map(float, radii):
            got = _concentration(r, mass, prefix, total, R, terms, work)
            assert got == fresh_concentration(r, mass, prefix, total, R)
            alone = _workspace(r.size)
            assert got == _concentration(r, mass, prefix, total, R,
                                         _shell_terms(r, mass, alone), alone)
            assert abs(got[0] - brute_force_concentration(e, R)) <= 1e-12 * total
            results.append(got)
        return results

    def test_reused_across_radii_and_records(self, rng):
        # records of different sizes and radii share one workspace sized
        # to the largest; ties, radii on shells and radii past r_max mixed in
        work = _workspace(40)
        for trial in range(200):
            e = random_ensemble(rng, n_max=40)
            if trial % 2:
                r = np.round(e.r, 1) + 0.1  # tied radii
                e = Ensemble(0.0, r, e.w, e.ell, e.mass)
            radii = [*(10.0 ** rng.uniform(-1.0, 1.1, 3)), e.r[0], e.r.max(), 1.5 * e.r.max()]
            self.check(e, radii, work)

    def test_radius_beyond_max_exits_early(self):
        e = Ensemble(0.0, [0.5, 1.0, 3.0], [0.0] * 3, [0.0] * 3, [1.0, 2.0, 3.0])
        assert self.check(e, [3.0 + 1e-12, 50.0], _workspace(3)) == [(6.0, 0.0)] * 2

    def test_full_ball_at_origin_exits_early(self):
        # the outer shell's mass is lost in the total's rounding, so the
        # ball at the origin already holds the total: at_zero >= total
        e = Ensemble(0.0, [0.5, 3.0], [0.0] * 2, [0.0] * 2, [1.0, 1e-17])
        assert e.total_mass == 1.0
        assert self.check(e, [1.0], _workspace(2)) == [(1.0, 0.0)]

    def test_shells_on_the_sphere_and_ties(self):
        # two tied shells on |x| = 1 count half as d -> 0+, and a third
        # tie sits at 3; R = 3 puts the tie on the sphere
        e = Ensemble(0.0, [0.5, 1.0, 1.0, 3.0, 3.0], [0.0] * 5, [0.0] * 5,
                     [1.0, 0.5, 0.5, 1.0, 2.0])
        (val, centre), *_ = self.check(e, [1.0, 3.0, 0.5], _workspace(5))
        assert (val, centre) == (1.5, 0.0)

    def test_single_shell_and_empty_band(self):
        # R = r leaves one interval, [0, 2R], after the breakpoint at 0:
        # no band is evaluated and the limit d -> 0+ (half the shell) wins
        e = Ensemble(0.0, [2.0], [0.0], [0.0], [3.0])
        results = self.check(e, [2.0, 0.5, 1.0], _workspace(1))
        assert results[0] == (1.5, 0.0)
        assert results[1][1] == math.sqrt(4.0 - 0.25)

    def test_warm_call_allocates_only_the_sort_index(self):
        # numpy reports its data buffers to tracemalloc; the argsort index
        # of the 2N breakpoints is 16 bytes per shell, and fresh arrays
        # of 2N floats would add 16 more each
        import tracemalloc

        core = uniform_ball(20_000)
        r = np.concatenate((core.r, np.linspace(2.0, 12.0, 5_000)))
        n = r.size
        e = Ensemble(0.0, r, np.zeros(n), np.zeros(n), np.full(n, 1.0 / n))
        r, mass, prefix, total = sorted_state(e)
        work = _workspace(n)
        terms = _shell_terms(r, mass, work)
        warm = _concentration(r, mass, prefix, total, 2.0, terms, work)
        assert warm[1] > 0.0  # the band search runs, no early exit
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert _concentration(r, mass, prefix, total, 2.0, terms, work) == warm
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n


def binned_mass(profile):
    """The mass of a profile: each bin's density times its volume."""
    edges = profile.bin_edges
    vol = (4.0 * np.pi / 3.0) * (edges[1:] ** 3 - edges[:-1] ** 3)
    return float(np.sum(profile.bin_density * vol))


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
            assert binned_mass(prof) == pytest.approx(e.total_mass, rel=1e-12)

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

    @pytest.mark.parametrize("n_bins", [math.nan, math.inf, 0, 0.5])
    def test_bad_bin_count_refused(self, n_bins):
        with pytest.raises(DomainError):
            build_radial_profile(uniform_ball(100), n_bins)

    @pytest.mark.parametrize("n_bins", [2.7, 4.5, True, False, np.True_], ids=repr)
    def test_non_integral_bin_count_refused(self, n_bins):
        # 2.7 used to truncate to 2 bins and True to 1; a config file
        # refuses both, and so does the histogram
        with pytest.raises(DomainError):
            build_radial_profile(uniform_ball(100), n_bins)
        with pytest.raises(DomainError):
            diagnostics_record(uniform_ball(100), q_list=(2.0,), n_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [4.0, np.int64(4), np.float64(4.0)])
    def test_integral_bin_count_of_any_type_accepted(self, n_bins):
        ball = uniform_ball(100)
        want = build_radial_profile(ball, 4)
        prof = build_radial_profile(ball, n_bins)
        assert prof.bin_edges.tobytes() == want.bin_edges.tobytes()
        assert prof.bin_density.tobytes() == want.bin_density.tobytes()

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

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_non_finite_exponent_refused(self, q):
        # nan used to give nan and inf gave 1.0
        prof = build_radial_profile(uniform_ball(100), 5)
        with pytest.raises(DomainError):
            lq_norm(prof, q)
        with pytest.raises(DomainError):
            diagnostics_record(uniform_ball(100), q_list=(q,))


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


class TestRadialOrder:
    """The sort picks its argsort by how scrambled the radii are; the
    result must be the stable sort's, bit for bit."""

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("kind", ORDERS)
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 1000, 10000])
    def test_equals_stable_oracle(self, n, kind, ties):
        rng = np.random.default_rng([n, ORDERS.index(kind), ties])
        r = radii_in_order(rng, n, kind, ties)
        mass = rng.uniform(0.1, 1.0, n)
        *got, tied = _RadialOrder(mass)(r)
        want = stable_sorted_mass_profile(r, mass)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert tied == bool(np.any(want[0][1:] == want[0][:-1]))

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("kind", ORDERS)
    @pytest.mark.parametrize("n", [1, 17, 1000])
    def test_equal_mass_prefix_equals_stable_oracle(self, n, kind, ties):
        # equal masses: the prefix built once and `mass` itself stand for
        # the gather and cumsum, bit for bit and without a copy
        rng = np.random.default_rng([n, ORDERS.index(kind), ties, 1])
        r = radii_in_order(rng, n, kind, ties)
        mass = np.full(n, 1.0 / 3.0)
        sort = _RadialOrder(mass)
        prefix = sort.equal_prefix
        assert not prefix.flags.writeable
        *got, tied = sort(r)
        assert got[1] is mass and got[2] is prefix
        want = stable_sorted_mass_profile(r, mass)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert tied == bool(np.any(want[0][1:] == want[0][:-1]))

    @pytest.mark.parametrize("odd", [0, 500, 999])
    def test_all_equal_but_one_takes_general_path(self, odd):
        rng = np.random.default_rng(odd)
        r = radii_in_order(rng, 1000, "scrambled", True)
        mass = np.full(1000, 1.0 / 3.0)
        mass[odd] = np.nextafter(mass[odd], 1.0)
        sort = _RadialOrder(mass)
        assert sort.equal_prefix is None
        *got, _ = sort(r)
        for a, b in zip(got, stable_sorted_mass_profile(r, mass)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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
        _RadialOrder(np.ones(n))(radii_in_order(rng, n, kind, ties))
        assert argsort_kinds == (calls + ["stable"] if ties and calls == [None] else calls)

    def test_scrambled_run_equals_stable_run(self, argsort_kinds, monkeypatch):
        # an escaping shell scrambles its radii within a few steps; the
        # records must not depend on which argsort ordered them
        import vpshell.diagnostics as diagnostics
        import vpshell.dynamics as dynamics
        from vpshell import IntegratorConfig, ShellSpec, build_shell

        e, _ = build_shell(ShellSpec(mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5,
                                     w_max=0.6, n=2000, seed=3))
        config = IntegratorConfig(t_end=3.0, output_cadence=0.5)

        def records():
            sink = dynamics.run(e, config, r_grid=(1.0, 2.0), q_list=(5.0 / 3.0,))
            return [column.tobytes() for column in table_columns(sink.records)]

        chosen = records()
        assert None in argsort_kinds  # the default argsort ordered some steps

        monkeypatch.setattr(diagnostics._RadialOrder, "__call__", stable_sort)
        assert chosen == records()


def swapped_neighbours(rng, r, order, count):
    """r with the radii of `count` pairs of radius-order neighbours
    swapped, so r[order] has `count` descents; returns r and the pairs."""
    r = r.copy()
    p = 2 * rng.choice(r.size // 2 - 1, size=count, replace=False)
    a, b = order[p], order[p + 1]
    r[a], r[b] = r[b], r[a].copy()
    return r, (a, b)


MASSES = ("one value", "two values", "distinct")


def masses(rng, n, kind):
    if kind == "one value":
        return np.full(n, 1.0 / 3.0)
    if kind == "two values":
        # a core of light shells and a shell of heavy ones, as
        # build_shell_plus_core makes them
        return np.where(rng.random(n) < 0.8, 1.0 / 2000.0, 0.2 / 500.0)
    return rng.uniform(0.1, 1.0, n)


class TestWarmProfile:
    """Scrambled radii sort from the last sort's order when only a few
    shells crossed since; the result must be the stable sort's, bit for
    bit, and the last prefix is kept only while the sorted masses are
    the same.  `general_order` gathers and sums even equal masses."""

    N = 4000

    def scrambled_with_previous(self, seed, kind, order=general_order):
        """rng, radii r0, masses, a sort whose last call sorted r0 and the
        (m_sorted, prefix, order) it keeps."""
        rng = np.random.default_rng(seed)
        r0 = rng.permutation(np.sort(rng.uniform(0.5, 3.0, self.N)))
        mass = masses(rng, self.N, kind)
        assert _scrambled(r0)
        sort = order(mass)
        profile = sort(r0)
        assert self.keeps(sort, profile)
        return rng, r0, mass, sort, tuple(profile[1:4])

    @staticmethod
    def keeps(sort, profile):
        # the sort holds the arrays of its last call, no older ones
        return len(sort._last) == 3 and all(
            a is b for a, b in zip(sort._last, profile[1:4]))

    @pytest.mark.parametrize("kind", MASSES)
    @pytest.mark.parametrize("count", [1, 5, 40])
    def test_equals_stable_oracle(self, kind, count, argsort_kinds):
        rng, r0, mass, sort, previous = self.scrambled_with_previous(
            [count, MASSES.index(kind)], kind)
        r, _ = swapped_neighbours(rng, r0, previous[2], count)
        del argsort_kinds[:]
        *got, tied = sort(r)
        assert argsort_kinds == ["stable"]  # one warm sort, no cold one
        assert self.keeps(sort, got)
        want = stable_sorted_mass_profile(r, mass)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert tied is False
        same_masses = np.array_equal(want[1], previous[0])
        assert (got[2] is previous[1]) == (got[1] is previous[0]) == same_masses
        assert not got[2].flags.writeable
        if kind == "one value":
            assert same_masses
        if kind == "distinct":
            assert not same_masses

    def test_reuse_and_rebuild_both_occur(self):
        # two mass values: a swap inside a group keeps the prefix, a swap
        # across the groups builds a new one
        reused = []
        for seed in range(20):
            rng, r0, mass, sort, previous = self.scrambled_with_previous(seed, "two values")
            r, _ = swapped_neighbours(rng, r0, previous[2], 3)
            reused.append(sort(r)[2] is previous[1])
        assert any(reused) and not all(reused)

    def test_equal_prefix_wins(self):
        rng, r0, mass, sort, previous = self.scrambled_with_previous(
            3, "one value", _RadialOrder)
        r, _ = swapped_neighbours(rng, r0, previous[2], 5)
        *got, _ = sort(r)
        assert got[1] is mass and got[2] is sort.equal_prefix
        for a, b in zip(got, stable_sorted_mass_profile(r, mass)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", MASSES)
    def test_tie_takes_cold_sort(self, kind, argsort_kinds):
        # each tie puts the higher index first in the previous order; the
        # stable sort puts it second, so only the cold sort gets it right
        rng, r0, mass, sort, previous = self.scrambled_with_previous(5, kind)
        order = previous[2]
        r, (a, b) = swapped_neighbours(rng, r0, order, 20)
        higher_first = a > b
        r[b[higher_first]] = r[a[higher_first]]
        r[a[~higher_first]] = r[b[~higher_first]]
        del argsort_kinds[:]
        *got, tied = sort(r)
        assert argsort_kinds == ["stable", None, "stable"]
        assert self.keeps(sort, got)
        want = stable_sorted_mass_profile(r, mass)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()
        assert tied is True

    def test_nan_takes_cold_sort(self):
        rng, r0, mass, sort, previous = self.scrambled_with_previous(6, "two values")
        r, _ = swapped_neighbours(rng, r0, previous[2], 5)
        r[previous[2][self.N // 2]] = np.nan
        *got, tied = sort(r)
        for x, y in zip(got, stable_sorted_mass_profile(r, mass)):
            assert x.tobytes() == y.tobytes()
        assert tied is True

    def test_still_scrambled_takes_cold_sort(self, argsort_kinds):
        # the previous order of other radii leaves these scrambled
        rng, r0, mass, sort, previous = self.scrambled_with_previous(7, "two values")
        r = rng.permutation(r0)
        del argsort_kinds[:]
        *got, _ = sort(r)
        assert argsort_kinds == [None]
        for x, y in zip(got, stable_sorted_mass_profile(r, mass)):
            assert x.tobytes() == y.tobytes()

    def test_refused_warm_start_keeps_unchanged_prefix(self, argsort_kinds):
        # the radii of each mass value shuffled among its own shells: r is
        # still scrambled in the last order, so the cold sort runs, yet
        # the masses in radius order are the last ones
        rng, r0, mass, sort, previous = self.scrambled_with_previous(10, "two values")
        r = r0.copy()
        for value in np.unique(mass):
            group = np.flatnonzero(mass == value)
            r[group] = rng.permutation(r0[group])
        assert _scrambled(r, previous[2])
        del argsort_kinds[:]
        got = sort(r)
        assert argsort_kinds == [None]
        assert got.mass is previous[0] and got.prefix is previous[1]
        want = stable_sorted_mass_profile(r, mass)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert self.keeps(sort, got)

    def test_nearly_sorted_radii_ignore_previous(self):
        rng = np.random.default_rng(8)
        r = radii_in_order(rng, 1000, "nearly sorted", False)
        mass = rng.uniform(0.1, 1.0, 1000)
        sort = _RadialOrder(mass)
        sort._last = ("not", "read")  # not a profile: reading it would raise
        *got, _ = sort(r)
        for x, y in zip(got, stable_sorted_mass_profile(r, mass)):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("kind", MASSES)
    def test_nearly_sorted_radii_keep_no_order(self, kind):
        # a static core sorts cold at every step, so no last order may
        # stay alive beside the arrays of the next sort
        rng, r0, mass, sort, _ = self.scrambled_with_previous(9, kind)
        sort(np.sort(r0))
        assert sort._last is None
        sort(r0)
        assert sort._last is not None
        sort(radii_in_order(rng, self.N, "nearly sorted", False))
        assert sort._last is None


class TestRecordParticleOrder:
    """`diagnostics_record` does not depend on particle order: the cells
    read from the sorted radii are bitwise equal under any permutation of
    the particles, and the sums in particle order agree within 1e-13
    relative.  Radii are distinct, so the sorted order is unique, and
    every w is positive, so no particle-order sum cancels."""

    SUMMED = ("E", "E_kin", "M", "var_x", "dilation", "conformal")
    R_GRID, Q_LIST = (0.8, 1.5, 2.5), (1.0, 5.0 / 3.0, 3.0)

    @staticmethod
    def ensemble(rng):
        n = int(rng.integers(100, 3000))
        kind = MASSES[int(rng.integers(len(MASSES)))]
        groups = np.where(rng.random(n) < 0.3, "shell", "core")
        return Ensemble(0.7, rng.uniform(0.5, 3.0, n), rng.uniform(0.05, 1.0, n),
                        rng.uniform(0.0, 0.5, n), masses(rng, n, kind) / n, groups)

    def test_permutations(self):
        header = diagnostics_header(self.R_GRID, self.Q_LIST).split(",")
        summed = np.isin(header, self.SUMMED)
        assert summed.sum() == len(self.SUMMED)
        for seed in range(12):
            rng = np.random.default_rng([2025, seed])
            e = self.ensemble(rng)
            assert np.unique(e.r).size == e.n
            want = diagnostics_record(e, self.R_GRID, self.Q_LIST)
            for _ in range(4):
                p = rng.permutation(e.n)
                permuted = Ensemble(e.time, e.r[p], e.w[p], e.ell[p], e.mass[p], e.group[p])
                got = diagnostics_record(permuted, self.R_GRID, self.Q_LIST)
                assert got[~summed].tobytes() == want[~summed].tobytes(), seed
                assert np.all(np.abs(got[summed] - want[summed])
                              <= 1e-13 * np.abs(want[summed])), seed
