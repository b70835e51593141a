import math
from collections import namedtuple

import numpy as np
import pytest

from vpshell import DomainError, Ensemble, NumericalError, dynamical_time
from vpshell.diagnostics import SortedRadii, _RadialOrder

FIELDS = (
    "times", "energy", "energy_kinetic", "energy_potential", "mass", "variance",
    "dilation", "conformal", "inner_radius", "outer_radius", "inner_radius_shell",
)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def random_ensemble(rng, n_max=50, time=0.0):
    """Small random ensemble with log-spread radii."""
    n = int(rng.integers(1, n_max + 1))
    return Ensemble(
        time,
        10.0 ** rng.uniform(-1.0, 1.0, n),
        rng.normal(0.0, 1.0, n),
        np.abs(rng.normal(0.0, 1.0, n)),
        rng.uniform(0.1, 1.0, n),
    )


def table_columns(table):
    """The columns of a ParsedRun in header order; None for a missing one."""
    fixed = [getattr(table, field) for field in FIELDS]
    return fixed + list(table.conc.values()) + list(table.lq.values())


def same_column(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_tables_bitwise_equal(a, b):
    for field in FIELDS:
        assert same_column(getattr(a, field), getattr(b, field)), field
    for name in ("conc", "lq"):
        left, right = getattr(a, name), getattr(b, name)
        assert list(left) == list(right)
        assert all(same_column(left[key], right[key]) for key in left), name


# ----------------------------------------------------------------------
# oracles and samplers that only the tests use
# ----------------------------------------------------------------------

KurthTrajectory = namedtuple("KurthTrajectory", "t phi phi_dot")


def _default_dt(k):
    # Fixed step per trajectory keeps the integrator symplectic, which
    # bounds the first-integral error instead of letting it drift.  The
    # step shrinks with the analytic minimum radius, where the
    # oscillation frequency peaks.
    if abs(k) < 1.0 or k <= -1.0:
        phi_min = 1.0 / (1.0 + abs(k))
    else:
        phi_min = 1.0
    return 1.0e-4 * min(1.0, phi_min * phi_min)


def integrate_phi(k, t_end):
    """Leapfrog integration of Kurth's phi'' = (1 - phi)/phi^3 from
    (1, k): a second, independent route to `kurth.phi_closed_form`.

    The step is fixed per trajectory (see `_default_dt`); at that step
    the first integral drifts by less than 1e-8 (relative) per unit
    time.  Samples are stored roughly every 0.01, always including
    t = 0 and exactly t = t_end.
    """
    if t_end < 0.0:
        raise DomainError("t_end must be >= 0")
    dt = _default_dt(k)
    output_cadence = 0.01

    phi = 1.0
    pd = float(k)
    t = 0.0
    acc = (1.0 - phi) / phi**3
    times = [0.0]
    phis = [phi]
    pds = [pd]
    next_out = output_cadence
    while t < t_end - 1.0e-15 * max(1.0, t_end):
        h = dt if t + dt <= t_end else t_end - t
        pd_half = pd + 0.5 * h * acc
        phi = phi + h * pd_half
        if phi <= 1.0e-9:
            raise NumericalError("dilation radius collapsed to zero", time=t)
        acc = (1.0 - phi) / (phi * phi * phi)
        pd = pd_half + 0.5 * h * acc
        t += h
        if t >= next_out - 1.0e-12 or t >= t_end - 1.0e-15 * max(1.0, t_end):
            times.append(t)
            phis.append(phi)
            pds.append(pd)
            while next_out <= t + 1.0e-12:
                next_out += output_cadence
    return KurthTrajectory(np.array(times), np.array(phis), np.array(pds))


def stable_sorted_mass_profile(r, mass):
    """Oracle of `_RadialOrder`: one stable argsort, whatever the order
    of the radii."""
    order = np.argsort(r, kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(mass[order])))
    return r[order], mass[order], prefix, order


def stable_sort(sort, r):
    """The oracle in place of `_RadialOrder.__call__`: no last sort, no
    equal-mass prefix, a gather and a cumsum at every call."""
    r_sorted, m_sorted, prefix, order = stable_sorted_mass_profile(r, sort.mass)
    return SortedRadii(r_sorted, m_sorted, prefix, order,
                       bool(np.any(r_sorted[1:] == r_sorted[:-1])))


def general_order(mass):
    """A `_RadialOrder` whose equal prefix is None: it gathers and sums
    the masses at every cold sort even when they are all equal."""
    sort = _RadialOrder(mass)
    sort.equal_prefix = None
    return sort


def galilean_shift(E, Q, M, u):
    """Energy and momentum after a boost by velocity u.

    Returns (E', Q') with Q' = Q - M u and E' = E - Q.u + (1/2) M |u|^2.
    The combination E - |Q|^2 / (2M) is invariant.
    """
    if M <= 0.0:
        raise DomainError("mass must be positive")
    Q = np.asarray(Q, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    Q_shift = Q - M * u
    E_shift = float(E - np.dot(Q, u) + 0.5 * M * float(np.dot(u, u)))
    return E_shift, Q_shift


def homologous_ball(n, k):
    """An exactly homologous uniform ball of n equal shells, total mass 1
    and radius 1, and its dynamical time T_D.

    Shell i sits at r_i = P_i^(1/3), with P_i the mass of the shells
    before it, on the circular orbit ell_i^2 = r_i P_i/(4 pi); the
    innermost (P = 0) sits at 1e-6 r_1 with ell = 0.  Every other shell
    then feels -r/(4 pi), so with w = k r / T_D the simulator's exact
    solution is r_i(t) = phi(t/T_D) r_i(0), phi Kurth's closed form with
    phi'(0) = k, and the variance is var(0) phi^2 up to the innermost
    shell's negligible share.
    """
    t_d = dynamical_time(1.0, 1.0)
    m = np.full(n, 1.0 / n)
    prefix = np.concatenate(([0.0], np.cumsum(m)[:-1]))
    r = prefix ** (1.0 / 3.0)
    r[0] = 1.0e-6 * r[1]
    ell = np.sqrt(r * prefix / (4.0 * math.pi))
    return Ensemble(0.0, r, k * r / t_d, ell, m), t_d
