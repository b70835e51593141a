import numpy as np
import pytest

from vpshell import Ensemble

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
