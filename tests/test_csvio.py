"""The row formatter against a per-cell oracle, and the column rule on
the read and the in-memory paths."""

import math
import random

import numpy as np
import pytest

from conftest import FIELDS, assert_tables_bitwise_equal, table_columns
from vpshell.csvio import (
    _BLOCK,
    ParsedRun,
    diagnostics_header,
    normalised,
    read_diagnostics,
    write_diagnostics,
    write_snapshot,
)
from vpshell.ensemble import Ensemble
from vpshell.errors import ClassifyInputError

OPTIONAL = {"energy_kinetic", "energy_potential", "dilation", "conformal"}
EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         1.0, 3.0, -12.0, 1e16, 2.0**53)
NON_FINITE = (None, math.nan, math.inf, -math.inf)


def cell(value):
    """Per-cell oracle: shortest round-trip decimal, "" for None or non-finite."""
    if value is None:
        return ""
    value = float(value)
    return repr(value) if math.isfinite(value) else ""


def oracle_diagnostics(table, r_grid, q_list):
    lines = [diagnostics_header(r_grid, q_list)]
    columns = table_columns(table)
    for i in range(len(table.times)):
        lines.append(",".join(cell(None if col is None else col[i]) for col in columns))
    return ("\n".join(lines) + "\n").encode()


def finite(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(EDGES)
    if pick < 0.4:
        return float(rng.randint(-10**6, 10**6))
    return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-320, 300)


def value(rng, missing):
    return rng.choice(NON_FINITE) if rng.random() < missing else finite(rng)


def increasing(rng, n):
    """n distinct finite values in increasing order."""
    values = set()
    while len(values) < n:
        values.add(finite(rng))
    return np.array(sorted(values), np.float64)


def random_table(rng, n, r_grid, q_list, missing=0.2, required_missing=0.0, ordered=False):
    """A table of n rows whose optional cells are missing (NaN) or
    non-finite with probability `missing`, the required ones with
    `required_missing`; an optional column is None with probability
    `missing`.  With `ordered` the times strictly increase, as the
    column rule requires."""
    def column(p):
        return np.array([value(rng, p) for _ in range(n)], np.float64)

    fixed = {
        field: (None if rng.random() < missing else column(missing))
        if field in OPTIONAL else column(required_missing)
        for field in FIELDS
    }
    if ordered:
        fixed["times"] = increasing(rng, n)
    return ParsedRun(**fixed, conc={R: column(required_missing) for R in r_grid},
                     lq={q: column(required_missing) for q in q_list})


def random_grids(rng):
    r_grid = tuple(sorted({round(rng.uniform(0.1, 10.0), 3) for _ in range(rng.randint(0, 4))}))
    q_list = tuple(sorted({rng.choice((1.0, 1.5, 5.0 / 3.0, 3.0)) for _ in range(rng.randint(0, 3))}))
    return r_grid, q_list


def test_writer_bytes_equal_per_cell_oracle(tmp_path):
    rng = random.Random(20261019)
    path = tmp_path / "d.csv"
    for _ in range(40):
        r_grid, q_list = random_grids(rng)
        table = random_table(rng, rng.randint(0, 30), r_grid, q_list,
                             missing=0.3, required_missing=0.1)
        write_diagnostics(str(path), table, r_grid, q_list)
        assert path.read_bytes() == oracle_diagnostics(table, r_grid, q_list)


def nans(*words):
    """NaNs (and infinities) with the given bit patterns."""
    return np.array(words, np.uint64).view(np.float64)


# distinct bits that all write as ""
NAN_BITS = nans(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0xFFF0000000000ABC, 0x7FF0000000000000, 0xFFF0000000000000)


def test_writer_reuses_a_text_only_for_equal_bits(tmp_path):
    # a cell reuses the text of the equal cell above it; these columns
    # make runs cross block boundaries and put equal values (0.0 and
    # -0.0, NaNs of every payload and sign) with different bits next to
    # each other
    n = 3 * _BLOCK + 7
    rows = np.arange(n)
    runs = np.repeat([1.5, -2.0, 1.5, 0.0, 1e300], -(-n // 5))[:n]
    table = ParsedRun(
        times=rows * 0.5, energy=runs, energy_kinetic=np.where(rows % 2, 0.0, -0.0),
        energy_potential=NAN_BITS[rows % len(NAN_BITS)],
        mass=np.full(n, 1.0), variance=np.repeat(NAN_BITS, -(-n // len(NAN_BITS)))[:n],
        dilation=np.where(rows < _BLOCK + 3, -0.0, 0.0), conformal=None,
        inner_radius=np.where(rows % 3, math.nan, -0.0), outer_radius=runs[::-1].copy(),
        inner_radius_shell=np.zeros(n), conc={2.0: np.where(rows % _BLOCK, 1.0, 0.25)},
        lq={3.0: np.where(rows == _BLOCK, -0.0, 0.0)},
    )
    path = tmp_path / "d.csv"
    write_diagnostics(str(path), table, (2.0,), (3.0,))
    assert path.read_bytes() == oracle_diagnostics(table, (2.0,), (3.0,))


def test_read_equals_normalised_table(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "d.csv"
    nones = 0
    for _ in range(40):
        r_grid, q_list = random_grids(rng)
        table = random_table(rng, rng.randint(1, 30), r_grid, q_list,
                             missing=rng.choice((0.0, 0.05, 0.5)), ordered=True)
        write_diagnostics(str(path), table, r_grid, q_list)
        expected = normalised(table)
        parsed = read_diagnostics(str(path))
        assert_tables_bitwise_equal(parsed, expected)
        nones += sum(getattr(parsed, field) is None for field in FIELDS)
        # a normalised table writes the same bytes and is its own normal form
        assert_tables_bitwise_equal(normalised(expected), expected)
        write_diagnostics(str(path), expected, r_grid, q_list)
        assert_tables_bitwise_equal(read_diagnostics(str(path)), expected)
    assert nones > 0


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_required_non_finite_cell_raises_on_both_paths(bad, tmp_path):
    rng = random.Random(11)
    r_grid, q_list = (1.0, 2.0), (5.0 / 3.0,)
    path = tmp_path / "d.csv"
    required = [f for f in FIELDS if f not in OPTIONAL]
    for target in required + ["conc", "lq"]:
        table = random_table(rng, 12, r_grid, q_list, missing=0.0, ordered=True)
        row = rng.randrange(12)
        column = table.conc[2.0] if target == "conc" else (
            table.lq[5.0 / 3.0] if target == "lq" else getattr(table, target))
        column[row] = np.nan if bad is None else bad
        write_diagnostics(str(path), table, r_grid, q_list)
        with pytest.raises(ClassifyInputError) as in_memory:
            normalised(table)
        with pytest.raises(ClassifyInputError) as on_disk:
            read_diagnostics(str(path))
        assert in_memory.value.row == on_disk.value.row == row + 2
        assert str(in_memory.value) == str(on_disk.value)


@pytest.mark.parametrize("back_to", ["previous", "first"])
def test_times_that_do_not_increase_raise_on_both_paths(back_to, tmp_path):
    # t at one row falls back to the row before it or to the first row;
    # that row, the first that does not increase, is named
    rng = random.Random(12)
    path = tmp_path / "d.csv"
    for row in range(1, 12):
        table = random_table(rng, 12, (2.0,), (), missing=0.0, ordered=True)
        times = table.times
        times[row] = times[row - 1] if back_to == "previous" else times[0]
        write_diagnostics(str(path), table, (2.0,), ())
        with pytest.raises(ClassifyInputError) as in_memory:
            normalised(table)
        with pytest.raises(ClassifyInputError) as on_disk:
            read_diagnostics(str(path))
        assert in_memory.value.row == on_disk.value.row == row + 2
        assert "column t must strictly increase" in str(on_disk.value)


@pytest.mark.parametrize("columns", [("conc_R1.0", "conc_R1.0"), ("conc_R1", "conc_R1.0"),
                                     ("conc_R0.0", "conc_R-0.0"), ("lq_2.0", "lq_2")])
def test_repeated_column_is_input_error(columns, tmp_path):
    # a second column of one value would replace the first in the table
    path = tmp_path / "d.csv"
    header = ",".join([diagnostics_header((), ()), "conc_R4.0", *columns])
    path.write_text(header + "\n" + ",".join(["1.0"] * 14) + "\n")
    with pytest.raises(ClassifyInputError) as err:
        read_diagnostics(str(path))
    assert err.value.row == 1 and "repeated column" in str(err.value)


@pytest.mark.parametrize("column", ["conc_Rabc", "lq_", "conc_R"])
def test_unparsable_header_number_is_input_error(column, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(diagnostics_header((), ()) + f",{column}\n" + ",".join(["1.0"] * 12) + "\n")
    with pytest.raises(ClassifyInputError) as err:
        read_diagnostics(str(path))
    assert err.value.row == 1


def oracle_snapshot(ensemble):
    lines = [f"# t = {cell(ensemble.time)}", "r,w,ell,mass,group"]
    for i in range(ensemble.n):
        lines.append(",".join((
            cell(ensemble.r[i]), cell(ensemble.w[i]), cell(ensemble.ell[i]),
            cell(ensemble.mass[i]), str(ensemble.group[i]),
        )))
    return ("\n".join(lines) + "\n").encode()


def test_snapshot_bytes_equal_per_cell_oracle(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "snap.csv"
    # the last snapshot's equal masses make one run over several blocks
    for n, equal_mass in ((1, False), (2, False), (17, False), (5000, False),
                          (3 * _BLOCK + 5, True)):
        def positive():
            return [abs(finite(rng)) or 5e-324 for _ in range(n)]

        # masses small enough that their total stays finite
        mass = [1.0 / n] * n if equal_mass else [min(m, 1e300) for m in positive()]
        ensemble = Ensemble(
            finite(rng), positive(), [finite(rng) for _ in range(n)],
            [abs(finite(rng)) for _ in range(n)], mass,
            [rng.choice(("", "core", "outer_shell_population")) for _ in range(n)],
        )
        write_snapshot(str(path), ensemble)
        assert path.read_bytes() == oracle_snapshot(ensemble)
