"""Diagnostics CSV schema, the in-memory table, snapshot files and run
manifests.

The diagnostics header is fixed:

    t,E,E_kin,E_pot,M,var_x,dilation,conformal,R1,R2,R1_shell,
    conc_R<value>...,lq_<q>...

with one `conc_R` column per configured ball radius and one `lq_`
column per configured exponent.  Numbers are written as their shortest
round-trip decimal (Python repr), missing values as empty fields, and
lines end with LF, so identical runs produce byte-identical files.

`ParsedRun` is a run's one table from builder to label; `table_of`
wraps a block whose rows are its columns in header order, as `run()`
fills one and `read_diagnostics` parses one.  `_blocks` formats it
`_BLOCK` rows at a time, each block written straight to the file.  In a
block, a cell whose bits equal those of the cell above it reuses that
cell's text (a Kurth table's empty, mass and inner radius columns hold
one value each), so only a run's first cell goes through `repr`, and a
non-finite one is written empty.  Equality is on bits, so `-0.0` keeps
its sign and every cell is as `_fmt` writes it.  The column rule (`normalised`)
makes a column with a missing or non-finite cell None if it is optional
and a ClassifyInputError if it is required, and so is a `t` column that
does not strictly increase; the reader applies it too, so a run's
normalised table equals the read of its file bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
from dataclasses import dataclass

import numpy as np

from .errors import ClassifyInputError

__all__ = [
    "FIXED_COLUMNS",
    "diagnostics_header",
    "write_diagnostics",
    "read_diagnostics",
    "table_of",
    "normalised",
    "ParsedRun",
    "write_snapshot",
    "write_manifest",
]

# Each fixed column, in header order: its name, the ParsedRun field that
# holds it, and whether every row must carry a value on read.
_SCHEMA = (
    ("t", "times", True),
    ("E", "energy", True),
    ("E_kin", "energy_kinetic", False),
    ("E_pot", "energy_potential", False),
    ("M", "mass", True),
    ("var_x", "variance", True),
    ("dilation", "dilation", False),
    ("conformal", "conformal", False),
    ("R1", "inner_radius", True),
    ("R2", "outer_radius", True),
    ("R1_shell", "inner_radius_shell", True),
)

FIXED_COLUMNS = tuple(column for column, _, _ in _SCHEMA)

_FIELDS = tuple(field for _, field, _ in _SCHEMA)

# rows formatted and written per block, so a table never becomes one string
_BLOCK = 256


def _fmt(value):
    """Shortest round-trip decimal of a number; "" for None or non-finite."""
    if value is None:
        return ""
    value = float(value)
    return repr(value) if math.isfinite(value) else ""


def _blocks(columns):
    """The rows of equal-length float columns, one iterator of row texts
    per block, every cell as `_fmt` writes it (see the module docstring)."""
    table = np.column_stack(columns)
    for begin in range(0, len(table), _BLOCK):
        block = table[begin : begin + _BLOCK]
        bits = block.view(np.int64)
        start = np.ones(block.shape, bool)
        np.not_equal(bits[1:], bits[:-1], out=start[1:])
        values = block[start]
        texts = list(map(repr, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = ""
        # a cell takes the text of the last run start at or above it
        rank = np.zeros(block.shape, np.intp)
        rank[start] = np.arange(len(values))
        cells = map(texts.__getitem__, np.maximum.accumulate(rank).ravel().tolist())
        yield map(",".join, zip(*[cells] * table.shape[1]))


def diagnostics_header(r_grid, q_list):
    columns = list(FIXED_COLUMNS)
    columns += [f"conc_R{_fmt(float(radius))}" for radius in r_grid]
    columns += [f"lq_{_fmt(float(q))}" for q in q_list]
    return ",".join(columns)


@dataclass
class ParsedRun:
    """Column-oriented table of one run: arrays, or None for an optional
    column without values."""

    times: np.ndarray
    energy: np.ndarray
    energy_kinetic: np.ndarray | None
    energy_potential: np.ndarray | None
    mass: np.ndarray
    variance: np.ndarray
    dilation: np.ndarray | None
    conformal: np.ndarray | None
    inner_radius: np.ndarray
    outer_radius: np.ndarray
    inner_radius_shell: np.ndarray
    conc: dict  # radius -> array
    lq: dict  # q -> array


def table_of(block, r_grid, q_list):
    """The ParsedRun whose columns are the rows of `block`, in the order
    `diagnostics_header(r_grid, q_list)` names them.  Each column is a
    view of its row, so a C-contiguous block gives contiguous columns."""
    n_fixed = len(FIXED_COLUMNS)
    n_conc = n_fixed + len(r_grid)
    return ParsedRun(
        **dict(zip(_FIELDS, block)),
        conc=dict(zip(map(float, r_grid), block[n_fixed:n_conc])),
        lq=dict(zip(map(float, q_list), block[n_conc:])),
    )


def write_diagnostics(path, table, r_grid, q_list):
    """Write the ParsedRun `table` with the fixed schema to `path`; a
    None column is written empty."""
    r_grid = tuple(float(radius) for radius in r_grid)
    q_list = tuple(float(q) for q in q_list)
    empty = np.full(len(table.times), np.nan)
    columns = [getattr(table, field) for field in _FIELDS]
    columns = [empty if values is None else values for values in columns]
    columns += [table.conc[radius] for radius in r_grid]
    columns += [table.lq[q] for q in q_list]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(diagnostics_header(r_grid, q_list) + "\n")
        for rows in _blocks(columns):
            handle.write("\n".join(rows) + "\n")


def _column(values, name, needed):
    """The column rule: `values` if every cell is finite; else None for
    an optional column and ClassifyInputError for a required one."""
    # a None column has no cell with a value
    bad = np.ones(1, bool) if values is None else ~np.isfinite(values)
    if not bad.any():
        return values
    if needed:
        row = 2 + int(np.argmax(bad))
        raise ClassifyInputError(f"column {name} has missing values", row=row)
    return None


def normalised(table):
    """`table` under the column rule, as `read_diagnostics` returns it."""
    fixed = {
        field: _column(getattr(table, field), name, needed)
        for name, field, needed in _SCHEMA
    }
    times = fixed["times"]
    if not np.all(times[1:] > times[:-1]):
        row = 3 + int(np.argmin(times[1:] > times[:-1]))
        raise ClassifyInputError("column t must strictly increase", row=row)
    conc = {R: _column(v, f"conc_R{R}", True) for R, v in table.conc.items()}
    lq = {q: _column(v, f"lq_{q}", True) for q, v in table.lq.items()}
    return ParsedRun(**fixed, conc=conc, lq=lq)


def read_diagnostics(path):
    """Parse a diagnostics CSV back into its normalised table.

    Raises ClassifyInputError with the offending row number when the
    header or a data row does not conform: a column named twice, as
    `conc_R1` and `conc_R1.0` are, is refused at row 1.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ClassifyInputError("empty diagnostics file", row=1)
    header = lines[0].split(",")
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise ClassifyInputError(
            f"header must start with {','.join(FIXED_COLUMNS)}", row=1
        )
    conc_radii = []
    lq_exponents = []
    try:
        for name in header[len(FIXED_COLUMNS) :]:
            if name.startswith("conc_R"):
                if lq_exponents:
                    raise ClassifyInputError("conc_R columns must precede lq_", row=1)
                values, value = conc_radii, float(name[len("conc_R") :])
            elif name.startswith("lq_"):
                values, value = lq_exponents, float(name[len("lq_") :])
            else:
                raise ClassifyInputError(f"unknown column {name!r}", row=1)
            if value in values:
                raise ClassifyInputError(f"repeated column {name!r}", row=1)
            values.append(value)
    except ValueError as exc:
        raise ClassifyInputError(str(exc), row=1)

    n_cols = len(header)
    rows = []
    for row_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ClassifyInputError(
                f"expected {n_cols} fields, found {len(parts)}", row=row_no
            )
        try:
            rows.append([float(p or "nan") for p in parts])
        except ValueError as exc:
            raise ClassifyInputError(str(exc), row=row_no)
    if not rows:
        raise ClassifyInputError("no data rows", row=2)

    # one contiguous array per column, as a builder makes them
    columns = np.array(rows, dtype=np.float64).T.copy()
    return normalised(table_of(columns, conc_radii, lq_exponents))


def write_snapshot(path, ensemble):
    """Particle table at one time: r,w,ell,mass,group rows."""
    groups = iter(ensemble.group.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# t = {_fmt(ensemble.time)}\nr,w,ell,mass,group\n")
        for rows in _blocks((ensemble.r, ensemble.w, ensemble.ell, ensemble.mass)):
            handle.write("".join(f"{row},{group}\n" for row, group in zip(rows, groups)))


def write_manifest(path, command, config_values, seed, extra=None):
    """Self-describing record of how an artifact directory was produced."""
    from . import __version__

    manifest = {
        "command": command,
        "config": {
            key: (list(v) if isinstance(v, tuple) else v)
            for key, v in sorted(config_values.items())
        },
        "seed": seed,
        "versions": {
            "vpshell": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if extra:
        manifest.update(extra)
    _write_json(path, manifest)


def _json_fields(record, keys):
    """`dataclasses.asdict(record)` with each field named `name` stored
    under `keys.get(name, name)`, in nested dataclasses too."""
    return dataclasses.asdict(
        record, dict_factory=lambda items: {keys.get(k, k): v for k, v in items}
    )


def _write_json(path, data):
    """`data` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
