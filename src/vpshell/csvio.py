"""Diagnostics CSV schema, the in-memory table, snapshot files and run
manifests.

The diagnostics header is fixed:

    t,E,E_kin,E_pot,M,var_x,dilation,conformal,R1,R2,R1_shell,
    conc_R<value>...,lq_<q>...

with one `conc_R` column per configured ball radius and one `lq_`
column per configured exponent.  Numbers are written as their shortest
round-trip decimal (Python repr), missing values as empty fields, and
lines end with LF, so identical runs produce byte-identical files.

`ParsedRun` is a run's one table from builder to label.  `_rows`
formats it a row at a time: `",".join(map(repr, row))` over the stacked
float columns, then the texts `nan`, `-inf` and `inf` are deleted.  A
finite float's repr holds no letter but `e`, so the deletion leaves
every finite cell as `_fmt` writes it.  The column rule (`normalised`)
makes a column with a missing or non-finite cell None if it is optional
and a ClassifyInputError if it is required; the reader applies it too,
so a run's normalised table equals the read of its file bit for bit.
"""

from __future__ import annotations

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
    "records_table",
    "normalised",
    "ParsedRun",
    "write_snapshot",
    "write_manifest",
]

# Each fixed column: its name, the DiagnosticsRecord attribute it is
# written from, the ParsedRun field it is read into, and whether every
# row must carry a value on read.
_SCHEMA = (
    ("t", "time", "times", True),
    ("E", "energy_total", "energy", True),
    ("E_kin", "energy_kinetic", "energy_kinetic", False),
    ("E_pot", "energy_potential", "energy_potential", False),
    ("M", "mass", "mass", True),
    ("var_x", "variance", "variance", True),
    ("dilation", "dilation_moment", "dilation", False),
    ("conformal", "conformal_moment", "conformal", False),
    ("R1", "inner_radius", "inner_radius", True),
    ("R2", "outer_radius", "outer_radius", True),
    ("R1_shell", "inner_radius_shell", "inner_radius_shell", True),
)

FIXED_COLUMNS = tuple(column for column, _, _, _ in _SCHEMA)

_FIELDS = tuple(field for _, _, field, _ in _SCHEMA)

# rows formatted per block, so a large table never becomes one list
_BLOCK = 4096


def _fmt(value):
    """Shortest round-trip decimal of a number; "" for None or non-finite."""
    if value is None:
        return ""
    value = float(value)
    return repr(value) if math.isfinite(value) else ""


def _rows(columns):
    """Text of each row of equal-length columns, every cell as `_fmt`
    writes it (see the module docstring)."""
    table = np.column_stack(columns)
    for start in range(0, len(table), _BLOCK):
        for row in table[start : start + _BLOCK].tolist():
            text = ",".join(map(repr, row))
            # only "nan" and "inf" hold an "n"
            if "n" in text:
                text = text.replace("nan", "").replace("-inf", "").replace("inf", "")
            yield text


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


def records_table(records, r_grid, q_list):
    """The table of DiagnosticsRecords; a None cell becomes NaN."""
    records = list(records)
    conc = [dict(rec.concentration) for rec in records]
    lq = [dict(rec.lq_norms) for rec in records]
    return ParsedRun(
        **{field: np.array([getattr(rec, attr) for rec in records], np.float64)
           for _, attr, field, _ in _SCHEMA},
        conc={float(R): np.array([row[R] for row in conc], np.float64) for R in r_grid},
        lq={float(q): np.array([row[q] for row in lq], np.float64) for q in q_list},
    )


def write_diagnostics(path, records, r_grid, q_list):
    """Write a ParsedRun, or a list of DiagnosticsRecords, with the fixed
    schema to `path`; a None column is written empty."""
    r_grid = tuple(float(radius) for radius in r_grid)
    q_list = tuple(float(q) for q in q_list)
    table = records
    if not isinstance(table, ParsedRun):
        table = records_table(records, r_grid, q_list)
    empty = np.full(len(table.times), np.nan)
    columns = [getattr(table, field) for field in _FIELDS]
    columns = [empty if values is None else values for values in columns]
    columns += [table.conc[radius] for radius in r_grid]
    columns += [table.lq[q] for q in q_list]
    lines = [diagnostics_header(r_grid, q_list), *_rows(columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


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
        for name, _, field, needed in _SCHEMA
    }
    conc = {R: _column(v, f"conc_R{R}", True) for R, v in table.conc.items()}
    lq = {q: _column(v, f"lq_{q}", True) for q, v in table.lq.items()}
    return ParsedRun(**fixed, conc=conc, lq=lq)


def read_diagnostics(path):
    """Parse a diagnostics CSV back into its normalised table.

    Raises ClassifyInputError with the offending row number when the
    header or a data row does not conform.
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
                conc_radii.append(float(name[len("conc_R") :]))
            elif name.startswith("lq_"):
                lq_exponents.append(float(name[len("lq_") :]))
            else:
                raise ClassifyInputError(f"unknown column {name!r}", row=1)
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
    n_fixed = len(FIXED_COLUMNS)
    n_conc = n_fixed + len(conc_radii)
    return normalised(ParsedRun(
        **dict(zip(_FIELDS, columns)),
        conc=dict(zip(conc_radii, columns[n_fixed:n_conc])),
        lq=dict(zip(lq_exponents, columns[n_conc:])),
    ))


def write_snapshot(path, ensemble):
    """Particle table at one time: r,w,ell,mass,group rows."""
    lines = [f"# t = {_fmt(ensemble.time)}", "r,w,ell,mass,group"]
    cells = _rows((ensemble.r, ensemble.w, ensemble.ell, ensemble.mass))
    lines += [f"{row},{group}" for row, group in zip(cells, ensemble.group.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


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


def _write_json(path, data):
    """`data` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
