"""Diagnostics CSV schema, snapshot files and run manifests.

The diagnostics header is fixed:

    t,E,E_kin,E_pot,M,var_x,dilation,conformal,R1,R2,R1_shell,
    conc_R<value>...,lq_<q>...

with one `conc_R` column per configured ball radius and one `lq_`
column per configured exponent.  Numbers are written as their shortest
round-trip decimal (Python repr), missing values as empty fields, and
lines end with LF, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import ClassifyInputError

__all__ = [
    "FIXED_COLUMNS",
    "diagnostics_header",
    "write_diagnostics",
    "read_diagnostics",
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

_fixed_cells = attrgetter(*(attr for _, attr, _, _ in _SCHEMA))


def _fmt(value):
    """Shortest round-trip decimal of a number; "" for None or non-finite."""
    if value is None:
        return ""
    value = float(value)
    return repr(value) if math.isfinite(value) else ""


def diagnostics_header(r_grid, q_list):
    columns = list(FIXED_COLUMNS)
    columns += [f"conc_R{_fmt(float(radius))}" for radius in r_grid]
    columns += [f"lq_{_fmt(float(q))}" for q in q_list]
    return ",".join(columns)


def write_diagnostics(path, records, r_grid, q_list):
    """Write DiagnosticsRecords with the fixed schema to `path`."""
    r_grid = tuple(float(radius) for radius in r_grid)
    q_list = tuple(float(q) for q in q_list)
    lines = [diagnostics_header(r_grid, q_list)]
    for rec in records:
        conc = dict(rec.concentration)
        lq = dict(rec.lq_norms)
        row = list(map(_fmt, _fixed_cells(rec)))
        row += [_fmt(conc[radius]) for radius in r_grid]
        row += [_fmt(lq[q]) for q in q_list]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


@dataclass
class ParsedRun:
    """Column-oriented view of one diagnostics file."""

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


def read_diagnostics(path):
    """Parse a diagnostics CSV back into arrays.

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
    for name in header[len(FIXED_COLUMNS) :]:
        if name.startswith("conc_R"):
            if lq_exponents:
                raise ClassifyInputError("conc_R columns must precede lq_", row=1)
            conc_radii.append(float(name[len("conc_R") :]))
        elif name.startswith("lq_"):
            lq_exponents.append(float(name[len("lq_") :]))
        else:
            raise ClassifyInputError(f"unknown column {name!r}", row=1)

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
            rows.append([float(p) if p else None for p in parts])
        except ValueError as exc:
            raise ClassifyInputError(str(exc), row=row_no)
    if not rows:
        raise ClassifyInputError("no data rows", row=2)

    def column(index, name, needed=True):
        values = [row[index] for row in rows]
        if None not in values:
            return np.array(values, dtype=np.float64)
        if needed:
            raise ClassifyInputError(f"column {name} has missing values", row=2)
        return None

    n_fixed = len(FIXED_COLUMNS)
    conc = {R: column(n_fixed + i, f"conc_R{R}") for i, R in enumerate(conc_radii)}
    n_conc = n_fixed + len(conc_radii)
    lq = {q: column(n_conc + i, f"lq_{q}") for i, q in enumerate(lq_exponents)}
    fixed = {
        field: column(i, name, needed)
        for i, (name, _, field, needed) in enumerate(_SCHEMA)
    }
    return ParsedRun(**fixed, conc=conc, lq=lq)


def write_snapshot(path, ensemble):
    """Particle table at one time: r,w,ell,mass,group rows."""
    lines = [f"# t = {_fmt(ensemble.time)}", "r,w,ell,mass,group"]
    for i in range(ensemble.n):
        lines.append(
            ",".join(
                (
                    _fmt(ensemble.r[i]),
                    _fmt(ensemble.w[i]),
                    _fmt(ensemble.ell[i]),
                    _fmt(ensemble.mass[i]),
                    str(ensemble.group[i]),
                )
            )
        )
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
