"""Flat `key = value` run configuration.

Lines hold one assignment each; `#` starts a comment; blank lines are
skipped.  Unknown keys are hard errors so typos cannot silently change
a run.  Scenario-specific keys are namespaced (`shell.mass`,
`core.radius`, `kurth.k`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "load_config"]


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_int(text):
    """An integral finite number as an int: `100`, `1e3` and `100.0`
    pass, `100.7` does not.  A plain digit string keeps every digit."""
    if isinstance(text, str) and text.strip().isdecimal():
        return int(text)
    value = _parse_float(text)
    if not value.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(value)


def _parse_float_list(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float(part) for part in text.split(","))


_SCHEMA = {
    "scenario": str,
    "seed": _parse_int,
    "t_end": _parse_float,
    "output_cadence": _parse_float,
    "dt_initial": _parse_float,
    "dt_safety": _parse_float,
    "reflection": _parse_bool,
    "r_grid": _parse_float_list,
    "q_list": _parse_float_list,
    "n_bins": _parse_int,
    "snapshot_times": _parse_float_list,
    "shell.mass": _parse_float,
    "shell.r_inner": _parse_float,
    "shell.r_outer": _parse_float,
    "shell.w_min": _parse_float,
    "shell.w_max": _parse_float,
    "shell.ell_min": _parse_float,
    "shell.ell_max": _parse_float,
    "shell.n": _parse_int,
    "core.mass": _parse_float,
    "core.radius": _parse_float,
    "core.n": _parse_int,
    "kurth.k": _parse_float,
}

_SCENARIOS = ("shell", "core", "shell_plus_core", "kurth")

_REQUIRED = {
    "shell": ("shell.mass", "shell.r_inner", "shell.r_outer", "shell.w_min",
              "shell.w_max", "shell.n"),
    "core": ("core.mass", "core.radius", "core.n"),
    "kurth": ("kurth.k",),
}
_REQUIRED["shell_plus_core"] = _REQUIRED["shell"] + _REQUIRED["core"]

_DEFAULTS = {
    "seed": 0,
    "output_cadence": 1.0,
    "dt_initial": 0.1,
    "dt_safety": 0.1,
    "reflection": True,
    "r_grid": (),
    "q_list": (5.0 / 3.0,),
    "n_bins": 0,
    "snapshot_times": (),
    "shell.ell_min": 0.0,
    "shell.ell_max": 0.0,
}


@dataclass
class RunConfig:
    """Validated run description; `values` keeps the raw key map."""

    scenario: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def replace(self, **overrides):
        merged = dict(self.values)
        for key, value in overrides.items():
            merged[key] = value
        return RunConfig(merged["scenario"], merged)


def parse_config(text):
    """Parse and validate configuration text into a RunConfig."""
    raw = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected `key = value`", line=lineno)
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            raw[key] = _SCHEMA[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno)
        lines[key] = lineno

    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario'")
    scenario = raw["scenario"]
    if scenario not in _SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {', '.join(_SCENARIOS)}",
            line=lines.get("scenario"),
        )
    if "t_end" not in raw:
        raise ConfigError("missing required key 't_end'")
    for key in _REQUIRED[scenario]:
        if key not in raw:
            raise ConfigError(f"scenario {scenario!r} requires key {key!r}")

    values = dict(_DEFAULTS)
    values.update(raw)
    values["scenario"] = scenario
    return _validated(values, lines)


def _validated(values, lines=None):
    """Check the value ranges; `lines` maps keys to line numbers."""
    lines = lines or {}

    def bad(key, message):
        return ConfigError(f"{key}: {message}", line=lines.get(key))

    if values["seed"] < 0:
        raise bad("seed", "must be >= 0")
    if values["t_end"] < 0.0:
        raise bad("t_end", "must be >= 0")
    if not all(0.0 <= s <= values["t_end"] for s in values["snapshot_times"]):
        raise bad("snapshot_times", "must lie within [0, t_end]")
    if values["output_cadence"] <= 0.0:
        raise bad("output_cadence", "must be positive")
    if values["dt_initial"] <= 0.0:
        raise bad("dt_initial", "must be positive")
    if not 0.0 < values["dt_safety"] <= 1.0:
        raise bad("dt_safety", "must be in (0, 1]")
    if values["n_bins"] < 0:
        raise bad("n_bins", "must be >= 0 (0 selects ceil(sqrt(N)))")
    if any(q < 1.0 for q in values["q_list"]):
        raise bad("q_list", "exponents must be >= 1")
    if any(radius <= 0.0 for radius in values["r_grid"]):
        raise bad("r_grid", "ball radii must be positive")
    for key in ("r_grid", "q_list"):
        # a repeated value would name two columns alike
        if len(set(values[key])) < len(values[key]):
            raise bad(key, "values must not repeat")
    return RunConfig(values["scenario"], values)


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())

