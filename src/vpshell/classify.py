"""Post-processing of diagnostic time series into a dispersion label.

All asymptotic definitions (vanishing density norms, concentration
limits, unbounded variance, virial averages) are evaluated at a finite
horizon through trailing-window plateau and trend tests with declared
tolerances.  A series that has not converged yields "undetermined"
rather than a forced label.

Labels, from strongest to weakest evidence of mass loss:
strongly-dispersive (some density norm decays to zero), totally-
dispersive (the best-centred mass in every fixed ball decays to zero),
partially-dispersive (it plateaus strictly between 0 and the total
mass), then periodic, steady, virialized and undetermined.  Statistical
dispersion (variance growth without bound) is reported as an
independent flag; the label logic never emits a dispersive label with
the flag cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "TimeSeries",
    "GrowthFit",
    "ThresholdCheck",
    "PropositionCheck",
    "ClassificationReport",
    "growth_exponent",
    "concentration_limits",
    "strong_dispersion_test",
    "virialization_metric",
    "check_propositions",
    "classify",
]

# Finite-horizon tolerances (fractions of the natural scale of each test).
EPS_STRONG_FRAC = 1.0e-2  # density norm counts as vanished below this x initial
EPS_VIR_FRAC = 1.0e-2  # virial metric counts as zero below this x (|E| + E_kin(0))
MASS_TOL_FRAC = 1.0e-2  # concentration plateau tolerance, fraction of M
EXPONENT_TOL = 0.1  # allowed deviation of the t^2 growth exponent
STAT_GROWTH_FACTOR = 10.0  # variance growth factor standing in for "unbounded"
PLATEAU_TOL_FRAC = 2.0e-2  # agreement of the largest-R concentration values


@dataclass(frozen=True)
class TimeSeries:
    """Strictly increasing times with one finite value per time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.shape != t.shape:
            raise DomainError("times and values must be 1-d and equally long")
        if t.size and np.any(np.diff(t) <= 0.0):
            raise DomainError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("times and values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.times.size

    def trailing(self, frac=0.5):
        start = int(self.times.size * (1 - frac))
        return TimeSeries(self.times[start:], self.values[start:])


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of log value against log time."""

    exponent: float
    band: float  # two standard errors of the slope
    n_samples: int
    window: tuple  # (t_first, t_last) of the fit


@dataclass(frozen=True)
class ThresholdCheck:
    energy: float
    q_sq_over_2m: float
    relation: str  # "greater" | "equal" | "less"


@dataclass(frozen=True)
class PropositionCheck:
    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    detail: str = ""


@dataclass(frozen=True)
class ClassificationReport:
    label: str
    statistically_dispersive: bool | None = None
    growth: GrowthFit | None = None
    m_infinity: float | None = None
    m_infinity_band: float | None = None
    concentration_converged: bool | None = None
    strong_decay_rate: float | None = None
    virialized: bool | None = None
    virial_metric_final: float | None = None
    virial_metric_trace: tuple = ()  # downsampled ((t, value), ...) pairs
    interpolation_ratio_max: float | None = None
    threshold: ThresholdCheck | None = None
    propositions: tuple = ()
    notes: tuple = ()

    def to_dict(self):
        return {
            "label": self.label,
            "statistically_dispersive": self.statistically_dispersive,
            "growth_exponent": None
            if self.growth is None
            else {
                "value": self.growth.exponent,
                "band": self.growth.band,
                "n_samples": self.growth.n_samples,
                "window": list(self.growth.window),
            },
            "m_infinity": self.m_infinity,
            "m_infinity_band": self.m_infinity_band,
            "concentration_converged": self.concentration_converged,
            "strong_decay_rate": self.strong_decay_rate,
            "virialized": self.virialized,
            "virial_metric_final": self.virial_metric_final,
            "virial_metric_trace": [list(pair) for pair in self.virial_metric_trace],
            "interpolation_ratio_max": self.interpolation_ratio_max,
            "threshold_check": None
            if self.threshold is None
            else {
                "E": self.threshold.energy,
                "Q2_over_2M": self.threshold.q_sq_over_2m,
                "relation": self.threshold.relation,
            },
            "propositions": [
                {"name": p.name, "status": p.status, "detail": p.detail}
                for p in self.propositions
            ],
            "notes": list(self.notes),
        }


def _linear_slope(x, y):
    """Slope and its standard error from an ordinary least-squares line."""
    n = x.size
    xm = x.mean()
    ym = y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0.0:
        return 0.0, math.inf
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    if n <= 2:
        return slope, 0.0
    resid = y - ym - slope * (x - xm)
    var = float(np.sum(resid**2) / (n - 2))
    return slope, math.sqrt(var / sxx)


def growth_exponent(series: TimeSeries):
    """Power-law exponent of the trailing half of a positive series.

    Returns None (not applicable) when there are fewer than 10 usable
    samples, the positive times span less than a decade, or any value
    in the fit window is non-positive.
    """
    pos = series.times > 0.0
    t = series.times[pos]
    v = series.values[pos]
    if t.size < 10 or t[-1] < 10.0 * t[0]:
        return None
    start = t.size // 2
    t, v = t[start:], v[start:]
    if np.any(v <= 0.0):
        return None
    slope, stderr = _linear_slope(np.log(t), np.log(v))
    return GrowthFit(slope, 2.0 * stderr, int(t.size), (float(t[0]), float(t[-1])))


def _trend(series: TimeSeries):
    """Plain least-squares slope of value against time (trailing data)."""
    slope, _ = _linear_slope(series.times, series.values)
    return slope


def strong_dispersion_test(series: TimeSeries, q):
    """Does the L^q norm series decay to zero?

    True when the trailing window trends downward and the final value
    sits below EPS_STRONG_FRAC of the initial one.  Also fits the decay
    exponent (None when the fit preconditions fail).
    """
    if q <= 1.0:
        raise DomainError("strong dispersion concerns q > 1")
    if len(series) < 4:
        return False, None
    initial = series.values[0]
    tail = series.trailing()
    decayed = (
        initial > 0.0
        and series.values[-1] < EPS_STRONG_FRAC * initial
        and _trend(tail) <= 0.0
    )
    fit = growth_exponent(series)
    rate = None if fit is None else fit.exponent
    return bool(decayed), rate


def concentration_limits(times, conc_by_radius, total_mass):
    """Trailing-window estimates of the concentration limits M(R).

    `conc_by_radius` maps ball radius to the series of best-centred
    masses.  Each M(R) is the trailing average, flagged non-converged
    when the trailing trend would move it by more than MASS_TOL_FRAC * M
    over the window.  The limit at large R is the plateau of the two
    largest radii; the regime is "total" when it vanishes (below
    MASS_TOL_FRAC * M), "none" when it recovers the whole mass, "partial"
    in between, and None when the plateau has not converged.
    """
    radii = sorted(conc_by_radius)
    if len(radii) < 2:
        return {"per_radius": {}, "m_infinity": None, "band": None, "regime": None,
                "converged": False}
    per_radius = {}
    for radius in radii:
        series = TimeSeries(times, conc_by_radius[radius]).trailing()
        span = series.times[-1] - series.times[0]
        drift = abs(_trend(series)) * span
        per_radius[radius] = {
            "value": float(series.values.mean()),
            "converged": bool(drift <= MASS_TOL_FRAC * total_mass),
        }
    top = radii[-2:]
    top_vals = [per_radius[rad]["value"] for rad in top]
    converged = all(per_radius[rad]["converged"] for rad in top)
    plateau = abs(top_vals[1] - top_vals[0]) <= PLATEAU_TOL_FRAC * total_mass
    if not (converged and plateau):
        return {"per_radius": per_radius, "m_infinity": None, "band": None,
                "regime": None, "converged": False}
    m_inf = 0.5 * (top_vals[0] + top_vals[1])
    band = abs(top_vals[1] - top_vals[0]) + 2.0 * float(
        np.std(TimeSeries(times, conc_by_radius[top[-1]]).trailing().values)
    )
    if m_inf <= MASS_TOL_FRAC * total_mass:
        regime = "total"
    elif m_inf >= (1.0 - MASS_TOL_FRAC) * total_mass:
        regime = "none"
    else:
        regime = "partial"
    return {"per_radius": per_radius, "m_infinity": float(m_inf),
            "band": float(band), "regime": regime, "converged": True}


def virialization_metric(energy, ekin_series: TimeSeries):
    """Time average (1/t) integral of (E + E_kin) by the trapezoid rule.

    Returns (metric series from the second sample on, virialized flag).
    The flag is set when the trailing metric magnitudes sit below
    EPS_VIR_FRAC * (|E| + E_kin(0)) and are not growing.
    """
    t = ekin_series.times
    if t.size < 2 or t[0] != 0.0:
        raise DomainError("kinetic energy must be sampled from t = 0")
    integrand = energy + ekin_series.values
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t)))
    )
    metric = TimeSeries(t[1:], cumulative[1:] / t[1:])
    eps = EPS_VIR_FRAC * (abs(energy) + ekin_series.values[0])
    tail = metric.trailing(0.25) if len(metric) >= 8 else metric
    span = max(tail.times[-1] - tail.times[0], 1.0e-300)
    # small and not headed back up within another window of the same span
    flag = bool(
        np.max(np.abs(tail.values)) <= eps and _trend_abs(tail) * span <= eps
    )
    return metric, flag


def _trend_abs(series: TimeSeries):
    slope, _ = _linear_slope(series.times, np.abs(series.values))
    return slope


def _epot_vanishing(times, epot):
    """Trend test for the field energy decaying to zero."""
    series = TimeSeries(times, epot)
    if len(series) < 10 or series.values[0] <= 0.0:
        return False
    fit = growth_exponent(series)
    decayed = series.values[-1] <= 0.1 * series.values[0]
    trending = _trend(series.trailing()) <= 0.0
    steep = fit is not None and fit.exponent <= -0.3
    return bool(decayed and trending and steep)


def _detect_period(series: TimeSeries):
    """Autocorrelation period estimate requiring two matched periods.

    Returns the period or None.  Needs an oscillation amplitude well
    above the mean-level noise and a second autocorrelation peak within
    1 % (relative) of twice the first.
    """
    v = series.values
    n = v.size
    if n < 32:
        return None
    amp = float(v.max() - v.min())
    if amp <= 1.0e-3 * max(abs(float(v.mean())), 1.0e-300):
        return None
    dt = float(np.median(np.diff(series.times)))
    x = v - v.mean()
    ac = np.correlate(x, x, mode="full")[n - 1 :]
    ac = ac / ac[0]

    def refine(i):
        # quadratic sub-sample interpolation around a peak
        if 0 < i < n - 1:
            denom = ac[i - 1] - 2.0 * ac[i] + ac[i + 1]
            if denom != 0.0:
                return i + 0.5 * (ac[i - 1] - ac[i + 1]) / denom
        return float(i)

    peaks = [
        i
        for i in range(2, n - 1)
        if ac[i] >= ac[i - 1] and ac[i] >= ac[i + 1] and ac[i] >= 0.25
    ]
    if not peaks:
        return None
    first = peaks[0]
    near_double = [i for i in peaks if abs(i - 2 * first) <= max(3, int(0.1 * first))]
    if not near_double:
        return None
    second = max(near_double, key=lambda i: ac[i])
    lag1 = refine(first)
    lag2 = refine(second)
    if abs(lag2 - 2.0 * lag1) > 0.01 * lag2 + 0.5:
        return None
    return lag1 * dt


def _is_flat(values):
    values = np.asarray(values, dtype=np.float64)
    scale = max(float(np.max(np.abs(values))), 1.0e-300)
    return float(values.max() - values.min()) <= 1.0e-2 * scale


def check_propositions(energy, momentum_sq_over_2m, label, growth, epot_vanishes):
    """Consistency checks tying the label to the conserved quantities.

    A failed implication signals a simulation or classification bug,
    never new physics:

    * necessary-energy: a totally or strongly dispersive label requires
      E >= |Q|^2 / (2M);
    * variance-growth: E > |Q|^2 / (2M) forces the variance exponent
      into 2 +- EXPONENT_TOL;
    * field-energy-equivalence: a totally/strongly dispersive label is
      equivalent to the field energy decaying to zero;
    * steady and periodic energy bounds: E < 0, resp. E < -|Q|^2/(2M).
    """
    checks = []
    relation = _threshold(energy, momentum_sq_over_2m).relation
    strong_or_total = label in ("strongly-dispersive", "totally-dispersive")

    if strong_or_total:
        ok = relation != "less"
        checks.append(PropositionCheck(
            "necessary-energy", "pass" if ok else "fail",
            f"E={energy:.6g} vs Q^2/2M={momentum_sq_over_2m:.6g}"))
    else:
        checks.append(PropositionCheck("necessary-energy", "not-applicable"))

    if relation == "greater":
        if growth is None:
            checks.append(PropositionCheck(
                "variance-growth", "fail", "no usable variance fit"))
        else:
            ok = abs(growth.exponent - 2.0) <= EXPONENT_TOL
            checks.append(PropositionCheck(
                "variance-growth", "pass" if ok else "fail",
                f"exponent={growth.exponent:.4f}"))
    else:
        checks.append(PropositionCheck("variance-growth", "not-applicable"))

    if epot_vanishes is None or label == "undetermined":
        checks.append(PropositionCheck("field-energy-equivalence", "not-applicable"))
    else:
        ok = strong_or_total == bool(epot_vanishes)
        checks.append(PropositionCheck(
            "field-energy-equivalence", "pass" if ok else "fail",
            f"label={label}, field energy vanishes={epot_vanishes}"))

    if label == "steady":
        ok = energy < 0.0
        checks.append(PropositionCheck(
            "steady-energy", "pass" if ok else "fail", f"E={energy:.6g}"))
    elif label == "periodic":
        ok = energy < -momentum_sq_over_2m
        checks.append(PropositionCheck(
            "periodic-energy", "pass" if ok else "fail", f"E={energy:.6g}"))
    else:
        checks.append(PropositionCheck("steady-energy", "not-applicable"))
    return tuple(checks)


def classify(run_data, energy, momentum, total_mass):
    """Full decision cascade over a parsed diagnostics table.

    `run_data` needs attributes `times`, `variance`, `conc` (dict
    radius -> array), `lq` (dict q -> array) and optionally
    `energy_kinetic` / `energy_potential` arrays (None when a source
    does not emit them).  `momentum` is |Q| (identically zero for the
    reduced spherical representation, kept explicit for boosted
    bookkeeping).  A non-finite energy, a negative |Q|, a total mass
    outside (0, inf) or a non-finite Q^2/(2M) raises DomainError.
    """
    momentum = float(momentum)
    if not (math.isfinite(energy) and momentum >= 0.0 and 0.0 < total_mass < math.inf):
        raise DomainError("energy must be finite, momentum |Q| >= 0, mass in (0, inf)")
    momentum_term = momentum * momentum / (2.0 * total_mass)
    if not math.isfinite(momentum_term):
        raise DomainError(f"Q^2/(2M) is not finite for |Q| = {momentum!r}")
    notes = []
    times = np.asarray(run_data.times, dtype=np.float64)

    if times.size < 10:
        return ClassificationReport(
            label="undetermined",
            threshold=_threshold(energy, momentum_term),
            notes=("fewer than 10 samples",),
        )

    var_series = TimeSeries(times, run_data.variance)
    growth = growth_exponent(var_series)

    stat_raw = bool(
        np.max(run_data.variance) >= STAT_GROWTH_FACTOR * run_data.variance[0]
        and _trend(var_series.trailing()) > 0.0
    )

    strong = False
    strong_rate = None
    for q in sorted(run_data.lq, reverse=True):
        if q <= 1.0:
            continue
        strong, strong_rate = strong_dispersion_test(
            TimeSeries(times, run_data.lq[q]), q
        )
        if strong:
            break

    conc = concentration_limits(times, run_data.conc, total_mass)

    label = None
    if strong:
        label = "strongly-dispersive"
    elif conc["regime"] == "total":
        label = "totally-dispersive"
    elif conc["regime"] == "partial":
        label = "partially-dispersive"
    else:
        if conc["regime"] is None and run_data.conc:
            notes.append("concentration estimates not converged")
        period = _detect_period(var_series)
        if period is not None:
            label = "periodic"
            notes.append(f"variance period ~ {period:.6g}")

    ekin = getattr(run_data, "energy_kinetic", None)
    epot = getattr(run_data, "energy_potential", None)
    virialized = None
    metric_final = None
    metric_trace = ()
    if ekin is not None and times[0] == 0.0:
        metric, virialized = virialization_metric(energy, TimeSeries(times, ekin))
        metric_final = float(metric.values[-1])
        stride = max(1, len(metric) // 32)
        metric_trace = tuple(
            (float(metric.times[i]), float(metric.values[i]))
            for i in range(0, len(metric), stride)
        )

    if label is None:
        flat = _is_flat(run_data.variance)
        if flat and ekin is not None:
            flat = _is_flat(ekin) and _is_flat(epot)
        if flat:
            label = "steady"
        elif virialized:
            label = "virialized"
        else:
            label = "undetermined"

    stat_flag = stat_raw or label in (
        "strongly-dispersive",
        "totally-dispersive",
        "partially-dispersive",
    )

    # Monitored only: the ratio norm_{5/3}^{5/3} t^2 / conformal moment
    # stays bounded for regular data; no inequality constant is checked.
    ratio_max = _interpolation_ratio_max(run_data, times)
    if ratio_max is not None:
        notes.append(f"interpolation ratio bounded by {ratio_max:.4g}")

    epot_vanishes = None if epot is None else _epot_vanishing(times, epot)
    propositions = check_propositions(energy, momentum_term, label, growth, epot_vanishes)

    return ClassificationReport(
        label=label,
        statistically_dispersive=stat_flag,
        growth=growth,
        m_infinity=conc["m_infinity"],
        m_infinity_band=conc["band"],
        concentration_converged=conc["converged"],
        strong_decay_rate=strong_rate,
        virialized=virialized,
        virial_metric_final=metric_final,
        virial_metric_trace=metric_trace,
        interpolation_ratio_max=ratio_max,
        threshold=_threshold(energy, momentum_term),
        propositions=propositions,
        notes=tuple(notes),
    )


def _interpolation_ratio_max(run_data, times):
    conformal = getattr(run_data, "conformal", None)
    q = 5.0 / 3.0
    if conformal is None or q not in run_data.lq:
        return None
    mask = (times > 0.0) & (conformal > 0.0)
    if not np.any(mask):
        return None
    ratio = run_data.lq[q][mask] ** q * times[mask] ** 2 / conformal[mask]
    return float(np.max(ratio))


def _threshold(energy, momentum_term):
    scale = abs(energy) + abs(momentum_term) + 1.0e-300
    if energy > momentum_term + 1.0e-12 * scale:
        relation = "greater"
    elif energy < momentum_term - 1.0e-12 * scale:
        relation = "less"
    else:
        relation = "equal"
    return ThresholdCheck(float(energy), float(momentum_term), relation)
