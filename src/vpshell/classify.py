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

from .csvio import ParsedRun, _json_fields
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
    threshold: ThresholdCheck | None = None
    propositions: tuple = ()
    notes: tuple = ()

    def to_dict(self):
        """The report.json payload: every field, under its JSON name."""
        return _json_fields(self, _JSON_KEYS)


# report.json names of the fields whose JSON key differs
_JSON_KEYS = {"growth": "growth_exponent", "exponent": "value", "threshold": "threshold_check",
              "energy": "E", "q_sq_over_2m": "Q2_over_2M"}


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
        and _linear_slope(tail.times, tail.values)[0] <= 0.0
    )
    fit = growth_exponent(series)
    rate = None if fit is None else fit.exponent
    return bool(decayed), rate


def concentration_limits(times, conc_by_radius, total_mass):
    """Trailing-window estimate of the concentration limit at large R.

    Only the two largest radii of `conc_by_radius` (ball radius -> series
    of best-centred masses) are read.  The limit is the mean of their
    trailing averages; it has converged when neither trailing trend moves
    its average by more than MASS_TOL_FRAC * M over the window and the
    two agree within PLATEAU_TOL_FRAC * M.  The regime is "total" below
    MASS_TOL_FRAC * M, "none" above (1 - MASS_TOL_FRAC) * M, "partial" in
    between, and None when the limit has not converged.
    """
    not_converged = {"m_infinity": None, "band": None, "regime": None, "converged": False}
    top = sorted(conc_by_radius)[-2:]
    if len(top) < 2:
        return not_converged
    tails = [TimeSeries(times, conc_by_radius[radius]).trailing() for radius in top]
    low, high = (float(tail.values.mean()) for tail in tails)
    steady = all(
        abs(_linear_slope(tail.times, tail.values)[0]) * (tail.times[-1] - tail.times[0])
        <= MASS_TOL_FRAC * total_mass
        for tail in tails
    )
    if not (steady and abs(high - low) <= PLATEAU_TOL_FRAC * total_mass):
        return not_converged
    m_inf = 0.5 * (low + high)
    band = abs(high - low) + 2.0 * float(np.std(tails[1].values))
    if m_inf <= MASS_TOL_FRAC * total_mass:
        regime = "total"
    elif m_inf >= (1.0 - MASS_TOL_FRAC) * total_mass:
        regime = "none"
    else:
        regime = "partial"
    return {"m_infinity": m_inf, "band": band, "regime": regime, "converged": True}


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
        np.max(np.abs(tail.values)) <= eps
        and _linear_slope(tail.times, np.abs(tail.values))[0] * span <= eps
    )
    return metric, flag


def _epot_vanishing(times, epot):
    """Trend test for the field energy decaying to zero."""
    series = TimeSeries(times, epot)
    if len(series) < 10 or series.values[0] <= 0.0:
        return False
    fit = growth_exponent(series)
    decayed = series.values[-1] <= 0.1 * series.values[0]
    tail = series.trailing()
    trending = _linear_slope(tail.times, tail.values)[0] <= 0.0
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


def _variance_margin(run_data: ParsedRun):
    """(smallest margin, its time) of the variance bound, or None when
    the table has no `dilation` column.

    With D the dilation moment, dD/dt = 2E + E_pot + S >= 2E (S the
    self-energy that the forces leave out), so over the elapsed time t

        var(t) >= var(0) + 2 D(0) t/M + 2 E(0) t^2/M

    (Illner and Rein 1996; Perthame 1996).  The table's E drifts by
    delta(t) = max_{s<=t} |E(s) - E(0)|, which lowers the bound by at
    most 2 t^2 delta(t)/M: the margin is var - bound + 2 t^2 delta/M.
    It is 0 at the first row by construction, so the smallest is taken
    over the rows after it (a table has at least two).
    """
    if run_data.dilation is None:
        return None
    t = run_data.times - run_data.times[0]
    energy, mass = run_data.energy, run_data.mass[0]
    drift = np.maximum.accumulate(np.abs(energy - energy[0]))
    bound = (run_data.variance[0] + 2.0 * run_data.dilation[0] * t / mass
             + 2.0 * energy[0] * t**2 / mass)
    margin = (run_data.variance - bound + 2.0 * t**2 * drift / mass)[1:]
    i = int(np.argmin(margin))
    return float(margin[i]), float(run_data.times[i + 1])


def check_propositions(threshold: ThresholdCheck, label, epot_vanishes, variance_margin):
    """Consistency checks tying the label to the conserved quantities,
    read from the E vs |Q|^2/(2M) `threshold` that `classify` decided.

    A failed implication signals a simulation or classification bug,
    never new physics:

    * necessary-energy: a totally or strongly dispersive label requires
      E >= |Q|^2 / (2M);
    * variance-lower-bound: the smallest `_variance_margin`, a
      (margin, time) pair or None without a dilation column, is >= 0;
    * field-energy-equivalence: a totally/strongly dispersive label is
      equivalent to the field energy decaying to zero;
    * steady and periodic energy bounds: E < 0, resp. E < -|Q|^2/(2M).
    """
    checks = []
    energy, momentum_sq_over_2m = threshold.energy, threshold.q_sq_over_2m
    relation = threshold.relation
    strong_or_total = label in ("strongly-dispersive", "totally-dispersive")

    if strong_or_total:
        ok = relation != "less"
        checks.append(PropositionCheck(
            "necessary-energy", "pass" if ok else "fail",
            f"E={energy:.6g} vs Q^2/2M={momentum_sq_over_2m:.6g}"))
    else:
        checks.append(PropositionCheck("necessary-energy", "not-applicable"))

    if variance_margin is None:
        checks.append(PropositionCheck("variance-lower-bound", "not-applicable"))
    else:
        margin, at = variance_margin
        checks.append(PropositionCheck(
            "variance-lower-bound", "pass" if margin >= 0.0 else "fail",
            f"smallest margin={margin:.6g} at t={at:.6g}"))

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


def classify(run_data: ParsedRun, energy, momentum, total_mass):
    """Full decision cascade over a run's table.

    `run_data` is a `csvio.ParsedRun`; its optional columns
    (`energy_kinetic`, `energy_potential`, `dilation`, `conformal`) are
    None when a source does not emit them.  `momentum` is |Q|
    (identically zero for the reduced spherical representation, kept
    explicit for boosted bookkeeping).  A non-finite energy, a negative
    |Q|, a total mass outside (0, inf) or a non-finite Q^2/(2M) raises
    DomainError.

    The necessary condition E >= |Q|^2/(2M) gates the label: below it
    the strong and total branches are skipped, with a note when one of
    them would have fired.  A converged concentration plateau above
    MASS_TOL_FRAC * M (regime "partial" or "none") skips the strong
    branch too, with a note: by Hoelder's inequality on a ball B_R,
    ||rho||_q >= Q(R) / |B_R|^(1 - 1/q), so a decaying density norm
    there is an artefact of the binning, not strong dispersion.  The
    paper's sufficient condition E > |Q|^2/(2M) sets the statistical flag,
    with a note.
    """
    momentum = float(momentum)
    if not (math.isfinite(energy) and momentum >= 0.0 and 0.0 < total_mass < math.inf):
        raise DomainError("energy must be finite, momentum |Q| >= 0, mass in (0, inf)")
    momentum_term = momentum * momentum / (2.0 * total_mass)
    if not math.isfinite(momentum_term):
        raise DomainError(f"Q^2/(2M) is not finite for |Q| = {momentum!r}")
    ekin = run_data.energy_kinetic
    threshold = _threshold(energy, momentum_term, 0.0 if ekin is None else abs(ekin[0]))
    notes = []
    times = np.asarray(run_data.times, dtype=np.float64)

    if times.size < 10:
        return ClassificationReport(
            label="undetermined", threshold=threshold, notes=("fewer than 10 samples",)
        )

    var_series = TimeSeries(times, run_data.variance)
    growth = growth_exponent(var_series)

    tail = var_series.trailing()
    stat_raw = bool(
        np.max(run_data.variance) >= STAT_GROWTH_FACTOR * run_data.variance[0]
        and _linear_slope(tail.times, tail.values)[0] > 0.0
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
    below = threshold.relation == "less"
    if below and (strong or conc["regime"] == "total"):
        notes.append("E < Q^2/2M: strong and total dispersion ruled out")
    # Hoelder on B_R: ||rho||_q >= Q(R) / |B_R|^(1 - 1/q), so a mass that
    # stays in a ball keeps every density norm away from 0
    held = conc["regime"] in ("partial", "none")
    if strong and held:
        notes.append("concentration plateau above MASS_TOL_FRAC * M: strong dispersion ruled out")
    if strong and not below and not held:
        label = "strongly-dispersive"
    elif conc["regime"] == "total" and not below:
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

    epot = run_data.energy_potential
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

    # E > |Q|^2/(2M) sends the variance to infinity (the variance bound)
    sufficient = threshold.relation == "greater"
    if sufficient:
        notes.append("E > Q^2/2M: statistically dispersive by the sufficient condition")
    stat_flag = stat_raw or sufficient or label in (
        "strongly-dispersive",
        "totally-dispersive",
        "partially-dispersive",
    )

    epot_vanishes = None if epot is None else _epot_vanishing(times, epot)
    propositions = check_propositions(threshold, label, epot_vanishes,
                                      _variance_margin(run_data))

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
        threshold=threshold,
        propositions=propositions,
        notes=tuple(notes),
    )


def _threshold(energy, momentum_term, ekin0):
    # |E_kin(0)| floors the scale: an E that is 0 in exact arithmetic
    # reads "equal" whatever the sign of its rounding
    scale = abs(energy) + abs(momentum_term) + ekin0 + 1.0e-300
    if energy > momentum_term + 1.0e-12 * scale:
        relation = "greater"
    elif energy < momentum_term - 1.0e-12 * scale:
        relation = "less"
    else:
        relation = "equal"
    return ThresholdCheck(float(energy), float(momentum_term), relation)
