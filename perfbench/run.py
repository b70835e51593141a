#!/usr/bin/env python3
"""vpshell benchmark: time from a built input to a labelled answer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shell-escape --seed 1 --seconds 30 --trace 0

Each invocation is one closed-loop, single-process run of one workload.
The harness makes the workload's configs from `--seed`, builds the
inputs, then repeats the solve (simulate, write the diagnostics table,
read it back, classify) until `--seconds` have been spent, checking
every answer.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics with tracing off.
`--trace 1` wraps module attributes that vpshell looks up at call time
(for example `vpshell.dynamics._raw_acceleration`), records one span
per call in memory, and reports per-layer busy time, self time and call
counts, plus the tracing overhead.  No file under `src/` is modified;
the wrappers live only in this process.

The program under test is imported from `src/` next to this directory;
without it the harness exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

Q_LIST = "1.6666666666666667"
MAX_DRIFT = 1.0e-3  # README guarantee for the simulator's relative energy drift
MASS_RTOL = 1.0e-12  # a reordering of the mass sum may change the last bits
SETUP_TRACED_REPS = 9
# The workloads are single-threaded closed loops; a BLAS worker thread
# only spins on the second core and adds scheduler noise.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_MIN_BATCH_S = 0.02  # batch short set-ups so timer resolution does not dominate

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Simulation:
    """One simulator scenario; `body` is a config template without seed.

    A run builds `inputs` ensembles from seeds derived from the workload
    seed and cycles through them, so one unlucky sample cannot move a
    run's medians far.
    """

    name: str
    body: str
    expected_labels: tuple
    inputs: int = 3
    calibration: str = "numpy"


# One static member, three breathing ones and four expanding ones,
# including the marginal k = 1.
KURTH_K = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


@dataclass(frozen=True)
class Sweep:
    """`vpshell sweep` over the Kurth family, called in-process.

    The members are fixed; the seed only permutes their order, so the
    work and every member's table are the same for every seed.
    """

    name: str
    t_end: float
    cadence: float
    r_grid: str = "1.0,2.0,4.0,8.0"
    q_list: str = "1.6666666666666667,3.0"
    inputs: int = 1
    calibration: str = "python"

    def k_values(self, seed):
        values = list(KURTH_K)
        random.Random(seed).shuffle(values)
        return values

    @staticmethod
    def expected_label(k):
        if k == 0.0:
            return "steady"
        return "periodic" if k < 1.0 else "strongly-dispersive"


T_DYN = math.sqrt(4.0 * math.pi)  # dynamical time of the unit ball, 4 pi G = 1

# Sizes are the acceptance runs with shorter horizons or coarser output
# cadence, so that a solve takes a few seconds and a run of the default
# length holds several solves; each keeps the label of its acceptance run.
WORKLOADS = {
    # Acceptance run 3 at cadence 5: concentration dominates run().
    "shell-escape": Simulation(
        "shell-escape",
        "scenario = shell\nt_end = 100.0\noutput_cadence = 5.0\ndt_safety = 0.05\n"
        f"r_grid = 1.0,2.0,4.0\nq_list = {Q_LIST}\n"
        "shell.mass = 1.0\nshell.r_inner = 1.0\nshell.r_outer = 1.25\n"
        "shell.w_min = 0.5\nshell.w_max = 0.6\nshell.n = 10000\n",
        ("totally-dispersive", "strongly-dispersive"),
    ),
    # Acceptance run 5 to t = 100 at cadence 4: force and concentration
    # take about equal shares of run().
    "core-shell": Simulation(
        "core-shell",
        "scenario = shell_plus_core\nt_end = 100.0\noutput_cadence = 4.0\n"
        f"dt_safety = 0.05\nr_grid = 1.0,4.0,8.0\nq_list = {Q_LIST}\n"
        "core.mass = 1.0\ncore.radius = 1.0\ncore.n = 20000\n"
        "shell.mass = 0.2\nshell.r_inner = 2.0\nshell.r_outer = 2.5\n"
        "shell.w_min = 0.42\nshell.w_max = 0.48\nshell.n = 5000\n",
        ("partially-dispersive",),
        inputs=5,
    ),
    # Acceptance run 4 to 20 dynamical times with no concentration radii:
    # the force kernel dominates and concentration is bypassed.
    "core-dynamics": Simulation(
        "core-dynamics",
        f"scenario = core\nt_end = {20.0 * T_DYN!r}\noutput_cadence = 2.0\n"
        f"q_list = {Q_LIST}\ncore.mass = 1.0\ncore.radius = 1.0\ncore.n = 100000\n",
        ("steady",),
        inputs=5,
    ),
    # No simulator: kurth closed forms, csvio, classify, config and cli.
    "kurth-sweep": Sweep("kurth-sweep", t_end=400.0, cadence=0.5),
}

# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "energy_drift": "1",
}

PER_LAYER = {
    "dynamics.force_s": "s",
    "dynamics.force_calls": "count",
    "dynamics.force_ms_per_call": "ms",
    "dynamics.steps": "count",
    "dynamics.rejections": "count",
    "dynamics.step_ctl_s": "s",
    "dynamics.group_stats_s": "s",
    "dynamics.self_s": "s",
    "diagnostics.record_s": "s",
    "diagnostics.record_calls": "count",
    "diagnostics.record_self_s": "s",
    "diagnostics.concentration_s": "s",
    "diagnostics.concentration_calls": "count",
    "diagnostics.concentration_ms_per_call": "ms",
    "diagnostics.potential_s": "s",
    "diagnostics.histogram_s": "s",
    "ensemble.construct_s": "s",
    "ensemble.construct_calls": "count",
    "csvio.write_s": "s",
    "csvio.read_s": "s",
    "csvio.read_calls": "count",
    "csvio.bytes_written": "bytes",
    "kurth.closed_form_s": "s",
    "kurth.diagnostics_s": "s",
    "kurth.records": "count",
    "classify.s": "s",
    "classify.calls": "count",
    "cli.self_s": "s",
    "config.parse_s": "s",
    "scenarios.build_s": "s",
    "trace.overhead_s": "s",
}

# Counts repeat exactly for a given seed; they are averaged over the
# run's distinct inputs instead of taking a median over solves.
COUNT_METRICS = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")}
SETUP_METRICS = ("config.parse_s", "scenarios.build_s")

# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

# A shared host runs the same code at speeds that differ by up to a
# factor 1.8, for stretches of seconds to tens of minutes.  Before every
# solve, and once after the last, the harness times a fixed kernel that
# calls nothing in vpshell and has the character of the workload's
# dominant layers.  Each solve and set-up time is divided by the mean of
# the two kernel times around it and multiplied by the nominal kernel
# time, so `solve_s` and `setup_s` are seconds at the nominal speed.
# The nominal time only fixes the scale: both kernels take 0.10 to
# 0.14 s on the baseline machine (perfbench/README.md).
CALIBRATION_NOMINAL_S = 0.1


class Calibration:
    """A fixed kernel timed next to the solves to track the host's speed.

    "numpy" repeats the force kernel's operations (stable argsort, a
    gathered prefix sum, searchsorted) on 1e5 radii; "python" formats,
    joins, splits and parses floats as the table writer and reader do.
    """

    NUMPY_REPS = 3
    PYTHON_ROWS = 20000

    def __init__(self, kind):
        self.kind = kind
        if kind == "numpy":
            import numpy

            rng = numpy.random.default_rng(0)
            self.np = numpy
            self.r = rng.random(100_000) + 0.5
            self.m = rng.random(100_000)

    def __call__(self):
        start = time.perf_counter()
        if self.kind == "numpy":
            np, r, m = self.np, self.r, self.m
            for _ in range(self.NUMPY_REPS):
                order = np.argsort(r, kind="stable")
                prefix = np.concatenate(([0.0], np.cumsum(m[order])))
                prefix[np.searchsorted(r[order], r)] / (r * r)
        else:
            for i in range(self.PYTHON_ROWS):
                x = i * 0.37 + 0.1
                line = ",".join((repr(x), f"{x * x:.17g}", repr(1.0 / x)))
                sum(float(cell) for cell in line.split(","))
        return time.perf_counter() - start


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans around module attributes looked up at call time.

    A span is a list [name, start, end, parent index]; spans stay in
    `spans` until the run ends.  `counts` tallies calls of attributes
    wrapped without a span.  An attribute the program no longer has is
    listed in `missing` and its metrics read 0, so a renamed internal
    leaves the traced run working.
    """

    def __init__(self, vp):
        self.vp = vp
        self.spans = []
        self.counts = Counter()
        self.missing = set()
        self._open = []
        self._patches = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def measure(self, root, fn, *args):
        """Run fn(*args) wrapped; returns (seconds, result, layer summary)."""
        first = len(self.spans)
        counts_before = Counter(self.counts)
        install_wrappers(self, self.vp)
        try:
            with self.span(root):
                result = fn(*args)
        finally:
            self.unwrap()
        _, start, end, _ = self.spans[first]
        counts = self.counts - counts_before
        return end - start, result, layer_summary(self.spans, first, counts)

    def wrap(self, module, attr, name=None, counter=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            if name is None:
                return original(*args, **kwargs)
            self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end()

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def span(tracer, name):
    """A span of the benchmark's own around a call into a layer."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def layer_summary(spans, first, counts):
    """Busy time, self time and call count per span name in spans[first:]."""
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = Counter(counts)
    child = defaultdict(float)
    for i in range(len(spans) - 1, first - 1, -1):
        name, start, end, parent = spans[i]
        duration = end - start
        busy[name] += duration
        own[name] += duration - child[i]
        calls[name] += 1
        if parent >= first:
            child[parent] += duration
    return {"busy": busy, "self": own, "calls": calls}


def install_wrappers(tracer, vp):
    """Wrap every layer boundary the solve paths cross.

    Attributes are wrapped in the namespace the caller resolves them
    in: `run()` finds the kernel in `vpshell.dynamics`, `sweep` finds
    csvio and classify through the names `vpshell.cli` imported.
    """
    dyn, diag, csvio, cli = vp["dynamics"], vp["diagnostics"], vp["csvio"], vp["cli"]
    tracer.wrap(dyn, "run", "dynamics.run")
    tracer.wrap(dyn, "_raw_acceleration", "dynamics.force")
    tracer.wrap(dyn, "_raw_adaptive_dt", "dynamics.step_ctl")
    tracer.wrap(dyn, "_attempt_step", counter="dynamics.attempts")
    tracer.wrap(dyn, "_group_stats", "dynamics.group_stats")
    tracer.wrap(dyn, "diagnostics_record", "diagnostics.record")
    tracer.wrap(dyn, "Ensemble", "ensemble.construct")
    tracer.wrap(diag, "concentration_function", "diagnostics.concentration")
    tracer.wrap(diag, "potential_energy", "diagnostics.potential")
    tracer.wrap(diag, "build_radial_profile", "diagnostics.histogram")
    tracer.wrap(diag, "lq_norm", "diagnostics.histogram")
    for module in (csvio, cli):
        tracer.wrap(module, "write_diagnostics", "csvio.write")
        tracer.wrap(module, "read_diagnostics", "csvio.read")
    tracer.wrap(vp["kurth"], "phi_closed_form", "kurth.closed_form")
    tracer.wrap(vp["kurth"], "kurth_diagnostics", "kurth.diagnostics")
    tracer.wrap(vp["classify"], "classify", "classify")
    tracer.wrap(cli, "_classify", "classify")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(vp["config"], "parse_config", "config.parse")


def solve_layers(summary, bytes_written):
    """Per-layer metrics of one traced solve."""
    busy, own, calls = summary["busy"], summary["self"], summary["calls"]

    def per_call_ms(name):
        return 1000.0 * busy[name] / calls[name] if calls[name] else 0.0

    return {
        "dynamics.force_s": busy["dynamics.force"],
        "dynamics.force_calls": calls["dynamics.force"],
        "dynamics.force_ms_per_call": per_call_ms("dynamics.force"),
        "dynamics.steps": calls["dynamics.step_ctl"],
        "dynamics.rejections": calls["dynamics.attempts"] - calls["dynamics.step_ctl"],
        "dynamics.step_ctl_s": busy["dynamics.step_ctl"],
        "dynamics.group_stats_s": busy["dynamics.group_stats"],
        "dynamics.self_s": own["dynamics.run"],
        "diagnostics.record_s": busy["diagnostics.record"],
        "diagnostics.record_calls": calls["diagnostics.record"],
        "diagnostics.record_self_s": own["diagnostics.record"],
        "diagnostics.concentration_s": busy["diagnostics.concentration"],
        "diagnostics.concentration_calls": calls["diagnostics.concentration"],
        "diagnostics.concentration_ms_per_call": per_call_ms("diagnostics.concentration"),
        "diagnostics.potential_s": busy["diagnostics.potential"],
        "diagnostics.histogram_s": busy["diagnostics.histogram"],
        "ensemble.construct_s": busy["ensemble.construct"],
        "ensemble.construct_calls": calls["ensemble.construct"],
        "csvio.write_s": busy["csvio.write"],
        "csvio.read_s": busy["csvio.read"],
        "csvio.read_calls": calls["csvio.read"],
        "csvio.bytes_written": bytes_written,
        "kurth.closed_form_s": busy["kurth.closed_form"],
        "kurth.diagnostics_s": busy["kurth.diagnostics"],
        "kurth.records": calls["kurth.diagnostics"],
        "classify.s": busy["classify"],
        "classify.calls": calls["classify"],
        "cli.self_s": own["cli.main"],
    }


# ----------------------------------------------------------------------
# program under test
# ----------------------------------------------------------------------


def import_program():
    """Import vpshell from this checkout's src/, never from elsewhere."""
    if not (SRC / "vpshell" / "__init__.py").is_file():
        raise FileNotFoundError(f"no vpshell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"vpshell.{name}")
        for name in ("cli", "classify", "config", "csvio", "diagnostics",
                     "dynamics", "kurth", "scenarios")
    }
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"vpshell imported from {origin}, not from {SRC}")
    return modules


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def relative_drift(energy, scale=None):
    """max |E - E(0)| / scale, with scale |E(0)| unless given."""
    e0 = float(energy[0])
    scale = abs(e0) if scale is None else scale
    return max(abs(float(e) - e0) for e in energy) / max(scale, 1.0e-300)


def expected_rows(t_end, cadence):
    n = int(math.floor(t_end / cadence + 1.0e-9)) + 1
    return n + (1 if (n - 1) * cadence < t_end - 1.0e-9 * cadence else 0)


class SimulationRunner:
    """Set-up and solve of one simulator workload."""

    def __init__(self, workload, vp, seed, workdir):
        self.workload = workload
        self.vp = vp
        self.workdir = workdir
        self.config_paths = []
        for j in range(workload.inputs):
            path = workdir / f"input_{j}.cfg"
            # Even seeds: shell_plus_core draws its shell from seed + 1.
            path.write_text(f"seed = {2 * (seed * workload.inputs + j)}\n" + workload.body)
            self.config_paths.append(path)

    def setup(self, j, tracer=None):
        config = self.vp["config"].load_config(self.config_paths[j])
        with span(tracer, "scenarios.build"):
            ensemble = self._build(config)
        return config, ensemble

    def _build(self, config):
        sc = self.vp["scenarios"]
        v = config.values
        shell = lambda seed: sc.ShellSpec(
            mass=v["shell.mass"], r_inner=v["shell.r_inner"], r_outer=v["shell.r_outer"],
            w_min=v["shell.w_min"], w_max=v["shell.w_max"], ell_min=v["shell.ell_min"],
            ell_max=v["shell.ell_max"], n=v["shell.n"], seed=seed,
        )
        core = lambda seed: sc.CoreSpec(
            mass=v["core.mass"], radius=v["core.radius"], n=v["core.n"], seed=seed,
        )
        seed = v["seed"]
        if config.scenario == "shell":
            return sc.build_shell(shell(seed))[0]
        if config.scenario == "core":
            return sc.build_circular_core(core(seed))
        return sc.build_shell_plus_core(core(seed), shell(seed + 1))[0]

    def solve(self, prepared):
        config, ensemble = prepared
        dyn, csvio = self.vp["dynamics"], self.vp["csvio"]
        v = config.values
        integrator = dyn.IntegratorConfig(
            t_end=v["t_end"], output_cadence=v["output_cadence"],
            dt_initial=v["dt_initial"], dt_safety=v["dt_safety"],
            reflection_enabled=v["reflection"],
        )
        sink = dyn.run(ensemble, integrator, r_grid=v["r_grid"], q_list=v["q_list"],
                       n_bins=v["n_bins"] or None)
        path = self.workdir / "diagnostics.csv"
        csvio.write_diagnostics(path, sink.records, v["r_grid"], v["q_list"])
        parsed = csvio.read_diagnostics(path)
        report = self.vp["classify"].classify(
            parsed, float(parsed.energy[0]), 0.0, float(parsed.mass[0])
        )
        return parsed, report.label

    def check(self, prepared, answer):
        config, ensemble = prepared
        parsed, label = answer
        v = config.values
        path = self.workdir / "diagnostics.csv"
        drift = relative_drift(parsed.energy)
        total = ensemble.total_mass
        failures = []
        if label not in self.workload.expected_labels:
            failures.append(f"label {label}")
        if not drift <= MAX_DRIFT:
            failures.append(f"energy drift {drift:.3e}")
        rows = expected_rows(v["t_end"], v["output_cadence"])
        if len(parsed.times) != rows:
            failures.append(f"{len(parsed.times)} records, expected {rows}")
        if not all(abs(m - total) <= MASS_RTOL * total for m in parsed.mass):
            failures.append("mass not conserved")
        return Outcome(1, int(bool(failures)), failures, drift, file_digest(path),
                       path.stat().st_size)


class SweepRunner:
    """Set-up and solve of the Kurth sweep through `cli.main`."""

    def __init__(self, workload, vp, seed, workdir):
        self.workload = workload
        self.vp = vp
        self.workdir = workdir
        self.values = workload.k_values(seed)
        self.config_path = workdir / "sweep.cfg"
        self.config_path.write_text(
            f"scenario = kurth\nkurth.k = 0.0\nseed = {seed}\n"
            f"t_end = {workload.t_end!r}\noutput_cadence = {workload.cadence!r}\n"
            f"r_grid = {workload.r_grid}\nq_list = {workload.q_list}\n"
        )
        self.out = workdir / "sweep"

    def setup(self, j, tracer=None):
        return self.vp["config"].load_config(self.config_path)

    def solve(self, prepared):
        shutil.rmtree(self.out, ignore_errors=True)
        return self.vp["cli"].main([
            "sweep", "--config", str(self.config_path), "--param", "kurth.k",
            "--values", ",".join(repr(k) for k in self.values),
            "--out", str(self.out), "--threads", "1",
        ])

    def check(self, prepared, answer):
        n = len(self.values)
        if answer != 0:
            return Outcome(n, n, [f"sweep exit code {answer}"], math.inf, "", 0)
        lines = (self.out / "summary.csv").read_text().splitlines()[1:]
        labels = [line.split(",")[3] for line in lines]
        rows = expected_rows(self.workload.t_end, self.workload.cadence)
        failures = []
        drift = 0.0
        digest = hashlib.sha256()
        size = 0
        for i, k in enumerate(self.values):
            want = Sweep.expected_label(k)
            got = labels[i] if i < len(labels) else "missing"
            path = self.out / f"run_{i:03d}" / "diagnostics.csv"
            parsed = self.vp["csvio"].read_diagnostics(path)
            # E(0) vanishes at k = 1; scale by the family's energy scale.
            drift = max(drift, relative_drift(parsed.energy, 0.6 * (k * k + 3.0)))
            digest.update(bytes.fromhex(file_digest(path)))
            size += path.stat().st_size
            if got != want:
                failures.append(f"k={k}: label {got}, expected {want}")
            elif len(parsed.times) != rows:
                failures.append(f"k={k}: {len(parsed.times)} rows, expected {rows}")
        return Outcome(n, len(failures), failures, drift, digest.hexdigest(), size)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """Checked answer of one solve; a sweep attempts one answer per member."""

    attempted: int
    failed: int
    failures: list
    drift: float
    digest: str
    bytes_written: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    drift: dict = field(default_factory=dict)  # input index -> drift
    digests: dict = field(default_factory=dict)  # input index -> sha256
    failures: list = field(default_factory=list)

    def add(self, j, outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.drift.setdefault(j, outcome.drift)
        self.digests.setdefault(j, outcome.digest)
        self.failures += outcome.failures


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result, None


def setup_batch(runner, j):
    """First set-up of input j, and how many set-ups fill one timed batch."""
    elapsed, prepared, _ = timed(runner.setup, j)
    return prepared, max(1, int(SETUP_MIN_BATCH_S / max(elapsed, 1.0e-9)))


def setup_sample(runner, j, batch):
    """Seconds of one set-up of input j, averaged over a batch."""
    start = time.perf_counter()
    for _ in range(batch):
        runner.setup(j)
    return (time.perf_counter() - start) / batch


def attempt(runner, prepared, tally, j, tracer=None):
    """One timed solve plus its output check; a crash counts as failed.

    Returns (seconds, layer summary, outcome), or None after a crash.
    """
    try:
        if tracer is None:
            elapsed, answer, summary = timed(runner.solve, prepared)
        else:
            elapsed, answer, summary = tracer.measure("solve", runner.solve, prepared)
        outcome = runner.check(prepared, answer)
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        tally.failures.append(f"input {j}: exception")
        return None
    tally.add(j, outcome)
    return elapsed, summary, outcome


def measure(workload, seed, seconds, trace, vp, workdir):
    """One run: set-up, repeated solves for `seconds`, checks, metrics.

    One checked warm-up solve comes first and is not timed.  Each round
    then solves the next input once untraced and, with `trace`, once
    more traced, so the overhead compares like with like; without
    `trace` it also times the calibration kernel before the solve and
    one batch of set-ups after it, so set-up and solve are sampled
    across the same stretch of time.  Rounds continue while the median
    round still fits in `seconds`, which include the warm-up.
    """
    runner_cls = SweepRunner if isinstance(workload, Sweep) else SimulationRunner
    runner = runner_cls(workload, vp, seed, workdir)
    tracer = Tracer(vp) if trace else None
    calibrate = None if trace else Calibration(workload.calibration)
    tally = Tally()
    started = time.perf_counter()
    prepared, batches = zip(*(setup_batch(runner, j) for j in range(workload.inputs)))
    setup_rows = []
    if trace:
        for j in range(workload.inputs):
            for _ in range(SETUP_TRACED_REPS):
                setup_rows.append(tracer.measure("setup", runner.setup, j, tracer)[2])
    else:
        calibrate()
    attempt(runner, prepared[0], tally, 0)

    solve_times, traced_times, layer_rows, round_times = [], [], [], []
    solved = []  # (round, input) of each untraced solve that completed
    setup_times = []  # one per round, untraced only
    calibration_times = []  # before each round, and once after the last
    minimum = max(workload.inputs, 2 if trace else 3)
    i = 0
    while i < minimum or (
        time.perf_counter() - started + statistics.median(round_times) <= seconds
    ):
        round_start = time.perf_counter()
        j = i % workload.inputs
        if calibrate is not None:
            calibration_times.append(calibrate())
        done = attempt(runner, prepared[j], tally, j)
        if done is not None:
            solve_times.append(done[0])
            solved.append((i, j))
        if trace:
            done = attempt(runner, prepared[j], tally, j, tracer)
            if done is not None:
                elapsed, summary, outcome = done
                traced_times.append(elapsed)
                layer_rows.append((j, solve_layers(summary, outcome.bytes_written)))
        else:
            setup_times.append(setup_sample(runner, j, batches[j]))
        round_times.append(time.perf_counter() - round_start)
        i += 1
    if calibrate is not None:
        calibration_times.append(calibrate())

    if not solve_times or (trace and not traced_times):
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(layer_rows, setup_rows, solve_times, traced_times)
    else:
        metrics = end_to_end_metrics(calibration_times, solved, solve_times, setup_times,
                                     tally)
    extra = {
        "solves": len(solve_times),
        "traced_solves": len(traced_times),
        "solve_s_all": solve_times,
        "calibration": workload.calibration,
        "calibration_s_all": calibration_times,
        "energy_drift_by_input": [drift for _, drift in sorted(tally.drift.items())],
        "diagnostics_sha256": {
            f"seed {seed} input {j}": digest for j, digest in sorted(tally.digests.items())
        },
        "failures": tally.failures,
        "hooks_missing": sorted(tracer.missing) if trace else [],
    }
    return tally, metrics, extra


def end_to_end_metrics(calibration_times, solved, solve_times, setup_times, tally):
    """End-to-end metrics of an untraced run, in seconds at nominal speed.

    Round i is scaled by the mean of the calibration times before and
    after it.  `solve_s` is the mean over inputs of each input's mean
    scaled solve time, so a run that ends part way through a cycle of
    inputs does not weight one input more.  It is a mean, not a median:
    the mean of times drawn from two host speeds moves with the mix,
    while the median jumps from one speed to the other.
    """
    scale = [
        2.0 * CALIBRATION_NOMINAL_S / (calibration_times[i] + calibration_times[i + 1])
        for i in range(len(setup_times))
    ]
    per_input = defaultdict(list)
    for (i, j), elapsed in zip(solved, solve_times):
        per_input[j].append(elapsed * scale[i])
    return {
        "solve_s": statistics.fmean(statistics.fmean(v) for v in per_input.values()),
        "setup_s": statistics.median(t * scale[i] for i, t in enumerate(setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # A median: an input now and then drifts half as much again as the rest.
        "energy_drift": statistics.median(tally.drift.values()),
    }


def per_layer_metrics(layer_rows, setup_rows, solve_times, traced_times):
    metrics = {}
    first_of_input = {}
    for j, row in layer_rows:
        first_of_input.setdefault(j, row)
    for name in PER_LAYER:
        if name in SETUP_METRICS:
            layer = name.rsplit("_s", 1)[0]
            metrics[name] = statistics.median(r["busy"][layer] for r in setup_rows)
        elif name in COUNT_METRICS:
            mean = statistics.fmean(r[name] for r in first_of_input.values())
            metrics[name] = int(mean) if mean.is_integer() else mean
        elif name != "trace.overhead_s":
            metrics[name] = statistics.median(r[name] for _, r in layer_rows)
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(
        solve_times
    )
    return metrics


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "timing": "perf_counter around this process's own calls only; no cache "
                  "drops, CPU pinning or frequency changes",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(tally, metrics, trace):
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }


def run_workload(workload, seed, seconds, trace):
    """Measure one workload in this process; returns (result, extra)."""
    vp = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        tally, metrics, extra = measure(workload, seed, seconds, trace, vp, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()
    return result_line(tally, metrics, trace), extra


def main(argv=None):
    args = parse_args(argv)
    for name in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[name] = "1"
    try:
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, extra = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    extra["provenance"] = provenance()
    for failure in extra["failures"]:
        print(f"check failed: {failure}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{extra['solves']} solves, {extra['traced_solves']} traced, "
          f"error_rate {result['failed'] / max(result['attempted'], 1):.4g} "
          f"({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": extra}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
