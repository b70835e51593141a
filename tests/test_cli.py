import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from vpshell.cli import _build_scenario, cmd_classify, cmd_kurth, cmd_run, cmd_sweep, main
from vpshell.config import load_config, parse_config
from vpshell.csvio import (
    diagnostics_header,
    read_diagnostics,
    write_diagnostics,
    write_manifest,
)
from vpshell.dynamics import IntegratorConfig, run
from vpshell.ensemble import Ensemble
from vpshell.errors import ClassifyInputError, ConfigError, DomainError
from vpshell.kurth import (
    first_integral,
    kurth_diagnostics,
    kurth_lq_norm,
    kurth_variance,
    phi_closed_form,
)
from vpshell.scenarios import CoreSpec, ShellSpec, build_shell, build_shell_plus_core

SHELL_CFG = """\
# escaping shell, desk scale
scenario = shell
seed = 42
t_end = {t_end}
output_cadence = 0.5
shell.mass = 1.0
shell.r_inner = 1.0
shell.r_outer = 1.25
shell.w_min = 0.5
shell.w_max = 0.6
shell.n = 400
r_grid = 1.0,2.0
q_list = 1.6666666666666667
"""

KURTH_CFG = """\
scenario = kurth
kurth.k = 0.5
t_end = 400.0
output_cadence = 0.2
r_grid = 1.0,4.0,8.0
q_list = 1.6666666666666667
"""

SHELL_PLUS_CORE_CFG = """\
scenario = shell_plus_core
seed = 3
t_end = 1.0
output_cadence = 0.5
r_grid = 1.0,2.0
core.mass = 1.0
core.radius = 1.0
core.n = 400
shell.mass = 0.2
shell.r_inner = 2.0
shell.r_outer = 2.5
shell.w_min = 0.42
shell.w_max = 0.48
shell.n = 100
"""


def oracle_build_scenario(config, seed):
    """The ensemble and scenario report of a simulator config, with every
    spec and report field written out: the hand-kept literals that the
    derived `cli._build_scenario` replaced."""
    def shell(seed):
        return ShellSpec(
            mass=config["shell.mass"], r_inner=config["shell.r_inner"],
            r_outer=config["shell.r_outer"], w_min=config["shell.w_min"],
            w_max=config["shell.w_max"], ell_min=config["shell.ell_min"],
            ell_max=config["shell.ell_max"], n=config["shell.n"], seed=seed,
        )

    def core(seed):
        return CoreSpec(mass=config["core.mass"], radius=config["core.radius"],
                        n=config["core.n"], seed=seed)

    if config.scenario == "shell":
        ensemble, report = build_shell(shell(seed))
        return ensemble, {
            "escape_threshold": report.escape_threshold,
            "escape_margin_sq": report.margin_sq,
            "escape_condition_satisfied": report.satisfied,
        }
    ensemble, report = build_shell_plus_core(core(seed), shell(seed + 1))
    return ensemble, {
        "escape_threshold": report.escape_threshold,
        "total_energy": report.total_energy,
        "core_energy": report.core_energy,
        "shell_mass_max": report.shell_mass_max,
        "momentum_window": list(report.momentum_window),
        "double_inequality_ok": report.double_inequality_ok,
        "escape_condition_satisfied": report.escape_satisfied,
    }


def _die(job):
    os._exit(1)


@pytest.fixture
def shell_cfg(tmp_path):
    path = tmp_path / "shell.cfg"
    path.write_text(SHELL_CFG.format(t_end=5.0))
    return str(path)


class TestConfigParsing:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = shell\nt_end = 1.0\nwibble = 3\n")
        assert err.value.line == 3

    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            parse_config("t_end = 1.0\n")

    def test_missing_scenario_keys(self):
        with pytest.raises(ConfigError):
            parse_config("scenario = shell\nt_end = 1.0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("scenario = kurth\nkurth.k = 1\nkurth.k = 2\nt_end = 1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = kurth\nkurth.k = fast\nt_end = 1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value", [
        ("t_end", "inf"),
        ("t_end", "nan"),
        ("kurth.k", "-inf"),
        ("r_grid", "1.0,nan"),
        ("q_list", "inf"),
        ("output_cadence", "NaN"),
    ])
    def test_non_finite_value_reports_line(self, key, value):
        # `t_end = inf` never finishes and NaN passes every `< 0` check
        required = {"kurth.k": "0.5", "t_end": "1"}
        required.pop(key, None)
        lines = ["scenario = kurth", "# comment", f"{key} = {value}"]
        lines += [f"{k} = {v}" for k, v in required.items()]
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config("\n".join(lines))
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["1e3", "100.0"])
    def test_integer_key_accepts_integral_number(self, value):
        text = SHELL_CFG.format(t_end=1.0).replace("shell.n = 400", f"shell.n = {value}")
        cfg = parse_config(text)
        assert cfg["shell.n"] == float(value)
        assert type(cfg["shell.n"]) is int

    def test_integer_key_refuses_fraction_with_line(self):
        text = SHELL_CFG.format(t_end=1.0).replace("shell.n = 400", "shell.n = 100.7")
        with pytest.raises(ConfigError, match="not an integer") as err:
            parse_config(text)
        assert err.value.line == text.splitlines().index("shell.n = 100.7") + 1

    def test_integer_literal_keeps_every_digit(self):
        cfg = parse_config(KURTH_CFG + "seed = 12345678901234567891\n")
        assert cfg["seed"] == 12345678901234567891

    def test_comments_and_defaults(self):
        cfg = parse_config(KURTH_CFG)
        assert cfg.scenario == "kurth"
        assert cfg["seed"] == 0
        assert cfg["dt_safety"] == 0.1
        assert cfg["r_grid"] == (1.0, 4.0, 8.0)


class TestRunCommand:
    def test_header_exact(self, shell_cfg, tmp_path):
        out = cmd_run(load_config(shell_cfg), str(tmp_path / "out"))
        with open(out) as handle:
            header = handle.readline().rstrip("\n")
        assert header == (
            "t,E,E_kin,E_pot,M,var_x,dilation,conformal,R1,R2,R1_shell,"
            "conc_R1.0,conc_R2.0,lq_1.6666666666666667"
        )
        assert header == diagnostics_header((1.0, 2.0), (5.0 / 3.0,))

    def test_rerun_is_byte_identical(self, shell_cfg, tmp_path):
        a = cmd_run(load_config(shell_cfg), str(tmp_path / "a"))
        b = cmd_run(load_config(shell_cfg), str(tmp_path / "b"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_zero_horizon_single_row(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(SHELL_CFG.format(t_end=0.0))
        out = cmd_run(load_config(str(path)), str(tmp_path / "out"))
        rows = open(out).read().splitlines()
        assert len(rows) == 2  # header + one record

    def test_manifest_written(self, shell_cfg, tmp_path):
        out_dir = tmp_path / "out"
        cmd_run(load_config(shell_cfg), str(out_dir))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["config"]["scenario"] == "shell"
        assert manifest["scenario_report"]["escape_condition_satisfied"] is True
        assert "vpshell" in manifest["versions"]

    @pytest.mark.parametrize("text", [
        SHELL_CFG.format(t_end=1.0) + "shell.ell_max = 0.1\n", SHELL_PLUS_CORE_CFG,
    ], ids=["shell", "shell_plus_core"])
    def test_scenario_matches_field_by_field_oracle(self, text, tmp_path):
        # the specs come from the config keys under each prefix and the
        # report from its dataclass; both must equal the written-out forms
        config = parse_config(text)
        out_dir = tmp_path / "out"
        cmd_run(config, str(out_dir))
        ensemble, report = oracle_build_scenario(config, config["seed"])
        write_manifest(str(tmp_path / "oracle.json"), "run", config.values, config["seed"],
                       extra={"scenario_report": report})
        assert (out_dir / "manifest.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()
        built, _ = _build_scenario(config, config["seed"])
        for name in ("r", "w", "ell", "mass", "group"):
            assert np.array_equal(getattr(built, name), getattr(ensemble, name)), name

    def test_snapshots(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(SHELL_CFG.format(t_end=2.0) + "snapshot_times = 1.0\n")
        out_dir = tmp_path / "out"
        cmd_run(load_config(str(path)), str(out_dir))
        snap = out_dir / "snapshot_t1.0.csv"
        assert snap.exists()
        lines = snap.read_text().splitlines()
        assert lines[1] == "r,w,ell,mass,group"
        assert len(lines) == 2 + 400

    def test_csv_round_trip_is_exact(self, shell_cfg, tmp_path):
        # shortest round-trip decimals: parsing back recovers the floats
        csv_path = cmd_run(load_config(shell_cfg), str(tmp_path / "out"))
        parsed = read_diagnostics(csv_path)
        again = tmp_path / "again.csv"
        write_diagnostics(str(again), parsed, sorted(parsed.conc), sorted(parsed.lq))
        assert again.read_bytes() == open(csv_path, "rb").read()


class TestKurthCommand:
    def test_static_rows_identical(self, tmp_path):
        csv = cmd_kurth(0.0, 10.0, 1.0, (5.0 / 3.0,), str(tmp_path))
        rows = open(csv).read().splitlines()[1:]
        tails = {row.split(",", 1)[1] for row in rows}
        assert len(tails) == 1

    def test_periodic_variance_column(self, tmp_path):
        csv = cmd_kurth(0.5, 60.0, 0.1, (5.0 / 3.0,), str(tmp_path))
        parsed = read_diagnostics(csv)
        from vpshell.classify import TimeSeries, _detect_period

        period = _detect_period(TimeSeries(parsed.times, parsed.variance))
        assert period == pytest.approx(9.6736, rel=0.01)

    def test_dispersive_variance_growth(self, tmp_path):
        csv = cmd_kurth(1.5, 1000.0, 1.0, (5.0 / 3.0,), str(tmp_path))
        parsed = read_diagnostics(csv)
        from vpshell.classify import TimeSeries, growth_exponent

        fit = growth_exponent(TimeSeries(parsed.times, parsed.variance))
        assert fit.exponent == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("flag, value", [
        ("--k", "inf"),
        ("--t-end", "nan"),
        ("--t-end", "inf"),
        ("--t-end", "-1"),
        ("--cadence", "nan"),
        ("--cadence", "0"),
        ("--q-list", "1.5,nan"),
        ("--q-list", "0.5"),
        ("--r-grid", "1.0,inf"),
        ("--r-grid", "abc"),
        ("--r-grid", "1,1"),
        ("--q-list", "2,2.0"),
    ])
    def test_bad_flag_exits_2(self, flag, value, tmp_path, capsys):
        args = {"--k": "0.5", "--t-end": "2", "--cadence": "1"}
        args[flag] = value
        argv = ["kurth", "--out", str(tmp_path / "o")]
        for key, text in args.items():
            argv += [key, text]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    def test_flag_strings_match_floats(self, tmp_path):
        main(["kurth", "--k", "0.5", "--t-end", "2", "--cadence", "0.5",
              "--q-list", "1.5,2", "--r-grid", "1,4", "--out", str(tmp_path / "a")])
        b = cmd_kurth(0.5, 2.0, 0.5, (1.5, 2.0), str(tmp_path / "b"), (1.0, 4.0))
        assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == open(b, "rb").read()

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 1.5, -2.5])
    def test_rows_equal_single_state_records(self, k, tmp_path):
        # the table is built over arrays; each row must be the table of
        # its own single time, and E, var_x, R2 and lq_ the scalar formulas
        q_list, r_grid = (5.0 / 3.0, 3.0), (1.0, 2.0, 4.0, 8.0)
        csv = cmd_kurth(k, 60.0, 0.1, q_list, str(tmp_path), r_grid)
        times = read_diagnostics(csv).times
        phi, phi_dot = phi_closed_form(times, k)
        again = tmp_path / "again.csv"
        lines = [diagnostics_header(r_grid, q_list)]
        for i in range(times.size):
            single = kurth_diagnostics(times[i : i + 1], phi[i : i + 1], phi_dot[i : i + 1],
                                       q_list=q_list, r_grid=r_grid)
            write_diagnostics(str(again), single, r_grid, q_list)
            lines.append(again.read_text().splitlines()[1])
        assert "\n".join(lines).encode() + b"\n" == open(csv, "rb").read()

        rows = [line.split(",") for line in open(csv).read().splitlines()[1:]]
        for row, p, pd in zip(rows, phi.tolist(), phi_dot.tolist()):
            assert row[1] == repr(float(first_integral(p, pd)))
            assert row[5] == repr(float(kurth_variance(p)))
            assert row[9] == repr(p)
            assert row[15:] == [repr(float(kurth_lq_norm(p, q))) for q in q_list]

    @pytest.mark.parametrize("t_end, cadence", [
        (0.3, 0.1), (0.7, 0.1), (1.2, 0.1), (60.0, 0.1), (400.0, 0.5), (0.0, 0.1),
    ])
    def test_times_equal_simulator_record_times(self, t_end, cadence, tmp_path):
        csv = cmd_kurth(0.5, t_end, cadence, (5.0 / 3.0,), str(tmp_path))
        ensemble = Ensemble(0.0, [1.0], [0.1], [0.0], [1.0])
        sink = run(ensemble, IntegratorConfig(t_end=t_end, output_cadence=cadence))
        assert read_diagnostics(csv).times.tolist() == sink.records.times.tolist()
        # 3 * 0.1 rounds to 0.30000000000000004: the table stops at 0.3
        assert open(csv).read().splitlines()[-1].split(",")[0] == repr(t_end)

    @pytest.mark.parametrize("key, value", [
        ("output_cadence", 0.0),
        ("output_cadence", -0.5),
        ("output_cadence", math.inf),
        ("output_cadence", math.nan),
        ("t_end", -1.0),
        ("t_end", math.inf),
        ("t_end", math.nan),
    ])
    def test_bad_horizon_or_cadence_is_domain_error(self, key, value, tmp_path):
        config = parse_config(KURTH_CFG).replace(**{key: value})
        with pytest.raises(DomainError):
            cmd_run(config, str(tmp_path))
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_same_files_as_run_of_same_config(self, tmp_path):
        # `kurth` validates the defaults it fills in and writes them to
        # the manifest, as `run` does for a config file
        assert main(["kurth", "--k", "0.5", "--t-end", "10", "--cadence", "0.5",
                     "--out", str(tmp_path / "kurth")]) == 0
        cfg = tmp_path / "kurth.cfg"
        cfg.write_text("scenario = kurth\nkurth.k = 0.5\nt_end = 10\noutput_cadence = 0.5\n"
                       "r_grid = 1.0,2.0,4.0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        for name in ("manifest.json", "diagnostics.csv"):
            kurth, ran = (tmp_path / side / name for side in ("kurth", "run"))
            assert kurth.read_bytes() == ran.read_bytes(), name

    def test_simulator_columns_empty(self, tmp_path):
        csv = cmd_kurth(1.0, 5.0, 1.0, (5.0 / 3.0,), str(tmp_path))
        parsed = read_diagnostics(csv)
        assert parsed.energy_kinetic is None
        assert parsed.energy_potential is None
        assert parsed.dilation is None


class TestClassifyCommand:
    def test_kurth_static_is_steady(self, tmp_path):
        csv = cmd_kurth(0.0, 100.0, 0.5, (5.0 / 3.0,), str(tmp_path))
        report = cmd_classify(csv, out_path=str(tmp_path / "report.json"))
        assert report.label == "steady"
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["label"] == "steady"
        assert payload["threshold_check"]["E"] == pytest.approx(-0.6)

    def test_bound_member_beyond_horizon_not_strongly_dispersive(self, tmp_path):
        # k = 0.98 is periodic with E < 0, but its period (~797) outlasts
        # the horizon and the density norm decays during the expansion
        csv = cmd_kurth(0.98, 400.0, 0.5, (5.0 / 3.0, 3.0), str(tmp_path), (1, 2, 4, 8))
        report = cmd_classify(csv, out_path=str(tmp_path / "report.json"))
        assert report.label in ("periodic", "undetermined")
        assert report.threshold.relation == "less"
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload == json.loads(json.dumps(report.to_dict()))
        assert "E < Q^2/2M: strong and total dispersion ruled out" in payload["notes"]

    def test_truncated_series_undetermined(self, tmp_path):
        csv = cmd_kurth(1.0, 4.0, 1.0, (5.0 / 3.0,), str(tmp_path))
        report = cmd_classify(csv)
        assert report.label == "undetermined"

    def test_malformed_csv_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(diagnostics_header((), ()) + "\n0.0,1.0\n")
        with pytest.raises(ClassifyInputError) as err:
            cmd_classify(str(path))
        assert err.value.row == 2

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,energy\n0,1\n")
        with pytest.raises(ClassifyInputError):
            cmd_classify(str(path))


class TestSweepCommand:
    def test_empty_values_header_only(self, tmp_path):
        cfg = parse_config(KURTH_CFG)
        summary = cmd_sweep(cfg, "kurth.k", [], str(tmp_path / "sweep"))
        assert open(summary).read() == "value,E,Q2_over_2M,label,exponent,M_infinity\n"

    def test_kurth_regime_table(self, tmp_path):
        cfg = parse_config(KURTH_CFG)
        summary = cmd_sweep(cfg, "kurth.k", [0.0, 0.5, 1.0, 1.5], str(tmp_path / "sweep"))
        rows = [line.split(",") for line in open(summary).read().splitlines()[1:]]
        labels = [row[3] for row in rows]
        assert labels == ["steady", "periodic", "strongly-dispersive", "strongly-dispersive"]
        energies = [float(row[1]) for row in rows]
        assert energies == pytest.approx([-0.6, -0.45, 0.0, 0.75])

    def test_escape_flag_flips_at_threshold(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(SHELL_CFG.format(t_end=1.0))
        cfg = load_config(str(path))
        out = tmp_path / "sweep"
        cmd_sweep(cfg, "shell.w_min", [0.3, 0.35, 0.39, 0.41, 0.45], str(out))
        flags = []
        for i in range(5):
            manifest = json.loads((out / f"run_{i:03d}" / "manifest.json").read_text())
            flags.append(manifest["scenario_report"]["escape_condition_satisfied"])
        # threshold sqrt(1/2pi) = 0.3989...
        assert flags == [False, False, False, True, True]

    def test_failed_run_recorded(self, tmp_path):
        bad = parse_config(KURTH_CFG).replace(**{"t_end": -1.0})
        summary = cmd_sweep(bad, "kurth.k", [0.5], str(tmp_path / "sweep"))
        rows = open(summary).read().splitlines()
        assert rows[1].split(",")[3] == "failed"

    def test_bad_cadence_member_fails_alone(self, tmp_path):
        cfg = parse_config(KURTH_CFG)
        for threads in (1, 2):
            out = tmp_path / f"sweep{threads}"
            summary = cmd_sweep(cfg, "output_cadence", ["0", "0.5"], str(out),
                                threads=threads)
            labels = [row.split(",")[3] for row in open(summary).read().splitlines()[1:]]
            assert labels == ["failed", "periodic"]
            error = json.loads((out / "run_000" / "error.json").read_text())
            assert error["type"] == "DomainError"
            assert "cadence" in error["message"]
            assert not (out / "run_001" / "error.json").exists()

    def test_integer_parameter_coerced(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(SHELL_CFG.format(t_end=1.0))
        summary = cmd_sweep(load_config(str(path)), "shell.n", [100.0, 200.0],
                            str(tmp_path / "sweep"))
        rows = open(summary).read().splitlines()
        assert len(rows) == 3
        assert all(row.split(",")[3] != "failed" for row in rows[1:])

    def test_integer_parameter_strings(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(SHELL_CFG.format(t_end=0.5))
        out = tmp_path / "sweep"
        summary = cmd_sweep(load_config(str(path)), "shell.n", ["100", "2e2", "100.0"],
                            str(out))
        rows = [row.split(",") for row in open(summary).read().splitlines()[1:]]
        assert [row[0] for row in rows] == ["100.0", "200.0", "100.0"]
        assert all(row[3] != "failed" for row in rows)
        manifest = json.loads((out / "run_001" / "manifest.json").read_text())
        assert manifest["config"]["shell.n"] == 200

    @pytest.mark.parametrize(("param", "values"), [
        pytest.param("kurth.k", "0.5,abc", id="0.5,abc"),
        pytest.param("kurth.k", "0.5,inf", id="0.5,inf"),
        pytest.param("kurth.k", "nan", id="nan"),
        pytest.param("shell.n", "100,100.7", id="shell.n-100,100.7"),
    ])
    def test_bad_values_exit_2(self, param, values, tmp_path, capsys):
        path = tmp_path / "k.cfg"
        path.write_text(SHELL_CFG.format(t_end=1.0) if param == "shell.n" else KURTH_CFG)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(path), "--param", param,
                "--values", values, "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = parse_config(KURTH_CFG)
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, "kurth.wibble", [1.0], str(tmp_path / "sweep"))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, "r_grid", [1.0], str(tmp_path / "sweep"))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("scenario", ["kurth", "shell"])
    def test_member_report_equals_classify_of_its_file(self, scenario, threads, tmp_path):
        # a member is classified from the table it wrote, not from a read
        # of the file; the two must give the same report bytes
        if scenario == "kurth":
            cfg, param, values = parse_config(KURTH_CFG), "kurth.k", [0.0, 0.5, 1.5]
        else:
            cfg, param, values = parse_config(SHELL_CFG.format(t_end=5.0)), "shell.w_min", [0.5, 0.55]
        out = tmp_path / "sweep"
        cmd_sweep(cfg, param, values, str(out), threads=threads)
        for i in range(len(values)):
            member = out / f"run_{i:03d}"
            again = tmp_path / f"report_{i}.json"
            cmd_classify(str(member / "diagnostics.csv"), out_path=str(again))
            assert (member / "report.json").read_bytes() == again.read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched member function")
    def test_dead_worker_recorded(self, tmp_path, monkeypatch):
        # a worker that dies raises nothing itself: the sweep records
        # every member the broken pool took down
        import vpshell.cli as cli

        monkeypatch.setattr(cli, "_sweep_one", _die)
        out = tmp_path / "sweep"
        summary = cmd_sweep(parse_config(KURTH_CFG), "kurth.k", [0.5, 1.5], str(out),
                            threads=2)
        rows = [row.split(",") for row in open(summary).read().splitlines()[1:]]
        assert rows == [["0.5", "", "", "failed", "", ""], ["1.5", "", "", "failed", "", ""]]
        for i in range(2):
            error = json.loads((out / f"run_{i:03d}" / "error.json").read_text())
            assert error["type"] == "BrokenProcessPool"

    def test_member_csv_not_read_back(self, tmp_path, monkeypatch):
        import vpshell.cli as cli

        def refuse(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_diagnostics", refuse)
        summary = cmd_sweep(parse_config(KURTH_CFG), "kurth.k", [0.5], str(tmp_path / "s"))
        assert open(summary).read().splitlines()[1].split(",")[3] == "periodic"


class TestMainExitCodes:
    def test_success(self, shell_cfg, tmp_path, capsys):
        assert main(["run", "--config", shell_cfg, "--out", str(tmp_path / "o")]) == 0

    def test_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = shell\nnope = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.cfg"
        path.write_text(SHELL_CFG.format(t_end="inf"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_numerical_error(self, monkeypatch, shell_cfg, tmp_path):
        from vpshell import errors
        import vpshell.cli as cli

        def boom(*args, **kwargs):
            raise errors.StiffnessError("forced", time=1.0)

        monkeypatch.setattr(cli, "run", boom)
        assert main(["run", "--config", shell_cfg, "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_run_exits_3(self, monkeypatch, shell_cfg, tmp_path, capsys):
        # a NaN force makes the step size NaN; the run must fail loudly
        # rather than write a truncated table
        import numpy as np
        import vpshell.dynamics as dynamics

        kernel = dynamics._raw_acceleration
        monkeypatch.setattr(
            dynamics,
            "_raw_acceleration",
            lambda r, inv: (np.full_like(r, np.nan), kernel(r, inv)[1]),
        )
        assert main(["run", "--config", shell_cfg, "--out", str(tmp_path / "o")]) == 3
        assert "non-finite step size (at t = 0)" in capsys.readouterr().err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    def test_unresolvable_force_exits_3(self, tmp_path, capsys):
        # a cold radial shell falls through the centre, where the force
        # time scale drops below dt_min; stepping on at dt_min took E from
        # -0.0325 to 1.97e5 and exited 0
        path = tmp_path / "cold.cfg"
        path.write_text("\n".join([
            "scenario = shell", "t_end = 20.0", "output_cadence = 0.5",
            "r_grid = 1.0,2.0,4.0", "q_list = 1.6666666666666667", "shell.mass = 1.0",
            "shell.r_inner = 1.0", "shell.r_outer = 1.25", "shell.w_min = -0.1",
            "shell.w_max = 0.0", "shell.n = 20", ""]))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "below dt_min = 1e-13 (at t = " in err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--mass", "0"), ("--mass", "-1"), ("--mass", "nan"), ("--mass", "inf"),
         ("--energy", "nan"), ("--energy", "inf"), ("--energy=-inf", None),
         ("--momentum", "nan"), ("--momentum", "inf"),
         ("--momentum=1e300", None), ("--momentum=-1", None)],
    )
    def test_classify_bad_invariant_exits_2(self, flag, value, tmp_path, capsys):
        # mass 0 divided by zero in the classifier, |Q| = 1e300 overflowed
        # Q^2 with a traceback; the others printed a label
        csv = cmd_kurth(0.5, 4.0, 1.0, (5.0 / 3.0,), str(tmp_path))
        args = [flag] if value is None else [flag, value]
        assert main(["classify", csv, *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err

    def test_classify_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        assert main(["classify", str(path)]) == 4

    def test_classify_times_out_of_order_exit_4_with_row(self, tmp_path, capsys):
        # two rows swapped: the second of them is the first whose t does
        # not increase (this exited 2 from the classifier, with no row)
        csv = cmd_kurth(0.5, 10.0, 0.5, (5.0 / 3.0,), str(tmp_path))
        lines = open(csv).read().splitlines()
        lines[4], lines[5] = lines[5], lines[4]
        open(csv, "w").write("\n".join(lines) + "\n")
        assert main(["classify", csv]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "row 6: column t must strictly increase" in err

    @pytest.mark.parametrize("first_mass", ["0.0", "-0.0", "-1.0"])
    def test_classify_non_positive_first_mass_exits_4_with_row(self, first_mass, tmp_path,
                                                                capsys):
        # the mass taken from the table is an input, not a flag: exit 4 at
        # row 2; with --mass the first M is not read
        csv = cmd_kurth(0.5, 10.0, 0.5, (5.0 / 3.0,), str(tmp_path))
        lines = open(csv).read().splitlines()
        cells = lines[1].split(",")
        cells[4] = first_mass
        lines[1] = ",".join(cells)
        open(csv, "w").write("\n".join(lines) + "\n")
        assert main(["classify", csv]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "row 2: column M must be positive" in err
        assert main(["classify", csv, "--mass", "1.0"]) == 0

    def test_negative_seed_in_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(SHELL_CFG.format(t_end=1.0).replace("seed = 42", "seed = -1"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "seed" in err and "line 3" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("times", ["1.0,5.0", "-1.0"])
    def test_snapshot_outside_run_exits_2(self, times, tmp_path, capsys):
        # refused with its line before the output directory is made; the
        # run's own check left an empty --out behind with no line number
        path = tmp_path / "snap.cfg"
        path.write_text(SHELL_CFG.format(t_end=2.0) + f"snapshot_times = {times}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "snapshot_times" in err and "line 14" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, repeated, line", [("r_grid", "1.0,1", 12),
                                                     ("q_list", "2.0,2.0", 13)])
    def test_repeated_column_value_exits_2(self, key, repeated, line, tmp_path, capsys):
        # a repeated ball radius or exponent names two columns alike; it
        # used to exit 0, computing each twice, and a read kept one of each
        text = SHELL_CFG.format(t_end=1.0).splitlines()
        text[line - 1] = f"{key} = {repeated}"
        path = tmp_path / "twice.cfg"
        path.write_text("\n".join(text) + "\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and f"line {line}" in err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_exits_2(self, shell_cfg, tmp_path, capsys):
        argv = ["run", "--config", shell_cfg, "--out", str(tmp_path / "o"), "--seed", "-3"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "seed" in err

    @pytest.mark.parametrize("flags", [["--param", "seed", "--values", "1,-1"],
                                       ["--param", "shell.w_min", "--values", "0.5",
                                        "--seed", "-1"]])
    def test_negative_seed_sweep_exits_2(self, flags, tmp_path, capsys):
        # refused before any member runs, not recorded as a `failed` member
        path = tmp_path / "shell.cfg"
        path.write_text(SHELL_CFG.format(t_end=1.0))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "seed" in err
        assert not out.exists()

    def test_seed_override(self, shell_cfg, tmp_path):
        main(["run", "--config", shell_cfg, "--out", str(tmp_path / "o"), "--seed", "7"])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_threads_flag_does_not_change_bytes(self, shell_cfg, tmp_path):
        main(["run", "--config", shell_cfg, "--out", str(tmp_path / "t1"), "--threads", "1"])
        main(["run", "--config", shell_cfg, "--out", str(tmp_path / "t4"), "--threads", "4"])
        a = (tmp_path / "t1" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "t4" / "diagnostics.csv").read_bytes()
        assert a == b
