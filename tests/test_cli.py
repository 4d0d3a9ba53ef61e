import filecmp
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from spinshot import cli, estimators, montecarlo, sequence
from spinshot.config import load_config
from spinshot.estimators import FitError

SEQ_TEXT = ("repeat 25 { pulse optical A 0.02us 1pi\n"
            " detect 3us\n wait 6.98us }\n")


# the Monte Carlo commands, the only ones that take --shots, and the
# shots each runs without it
SHOT_DEFAULTS = {"simulate": 1000, "area-sweep": 20000, "protocols": 5000}


def run_cli(argv, capsys=None):
    code = cli.main(argv)
    out = capsys.readouterr() if capsys else None
    return code, out


@pytest.fixture
def seq_file(tmp_path):
    p = tmp_path / "readout.seq"
    p.write_text(SEQ_TEXT)
    return str(p)


@pytest.fixture
def series_file(tmp_path):
    x = np.linspace(0.0, 300.0, 80)
    y = 0.06 * np.exp(-x / 127.0) + 0.002
    p = tmp_path / "trace.csv"
    with open(p, "w") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.10g},{yi:.10g}\n")
    return str(p)


@pytest.fixture
def records_file(tmp_path):
    from spinshot.montecarlo import run_timeline
    from spinshot.readout import ReadoutParams
    from spinshot.sequence import compile_sequence, parse_sequence
    params = ReadoutParams(n_pulses=25, p_excite=0.78, eta_detect=0.10,
                           flip_bright=0.5 / 131, flip_dark=0.5 / 131)
    run = run_timeline(compile_sequence(parse_sequence(SEQ_TEXT)), params,
                       shots=2000, seed=1)
    p = tmp_path / "events.txt"
    run.records.to_file(p)
    return str(p)


class Expired(BaseException):
    """Raised from SIGALRM; not an Exception, so main() cannot catch it."""


def run_cli_within(seconds, argv, capsys):
    """run_cli, failing the test if main() has not returned in time."""
    def expire(signum, frame):
        raise Expired(f"{argv[0]} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(argv, capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def paper_with(tmp_path, key, value):
    """paper.cfg with ``key`` set to ``value``; returns its path."""
    text, n = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}",
                      load_config("paper.cfg").text, flags=re.M)
    assert n == 1, key
    path = tmp_path / f"{key}.cfg"
    path.write_text(text)
    return str(path)


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def tree_bytes(out_dir, skip=("manifest.json",)):
    got = {}
    for name in sorted(os.listdir(out_dir)):
        if name in skip:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            got[name] = fh.read()
    return got


class TestSubcommands:
    def test_levels(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["levels", "--out-dir", out], capsys)
        assert code == 0
        for label in ("A =", "B =", "C =", "D ="):
            assert label in cap.out
        assert "A-D splitting" in cap.out
        assert "3.598" in cap.out
        assert os.path.exists(os.path.join(out, "levels.csv"))

    def test_readout_optimize(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["readout-optimize", "--n-max", "90",
                             "--out-dir", out], capsys)
        assert code == 0
        assert "best pulse number" in cap.out
        assert "dark-count penalty" in cap.out
        csv = os.path.join(out, "fidelity_vs_n.csv")
        assert open(csv).readline().strip() == "n,threshold,f_bright,f_dark,f_min"

    def test_simulate(self, tmp_path, seq_file, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["simulate", seq_file, "--shots", "300",
                             "--out-dir", out], capsys)
        assert code == 0
        assert "detection gates: 25" in cap.out
        assert os.path.exists(os.path.join(out, "counts.csv"))
        assert os.path.exists(os.path.join(out, "events.txt"))

    def test_fit(self, tmp_path, series_file, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["fit", series_file, "--model", "exp_decay",
                             "--out-dir", out], capsys)
        assert code == 0
        assert "tau" in cap.out
        lines = open(os.path.join(out, "fit_params.csv")).read().splitlines()
        assert lines[0] == "parameter,value,uncertainty"
        tau = float(lines[2].split(",")[1])
        assert tau == pytest.approx(127.0, rel=1e-4)

    def test_g2(self, tmp_path, records_file, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["g2", records_file, "--out-dir", out], capsys)
        assert code == 0
        assert "g2(0) = 0" in cap.out
        assert open(os.path.join(out, "g2.csv")).readline().strip() == \
            "lag,pair_rate"

    def test_area_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["area-sweep", "--points", "3", "--shots", "2000",
                             "--out-dir", out], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out, "area_sweep.csv"))

    def test_area_sweep_one_point(self, tmp_path, capsys):
        # np.linspace samples only --area-min when there is one point, and
        # the report names the grid that was sampled
        out = str(tmp_path / "o")
        code, cap = run_cli(["area-sweep", "--points", "1", "--area-min", "0.1",
                             "--area-max", "1", "--shots", "200",
                             "--out-dir", out], capsys)
        assert code == 0
        assert "areas: 0.1..0.1 (1 points)" in cap.out
        rows = open(os.path.join(out, "area_sweep.csv")).read().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0.1,")

    def test_calibrate(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["calibrate", "--out-dir", out], capsys)
        assert code == 0
        assert "achieved fidelity: 0.869" in cap.out

    def test_protocols(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["protocols", "--shots", "1000", "--out-dir", out],
                            capsys)
        assert code == 0
        for name in ("t1", "odmr", "rabi", "echo"):
            with open(os.path.join(out, f"{name}_curve.csv")) as fh:
                assert fh.readline().strip() == "x,mean,stderr,shots"
            with open(os.path.join(out, f"{name}_fit.csv")) as fh:
                assert fh.readline().strip() == "parameter,value,uncertainty"
        assert "model: damped_sine" in cap.out
        assert len(manifest_of(out)["outputs"]) == 9

    def test_protocols_read_microwave_section(self, tmp_path, capsys):
        from spinshot.config import resolve_config_path
        with open(resolve_config_path("paper.cfg")) as fh:
            text = fh.read()
        assert "drive_jitter = 0\n" in text
        jittered = tmp_path / "jitter.cfg"
        jittered.write_text(text.replace("drive_jitter = 0\n",
                                         "drive_jitter = 0.05\n"))
        trees = []
        for tag, config in (("nominal", "paper.cfg"), ("jitter", str(jittered))):
            out = str(tmp_path / tag)
            code, _ = run_cli(["protocols", "--shots", "1000", "--config", config,
                               "--out-dir", out], capsys)
            assert code == 0
            trees.append(tree_bytes(out))
        assert trees[0]["t1_curve.csv"] == trees[1]["t1_curve.csv"]
        assert trees[0]["rabi_curve.csv"] != trees[1]["rabi_curve.csv"]

    def test_console_script(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "spinshot.cli", "levels",
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert "A =" in res.stdout


class TestManifest:
    def test_written_and_complete(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, _ = run_cli(["levels", "--out-dir", out], capsys)
        assert code == 0
        man = manifest_of(out)
        assert man["command"] == "levels"
        assert man["seed"] == 0
        assert man["config_sha256"]
        assert man["started_at"] and man["finished_at"]
        for name in man["outputs"]:
            assert os.path.exists(os.path.join(out, name)), name
        assert "levels.csv" in man["outputs"]
        assert "report.txt" in man["outputs"]

    def test_fit_and_g2_record_no_config(self, tmp_path, series_file, capsys):
        records = tmp_path / "hand.txt"
        records.write_text(HAND_RECORDS)
        for argv in (["fit", series_file, "--model", "exp_decay"],
                     ["g2", str(records)]):
            out = str(tmp_path / argv[0])
            assert run_cli(argv + ["--out-dir", out], capsys)[0] == 0
            man = manifest_of(out)
            assert man["config"] is None and man["config_sha256"] is None
            # neither command reads a config, so neither takes --config
            code, cap = run_cli(argv + ["--config", "paper.cfg",
                                        "--out-dir", out], capsys)
            assert code == 1 and "--config" in cap.err

    @pytest.mark.parametrize("command,engine,extra", [
        ("simulate", "run_timeline", ["SEQ"]),
        ("area-sweep", "pulse_area_scan", ["--points", "2"]),
        ("protocols", "run_protocol", []),
    ])
    @pytest.mark.parametrize("shots", [None, 2000])
    def test_shots_are_the_shots_run(self, command, engine, extra, shots,
                                     tmp_path, seq_file, capsys, monkeypatch):
        from spinshot import montecarlo
        ran = []
        real = getattr(montecarlo, engine)

        def spy(*args, **kwargs):
            ran.append(kwargs["shots"])
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, engine, spy)
        argv = [command, *(seq_file if a == "SEQ" else a for a in extra)]
        if shots is not None:
            argv += ["--shots", str(shots)]
        out = str(tmp_path / "o")
        assert run_cli(argv + ["--out-dir", out], capsys)[0] == 0
        want = SHOT_DEFAULTS[command] if shots is None else shots
        assert ran and set(ran) == {want}
        assert manifest_of(out)["shots"] == want

    @pytest.mark.parametrize("argv", [
        ["levels"], ["readout-optimize", "--n-max", "20"], ["calibrate"],
        ["fit", "SERIES", "--model", "exp_decay"], ["g2", "RECORDS"]],
        ids=lambda argv: argv[0])
    def test_no_shots_without_monte_carlo(self, argv, tmp_path, series_file,
                                          capsys):
        records = tmp_path / "hand.txt"
        records.write_text(HAND_RECORDS)
        names = {"SERIES": series_file, "RECORDS": str(records)}
        argv = [names.get(arg, arg) for arg in argv]
        out = str(tmp_path / "o")
        assert run_cli(argv + ["--out-dir", out], capsys)[0] == 0
        assert manifest_of(out)["shots"] is None
        # a command that runs no shots takes no --shots
        code, cap = run_cli(argv + ["--shots", "7", "--out-dir",
                                    str(tmp_path / "s")], capsys)
        assert code == 1 and "--shots" in cap.err
        assert not os.path.exists(tmp_path / "s")

    @pytest.mark.parametrize("copy", ["preset", "lf", "crlf"])
    def test_config_sha256_is_the_file_bytes(self, copy, tmp_path, capsys):
        from spinshot.config import resolve_config_path
        with open(resolve_config_path("paper.cfg"), "rb") as fh:
            data = fh.read()
        assert b"\r" not in data
        config = "paper.cfg"
        if copy == "crlf":
            data = data.replace(b"\n", b"\r\n")
        if copy != "preset":
            path = tmp_path / f"{copy}.cfg"
            path.write_bytes(data)
            config = str(path)
        out = str(tmp_path / "o")
        assert run_cli(["levels", "--config", config, "--out-dir", out],
                       capsys)[0] == 0
        man = manifest_of(out)
        assert man["config"] == config
        assert man["config_sha256"] == hashlib.sha256(data).hexdigest()
        with open(os.path.join(out, "levels.csv"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == \
                GOLDEN_SHA256["levels.csv"]

    @pytest.mark.parametrize("argv", [
        ["levels"], ["readout-optimize", "--n-max", "20"],
        ["simulate", "SEQ", "--shots", "20"],
        ["area-sweep", "--points", "2", "--shots", "200"], ["calibrate"],
        ["protocols", "--shots", "1000"]], ids=lambda argv: argv[0])
    def test_config_opened_once(self, argv, tmp_path, seq_file, capsys,
                                monkeypatch):
        import builtins

        from spinshot.config import resolve_config_path
        config = str(tmp_path / "paper.cfg")
        with open(resolve_config_path("paper.cfg"), "rb") as fh:
            (tmp_path / "paper.cfg").write_bytes(fh.read())
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        argv = [seq_file if arg == "SEQ" else arg for arg in argv]
        code, _ = run_cli(argv + ["--config", config,
                                  "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert opened.count(config) == 1

    def test_format_csv_skips_report(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, cap = run_cli(["levels", "--out-dir", out, "--format", "csv"],
                            capsys)
        assert code == 0
        assert cap.out == ""
        assert not os.path.exists(os.path.join(out, "report.txt"))
        assert os.path.exists(os.path.join(out, "levels.csv"))


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path, seq_file, capsys):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            code, _ = run_cli(["simulate", seq_file, "--shots", "400",
                               "--seed", "5", "--out-dir", out], capsys)
            assert code == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_outputs(self, tmp_path, seq_file,
                                                  capsys, monkeypatch):
        outs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("SPINSHOT_THREADS", workers)
            out = str(tmp_path / f"w{workers}")
            code, _ = run_cli(["simulate", seq_file, "--shots", "400",
                               "--seed", "5", "--out-dir", out], capsys)
            assert code == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_seed_changes_outputs(self, tmp_path, seq_file, capsys):
        trees = []
        for seed in ("1", "2"):
            out = str(tmp_path / f"s{seed}")
            run_cli(["simulate", seq_file, "--shots", "400",
                     "--seed", seed, "--out-dir", out], capsys)
            trees.append(tree_bytes(out))
        assert trees[0] != trees[1]


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli(["not-a-command"], capsys)[0] == 1
        assert run_cli([], capsys)[0] == 1
        assert run_cli(["fit"], capsys)[0] == 1  # missing required args

    def test_config_errors(self, tmp_path, capsys):
        assert run_cli(["levels", "--config", "/missing.cfg",
                        "--out-dir", str(tmp_path / "x")], capsys)[0] == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("[readout]\nn = 1\nn = 2\n")
        assert run_cli(["calibrate", "--config", str(bad),
                        "--out-dir", str(tmp_path / "y")], capsys)[0] == 2

    def test_parse_errors(self, tmp_path, capsys):
        seq = tmp_path / "bad.seq"
        seq.write_text("pulse optical A 0.02 1pi\n")  # missing unit
        code, cap = run_cli(["simulate", str(seq),
                             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "bad.seq:1:" in cap.err

    def test_missing_input_file(self, tmp_path, capsys):
        assert run_cli(["simulate", str(tmp_path / "none.seq"),
                        "--out-dir", str(tmp_path / "o")], capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "SEQ", "--shots", "0"],
        ["simulate", "SEQ", "--shots", "-3"],
        ["area-sweep", "--shots", "0"],
    ])
    def test_nonpositive_shots(self, argv, tmp_path, seq_file, capsys):
        argv = [seq_file if arg == "SEQ" else arg for arg in argv]
        code, cap = run_cli(argv + ["--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "--shots" in cap.err

    @pytest.mark.parametrize("argv,flag", [
        (["area-sweep", "--points", "1000000000000"], "--points"),
        (["area-sweep", "--points", str(cli.MAX_POINTS + 1)], "--points"),
        (["area-sweep", "--shots", "1000000000000"], "--shots"),
        (["protocols", "--shots", "1000000000000"], "--shots"),
        (["simulate", "SEQ", "--shots", "1000000000000"], "--shots"),
        (["simulate", "SEQ", "--shots", str(cli.MAX_SHOTS + 1)], "--shots"),
        (["readout-optimize", "--n-min", "0"], "--n-min"),
        (["readout-optimize", "--n-max", "0"], "--n-max"),
        (["readout-optimize", "--n-min", "5", "--n-max", "3"], "--n-min"),
        (["calibrate", "--n-pulses", "0"], "--n-pulses"),
        (["calibrate", "--threshold", "0"], "--threshold"),
        (["calibrate", "--threshold", "100"], "--threshold"),
        (["calibrate", "--n-pulses", "500", "--threshold", "501"],
         "--threshold"),
        (["calibrate", "--target-f", "nan"], "--target-f"),
        (["calibrate", "--target-f", "0"], "--target-f"),
        (["calibrate", "--target-f", "1.5"], "--target-f"),
        (["area-sweep", "--area-min", "nan"], "--area-min"),
        (["area-sweep", "--area-max", "inf"], "--area-max"),
        (["area-sweep", "--flip-slope", "nan"], "--flip-slope"),
        (["area-sweep", "--area-min=-1e308", "--area-max=1e308"], "--area-min"),
        (["area-sweep", "--flip-slope", "-1"], "--flip-slope"),
        (["area-sweep", "--area-min", "-1", "--flip-slope", "0.004"],
         "--flip-slope"),
        (["fit", "SERIES", "--model", "gaussian_sum", "--components", "0"],
         "--components"),
        (["fit", "SERIES", "--model", "exp_decay", "--components", "-2"],
         "--components"),
        (["g2", "RECORDS", "--lags", "0"], "--lags"),
        (["g2", "RECORDS", "--lags", "-1"], "--lags"),
        (["g2", "RECORDS", "--lags", str(cli.MAX_LAGS + 1)], "--lags"),
    ], ids=["points-1e12", "points-above-max", "area-sweep-shots-1e12",
            "protocols-shots-1e12", "simulate-shots-1e12",
            "simulate-shots-above-max", "n-min-0", "n-max-0",
            "n-min-above-n-max", "n-pulses-0",
            "threshold-0", "threshold-above-pulses",
            "threshold-above-n-pulses-flag", "target-f-nan", "target-f-0",
            "target-f-above-1", "area-min-nan", "area-max-inf", "flip-slope-nan",
            "area-span-overflows",
            "flip-slope-negative-a", "negative-area-negative-a",
            "components-0", "components-negative", "lags-0", "lags-negative",
            "lags-above-max"])
    def test_flag_out_of_range(self, argv, flag, tmp_path, series_file,
                               records_file, seq_file, capsys):
        names = {"SERIES": series_file, "RECORDS": records_file, "SEQ": seq_file}
        argv = [names.get(arg, arg) for arg in argv]
        if argv[0] in SHOT_DEFAULTS:        # a case's own --shots comes later
            argv[1:1] = ["--shots", "200"]
        code, cap = run_cli(argv + ["--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1
        assert cap.err.startswith(flag)
        assert "Traceback" not in cap.err

    @pytest.mark.parametrize("argv,flag", [
        (["calibrate", "--n-pulses"], "--n-pulses"),
        (["readout-optimize", "--n-max"], "--n-max"),
    ], ids=["n-pulses", "n-max"])
    def test_pulse_flag_beyond_dp_capacity(self, argv, flag, tmp_path, capsys,
                                           monkeypatch):
        from spinshot import readout

        def no_dp(*args, **kwargs):
            raise AssertionError("the exact DP ran")
        monkeypatch.setattr(readout, "_chain", no_dp)
        code, cap = run_cli(argv + [str(readout.CAPACITY_PULSES + 1),
                                    "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1
        assert cap.err.startswith(f"{flag} must be <= {readout.CAPACITY_PULSES}")
        assert "readout.CAPACITY_PULSES" in cap.err

    @pytest.mark.parametrize("argv,says", [
        (["readout-optimize", "--n-min", "5", "--n-max", "3"], "--n-min must be <= 3, got 5"),
        (["calibrate", "--threshold", "72"], "--threshold must be <= 71, got 72"),
        (["calibrate", "--n-pulses", "500", "--threshold", "501"],
         "--threshold must be <= 500, got 501"),
        (["calibrate", "--target-f", "1"], "--target-f must be finite and in (0, 1), got 1"),
        (["calibrate", "--n-pulses", "4001"], "--n-pulses must be <= 4000, got 4001 "
         "(the exact-DP capacity, readout.CAPACITY_PULSES)"),
    ], ids=["n-min-above-n-max", "threshold-above-config-pulses",
            "threshold-above-n-pulses-flag", "target-f-1", "n-pulses-above-capacity"])
    def test_limit_messages(self, argv, says, tmp_path, capsys):
        # each flag's limit comes from check_count or readout.CALIBRATION_RANGES
        code, cap = run_cli(argv + ["--out-dir", str(tmp_path / "o")], capsys)
        assert (code, cap.err) == (1, says + "\n")

    def test_records_beyond_header(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("# photon records: shot_id pulse_index timestamp_us origin\n"
                        "# shots=2 pulses=3\n"
                        "0 1 12.5 emitter\n"
                        "5 2 25.1 emitter\n")
        code, cap = run_cli(["g2", str(path), "--out-dir", str(tmp_path / "o")],
                            capsys)
        assert code == 2
        assert f"{path}:4:" in cap.err
        assert "shot_id 5" in cap.err

    def test_records_negative_pulse_index(self, tmp_path, capsys):
        # every row carries its pulse index, so g2 needs no pulse period
        path = tmp_path / "events.txt"
        path.write_text("# shots=1 pulses=3\n0 -1 12.5 emitter\n")
        code, cap = run_cli(["g2", str(path), "--out-dir", str(tmp_path / "o")],
                            capsys)
        assert code == 2
        assert "pulse_index -1 outside 0..2" in cap.err
        code, cap = run_cli(["g2", str(path), "--pulse-period", "10",
                             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "--pulse-period" in cap.err

    @pytest.mark.parametrize("header", ["# shots=abc pulses=3",
                                        "# shots=2 pulses=-1",
                                        "# shots= pulses=3"])
    def test_records_bad_header(self, header, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("# photon records: shot_id pulse_index timestamp_us origin\n"
                        f"{header}\n"
                        "0 1 12.5 emitter\n")
        code, cap = run_cli(["g2", str(path), "--out-dir", str(tmp_path / "o")],
                            capsys)
        assert code == 2
        assert f"{path}:2:" in cap.err
        assert "non-negative integer" in cap.err

    def test_numerical_failure(self, tmp_path, capsys):
        code, cap = run_cli(["calibrate", "--target-f", "0.9999",
                             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 3
        assert "unreachable" in cap.err

    def test_protocols_fit_failure(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise FitError("no start converged")
        monkeypatch.setattr(estimators, "fit_model", no_fit)
        code, cap = run_cli(["protocols", "--shots", "50",
                             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 3
        assert "no start converged" in cap.err


    def test_protocols_fit_failure_names_protocol(self, tmp_path, capsys):
        # the three-component ODMR fit finds no converged start at 300 shots
        code, cap = run_cli(["protocols", "--shots", "300", "--seed", "0",
                             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 3
        assert "numerical failure: odmr: no start converged" in cap.err

    def test_protocols_fit_parameters_finite(self, tmp_path):
        # at this seed the Rabi fit's best start drives log(tau) past exp's range
        out = tmp_path / "o"
        res = subprocess.run(
            [sys.executable, "-m", "spinshot.cli", "protocols", "--seed", "3",
             "--shots", "200", "--out-dir", str(out)],
            capture_output=True, text=True)
        assert "Warning" not in res.stderr
        assert res.returncode in (0, 3)
        if res.returncode == 0:
            for name in ("t1", "odmr", "rabi", "echo"):
                rows = (out / f"{name}_fit.csv").read_text().splitlines()[1:]
                values = [float(row.split(",")[1]) for row in rows]
                assert np.all(np.isfinite(values)), name


class TestInputsFailFast:
    @pytest.mark.parametrize("rate,argv,code", [
        ("1e300", ["readout-optimize", "--n-max", "5"], 2),
        ("1e300", ["calibrate"], 2),
        ("1e300", ["area-sweep", "--points", "2", "--shots", "200"], 2),
        ("1e300", ["simulate", "SEQ", "--shots", "50"], 2),
        # a high but rated dark rate works as before (calibrate's target
        # is out of reach at any asymmetry)
        ("1e9", ["readout-optimize", "--n-max", "5"], 0),
        ("1e9", ["calibrate"], 3),
        ("1e9", ["area-sweep", "--points", "2", "--shots", "200"], 0),
        ("1e9", ["simulate", "SEQ", "--shots", "50"], 0),
    ])
    def test_dark_rate(self, rate, argv, code, tmp_path, capsys):
        config = paper_with(tmp_path, "dark_rate_hz", rate)
        seq = tmp_path / "one.seq"
        seq.write_text("pulse optical A 0.02us 1pi\ndetect 3us\n")
        argv = [str(seq) if arg == "SEQ" else arg for arg in argv]
        got, cap = run_cli_within(2.0, argv + [
            "--config", config, "--out-dir", str(tmp_path / "o")], capsys)
        assert got == code, cap.err
        if code == 2:
            assert "[detection] dark_rate_hz" in cap.err
        assert "Traceback" not in cap.err and "Warning" not in cap.err

    # (section, key, whether 0 is in range)
    KEYS = [("emitter", "frequency_ghz", False), ("emitter", "g_ground", False),
            ("emitter", "g_excited", False),
            ("emitter", "bulk_lifetime_us", False),
            ("emitter", "spectral_diffusion_fwhm_mhz", True),
            ("cavity", "resonance_frequency_ghz", False),
            ("cavity", "quality_factor", False),
            ("cavity", "purcell_on_resonance", False),
            ("detection", "eta_waveguide", True),
            ("detection", "eta_offchip", True),
            ("detection", "eta_switch", True),
            ("detection", "eta_detector", True),
            ("field", "magnetic_field_t", True)]

    @pytest.mark.parametrize("section,key,zero_ok", KEYS,
                             ids=[key for _, key, _ in KEYS])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_level_structure_keys(self, section, key, zero_ok, value,
                                  tmp_path, capsys):
        config = paper_with(tmp_path, key, value)
        code, cap = run_cli(["levels", "--config", config,
                             "--out-dir", str(tmp_path / "o")], capsys)
        if value == "0" and zero_ok:
            assert code == 0, cap.err
        else:
            assert code == 2
            assert f"[{section}] {key} must be finite and in" in cap.err

    # the keys that protocols, simulate and calibrate read besides the level
    # structure; a list key gets the value in each of its three slots
    SPIN_KEYS = [("readout", "n_pulses"), ("bath", "odmr_centers_mhz"),
                 ("bath", "odmr_weights"), ("bath", "odmr_fwhm_mhz"),
                 ("bath", "t1_spin_s"), ("bath", "t2_echo_us"),
                 ("bath", "echo_exponent"), ("microwave", "rabi_khz"),
                 ("microwave", "detuning_sigma_khz"),
                 ("microwave", "drive_jitter")]

    @pytest.mark.parametrize("section,key", SPIN_KEYS,
                             ids=[key for _, key in SPIN_KEYS])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e300",
                                       "1e306", "1e307"])
    def test_spin_and_pulse_count_keys(self, section, key, value, tmp_path,
                                       capsys):
        listed = key in ("odmr_centers_mhz", "odmr_weights")
        config = paper_with(tmp_path, key, ", ".join([value] * 3) if listed
                            else value)
        seq = tmp_path / "mw.seq"
        seq.write_text("pulse mw 0MHz 2.3us 0deg\npulse optical A 0.02us 1pi\n"
                       "detect 3us\n")
        commands = ([["calibrate"], ["simulate", str(seq), "--shots", "20"]]
                    if section == "readout" else
                    [["protocols", "--shots", "500"],
                     ["simulate", str(seq), "--shots", "20"]])
        for argv in commands:
            out = tmp_path / argv[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, cap = run_cli_within(10.0, argv + [
                    "--config", config, "--format", "csv",
                    "--out-dir", str(out)], capsys)
            assert code in (0, 1, 2, 3), (argv[0], code)
            assert "Traceback" not in cap.err and "Warning" not in cap.err
            if section == "readout" and argv[0] == "simulate":
                # simulate takes its gates from the sequence: the key is unread
                assert code == 0, cap.err
                assert run_cli(argv + ["--format", "csv", "--out-dir",
                                       str(tmp_path / "paper")])[0] == 0
                assert tree_bytes(out) == tree_bytes(tmp_path / "paper")
            elif code == 2 or value in ("nan", "inf", "-inf"):
                assert code == 2 and f"[{section}] {key}" in cap.err, \
                    (argv[0], cap.err)

    @pytest.mark.parametrize("argv,code", [
        (["simulate", "SEQ", "--shots", "50"], 0),
        (["calibrate"], 2),
        (["area-sweep", "--points", "2", "--shots", "200"], 2),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_pulse_count_beyond_dp_capacity(self, argv, code, tmp_path, seq_file,
                                            capsys):
        # the timeline executor runs no DP and takes its gates from the
        # sequence; the commands that run the DP bound the key by its capacity
        from spinshot.readout import CAPACITY_PULSES
        config = paper_with(tmp_path, "n_pulses", str(10 * CAPACITY_PULSES))
        argv = [seq_file if arg == "SEQ" else arg for arg in argv]
        got, cap = run_cli(argv + ["--config", config,
                                   "--out-dir", str(tmp_path / "o")], capsys)
        assert got == code, cap.err
        if code:
            assert (f"[readout] n_pulses must be finite and in [1, {CAPACITY_PULSES}]"
                    in cap.err)

    def test_overflowing_sequence_time(self, tmp_path, capsys):
        seq = tmp_path / "long.seq"
        seq.write_text("pulse optical A 1e308us 1pi\n"
                       "pulse optical A 1e308us 1pi\n"
                       "detect 3us\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cap = run_cli(["simulate", str(seq), "--shots", "20",
                                 "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2
        assert f"error: {seq}:2:1: event 1 starts at 1e+308 us" in cap.err
        assert "Warning" not in cap.err

    def test_huge_gate_window(self, tmp_path, capsys):
        # one 1e300 us gate: its dark-count mean is checked before any draw
        seq = tmp_path / "wide.seq"
        seq.write_text("pulse optical A 0.02us 1pi\ndetect 1e300us\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cap = run_cli_within(2.0, ["simulate", str(seq), "--shots", "20",
                                             "--out-dir", str(tmp_path / "o")],
                                       capsys)
        assert code == 2
        assert ("the dark-count mean 1e+295 per shot over 1 detection gates"
                in cap.err)
        for word in ("lam", "Traceback", "Warning"):
            assert word not in cap.err

    @pytest.mark.parametrize("seq_text,key,value", [
        # the area's sine overflowed to NaN, and the pulse never emitted
        ("pulse optical A 0.02us 1e308pi\ndetect 3us\n", None, None),
        # x * x of the Lorentzian weight overflowed; its limit is 0
        ("pulse optical -120MHz 0.1us 1pi\ndetect 3us\n",
         "spectral_diffusion_fwhm_mhz", "1e-300"),
    ], ids=["huge-area", "tiny-linewidth"])
    def test_extreme_pulse_runs_quietly(self, seq_text, key, value, tmp_path, capsys):
        seq = tmp_path / "one.seq"
        seq.write_text(seq_text)
        argv = ["simulate", str(seq), "--shots", "200", "--out-dir", str(tmp_path / "o")]
        if key:
            argv += ["--config", paper_with(tmp_path, key, value)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cap = run_cli_within(5.0, argv, capsys)
        assert code == 0, cap.err
        assert "Traceback" not in cap.err and "Warning" not in cap.err

    @pytest.mark.parametrize("mw,named", [
        # 2 pi Omega_eff t overflowed before its 1e-3 factor, z was NaN and
        # the readout pulse after it never emitted
        ("pulse mw 1GHz 1e302us 0deg", "1000 MHz for 1e+302 us"),
        # the detuning in kHz overflowed
        ("pulse mw 1e306MHz 1us 0deg", "1e+306 MHz for 1 us"),
    ], ids=["long-pulse", "huge-frequency"])
    def test_mw_rotation_past_float_range(self, mw, named, tmp_path, capsys):
        seq = tmp_path / "mw.seq"
        seq.write_text(f"{mw}\npulse optical A 0.02us 1pi\ndetect 3us\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cap = run_cli_within(5.0, [
                "simulate", str(seq), "--shots", "20",
                "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2, cap.err
        assert f"error: the MW pulse at {named} rotates the spin" in cap.err
        assert "Traceback" not in cap.err and "Warning" not in cap.err

    @pytest.mark.parametrize("header,last_row,code,says", [
        ("# shots=2 pulses=3", "99999999999999999999 1 12.5 emitter", 2,
         ":5: shot_id 99999999999999999999 is past the 64-bit range"),
        ("# shots=99999999999999999999 pulses=3", "1 1 12.5 emitter", 2,
         ":2: header shots= is past the 64-bit range"),
        # a grid of 1e13 cells: g2 counts the three occupied ones
        ("# shots=100000000 pulses=100000", "1 1 12.5 emitter", 0,
         "g2(0) = 0 (normalized over lags 1..20)"),
    ], ids=["shot-id-past-int64", "shots-past-int64", "1e13-cell-grid"])
    def test_g2_records_past_int64_or_memory(self, header, last_row, code, says,
                                             tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("# photon records: shot_id pulse_index timestamp_us origin\n"
                        f"{header}\n0 0 2.5 emitter\n0 1 12.5 emitter\n{last_row}\n")
        got, cap = run_cli_within(2.0, ["g2", str(path),
                                        "--out-dir", str(tmp_path / "o")], capsys)
        assert got == code, cap.err
        if code:
            assert f"error: {path}{says}" in cap.err
        else:
            assert says in cap.out
        assert "Traceback" not in cap.err and "Warning" not in cap.err

    @pytest.mark.parametrize("pulses,lags", [
        (10**6, 10**5),         # ran, writing a 100002-line g2.csv
        (10**12, 10**11),       # asked numpy for 745 GiB
    ], ids=["lags-1e5", "lags-1e11"])
    def test_g2_lags_above_rated_maximum(self, pulses, lags, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("# photon records: shot_id pulse_index timestamp_us origin\n"
                        f"# shots=1 pulses={pulses}\n0 0 2.5 emitter\n"
                        "0 1 12.5 emitter\n")
        out = tmp_path / "o"
        code, cap = run_cli_within(2.0, ["g2", str(path), "--lags", str(lags),
                                         "--out-dir", str(out)], capsys)
        assert code == 1
        assert cap.err.startswith(f"--lags must be <= {cli.MAX_LAGS}, got {lags}\n")
        assert not (out / "g2.csv").exists()

    def test_huge_pulse_count_prints_short(self, tmp_path, seq_file, capsys):
        # simulate does not read the key; calibrate names it, briefly
        config = paper_with(tmp_path, "n_pulses", "1e300")
        argv = ["simulate", seq_file, "--shots", "20"]
        code, cap = run_cli(argv + ["--config", config,
                                    "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0, cap.err
        assert run_cli(argv + ["--out-dir", str(tmp_path / "paper")])[0] == 0
        assert tree_bytes(tmp_path / "o") == tree_bytes(tmp_path / "paper")
        code, cap = run_cli(["calibrate", "--config", config,
                             "--out-dir", str(tmp_path / "c")], capsys)
        assert code == 2
        assert "[readout] n_pulses must be finite and in [1, 4000], got 1e+300" \
            in cap.err
        assert not re.search(r"\d{16}", cap.err), cap.err

    def test_simulate_ignores_dp_dark_count_capacity(self, tmp_path, capsys):
        # 10000 pulses at 1e9 Hz would be a dark-count mean of 3e7 over the
        # exact model's gates, past its capacity; simulate runs no DP, and
        # its one gate holds 3000 dark counts a shot as it does at paper.cfg's
        # pulse count
        seq = tmp_path / "one.seq"
        seq.write_text("pulse optical A 0.02us 1pi\ndetect 3us\n")
        dark = paper_with(tmp_path, "dark_rate_hz", "1e9")
        config = tmp_path / "dark_and_pulses.cfg"
        config.write_text(re.sub(r"^n_pulses\s*=.*$", "n_pulses = 10000",
                                 open(dark).read(), flags=re.M))
        argv = ["simulate", str(seq), "--shots", "20"]
        code, cap = run_cli_within(2.0, argv + [
            "--config", str(config), "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0, cap.err
        assert run_cli(argv + ["--config", dark,
                               "--out-dir", str(tmp_path / "at-71")])[0] == 0
        assert tree_bytes(tmp_path / "o") == tree_bytes(tmp_path / "at-71")

    @pytest.mark.parametrize("rate,code", [("1e12", 0), ("1e14", 2)])
    def test_simulate_checks_dark_counts_of_its_own_gates(self, rate, code,
                                                          tmp_path, capsys):
        # 1e12 Hz over paper.cfg's 3 us gate_window_us, a window simulate
        # never reads, would be a dark-count mean of 3e6, past the exact
        # model's capacity; the sequence's one 0.1 us gate holds 1e5 dark
        # counts a shot, within the executor's own check, and 1e7 at 1e14 Hz
        seq = tmp_path / "short-gate.seq"
        seq.write_text("pulse optical A 0.02us 1pi\ndetect 0.1us\n")
        config = paper_with(tmp_path, "dark_rate_hz", rate)
        got, cap = run_cli_within(10.0, [
            "simulate", str(seq), "--shots", "2", "--config", config,
            "--out-dir", str(tmp_path / "o")], capsys)
        assert got == code, cap.err
        if code == 0:
            mean = re.search(r"mean detected photons per shot: (\S+)", cap.out)
            assert float(mean.group(1)) == pytest.approx(1e5, rel=0.01)
        else:
            assert cap.err == (
                f"error: {config}: [detection] dark_rate_hz: the dark-count mean "
                "1e+07 per shot over 1 detection gates at a dark rate of 1e+14 Hz "
                f"exceeds the {sequence.MAX_EVENTS} records one shot is rated to hold\n")

    def test_components_beyond_points(self, tmp_path, capsys):
        # k components have 3k + 1 parameters and need 3k + 2 points; the
        # count is checked before any of the 3e9 parameter names is built
        series = tmp_path / "five.csv"
        series.write_text("x,y\n" + "".join(f"{i},{i * i}\n" for i in range(5)))
        tracemalloc.start()
        try:
            code, cap = run_cli_within(2.0, [
                "fit", str(series), "--model", "gaussian_sum", "--components",
                str(10**9), "--out-dir", str(tmp_path / "o")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert cap.err == ("error: need at least 3000000002 points to fit "
                           "gaussian_sum\n")
        assert peak < 1 << 20

    def test_unidentifiable_rabi_fit_names_protocol(self, tmp_path, capsys):
        # every converged start of this Rabi curve has a frequency far
        # above the grid's Nyquist rate (one was written as 2.17e172)
        code, cap = run_cli(["protocols", "--seed", "3", "--shots", "200",
                             "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 3
        assert "numerical failure: rabi: no start converged" in cap.err
        assert "unidentifiable" in cap.err


# simulate's fuzz program: MW pulses, labelled and detuned optical pulses,
# gates and waits, and a repeat; each of its numbers is replaced in turn
FUZZ_SEQ = ("pulse mw 0MHz 2.3us 0deg\n"
            "pulse optical D 0.02us 1pi\n"
            "repeat 3 {\n"
            " pulse optical A 0.02us 1pi\n"
            " detect 3us\n"
            " wait 6.98us\n"
            " pulse mw 1.5MHz 0.6us 90deg\n"
            " pulse optical -120MHz 0.1us 0.5pi\n"
            "}\n"
            "pulse optical C 1us 0.7pi\n"
            "detect 2us\n")
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e308",
               "1e-300", "1e-320", "1" + "0" * 29, "1e", "1.2.3", "+5", "-0"]


class TestSimulateFuzz:
    @pytest.mark.parametrize("cells", [montecarlo.TIMELINE_BLOCK_CELLS, 3],
                             ids=["default-budget", "3-cells"])
    @pytest.mark.parametrize("value", FUZZ_VALUES)
    def test_each_number_replaced(self, value, cells, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS", cells)
        seq = tmp_path / "fuzz.seq"
        numbers = list(re.finditer(r"-?\d+(?:\.\d+)?", FUZZ_SEQ))
        assert len(numbers) == 19
        for number in numbers:
            seq.write_text(FUZZ_SEQ[:number.start()] + value + FUZZ_SEQ[number.end():])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, cap = run_cli_within(5.0, [
                    "simulate", str(seq), "--shots", "4", "--seed", "1",
                    "--out-dir", str(tmp_path / "o")], capsys)
            case = (number.group(), number.start(), code, cap.err)
            assert code in (0, 1, 2, 3), case
            assert "Traceback" not in cap.err and "Warning" not in cap.err, case


# the config keys that no table test above covers, and the values each is
# drawn from; None leaves the key out.  flip_bright and flip_dark replace
# flip_asymmetry; the other keys replace their paper.cfg line.
CONFIG_FUZZ_KEYS = ["p_excite", "eta_detect", "relaxation_constant", "flip_asymmetry",
                    "pulse_period_us", "target_fidelity", "flip_bright", "flip_dark",
                    "gate_window_us", "axis"]
CONFIG_FUZZ_VALUES = [None, "nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "2.5",
                      "abc", "1, 2"]
CONFIG_FUZZ_COMMANDS = [["calibrate", "--n-pulses", "30"],
                        ["readout-optimize", "--n-max", "30"],
                        ["area-sweep", "--points", "2", "--shots", "200"],
                        ["levels"]]   # the one reader of [field] axis


def fuzzed_config(tmp_path, values):
    """paper.cfg with each key of ``values`` set to its value (None: left
    out); a flip key brings its partner and drops flip_asymmetry."""
    text = load_config("paper.cfg").text
    if {"flip_bright", "flip_dark"} & set(values):
        values = {"flip_asymmetry": None, "flip_bright": "0.004", "flip_dark": "0.003",
                  **values}
    for key, value in values.items():
        line = "" if value is None else f"{key} = {value}\n"
        if key in ("flip_bright", "flip_dark"):
            text = text.replace("[readout]\n", f"[readout]\n{line}")
            continue
        text, n = re.subn(rf"(?m)^{key}\s*=.*\n", line, text)
        assert n == 1, key
    path = tmp_path / "fuzz.cfg"
    path.write_text(text)
    return str(path)


def run_config_fuzz(tmp_path, values, capsys):
    """Each fuzz command on the fuzzed config, with any warning raised as an
    error; returns [(argv, exit code, stderr without the config's path)]."""
    config, runs = fuzzed_config(tmp_path, values), []
    for argv in CONFIG_FUZZ_COMMANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, cap = run_cli_within(5.0, argv + [
                "--config", config, "--out-dir", str(tmp_path / "o")], capsys)
        case = (values, argv[0], code, cap.err)
        assert code in (0, 1, 2, 3), case
        assert "Traceback" not in cap.err and "Warning" not in cap.err, case
        runs.append((argv, code, cap.err.replace(config, "CONFIG")))
    return runs


class TestConfigFuzz:
    @pytest.mark.parametrize("key", CONFIG_FUZZ_KEYS)
    def test_each_value(self, key, tmp_path, capsys):
        """Every value of one key: a config error names the key."""
        for value in CONFIG_FUZZ_VALUES:
            for argv, code, err in run_config_fuzz(tmp_path, {key: value}, capsys):
                if code == cli.EXIT_CONFIG:
                    assert key in err, (value, argv[0], err)

    def test_drawn_combinations(self, tmp_path, capsys):
        """Two to four keys at a time, drawn with their values from a seeded
        random.Random."""
        draw = random.Random(32)
        for _ in range(100):
            keys = draw.sample(CONFIG_FUZZ_KEYS, draw.randint(2, 4))
            run_config_fuzz(tmp_path, {key: draw.choice(CONFIG_FUZZ_VALUES)
                                       for key in keys}, capsys)


# each command's own flags with the values each is drawn from, and the
# arguments it runs with ahead of the drawn ones, which keep a case fast (a
# drawn flag comes later and wins); the weight is its share of the cases,
# low for protocols, whose fits take about 0.1 s a run
FUZZ_INTS = ["-1", "0", "1", "2", "3", "7", "40", "2.5", "1e3", str(10**30), "abc"]
FUZZ_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.3", "0.5", "0.99", "1",
               "2", "1e300", "abc"]
FLAG_FUZZ = {
    "calibrate": ([], {"--target-f": FUZZ_FLOATS, "--threshold": FUZZ_INTS,
                       "--n-pulses": FUZZ_INTS}, 4),
    "area-sweep": (["--points", "2", "--shots", "200"],
                   {"--area-min": FUZZ_FLOATS, "--area-max": FUZZ_FLOATS,
                    "--points": FUZZ_INTS, "--shots": FUZZ_INTS,
                    "--flip-slope": FUZZ_FLOATS}, 4),
    "levels": ([], {}, 2),
    "readout-optimize": ([], {"--n-min": FUZZ_INTS, "--n-max": FUZZ_INTS}, 4),
    "protocols": (["--shots", "20"], {"--shots": FUZZ_INTS}, 1),
    "g2": (["RECORDS"], {"--lags": FUZZ_INTS}, 4),
}
FLAG_FUZZ_COMMON = {"--seed": FUZZ_INTS + [str(2**64 + 1)],
                    "--format": ["csv", "report", "xml"]}


class TestFlagFuzz:
    def test_drawn_flags(self, tmp_path, capsys):
        """One to three flags of a command other than simulate and fit,
        drawn with their values from a seeded random.Random: every case
        exits 0 to 3 without a traceback or warning, and a usage error
        names a drawn flag."""
        records = tmp_path / "events.txt"
        records.write_text("# shots=2 pulses=3\n0 0 1.5 emitter\n"
                           "0 1 12.5 dark\n1 1 11.5 emitter\n")
        draw = random.Random(34)
        names = list(FLAG_FUZZ)
        weights = [FLAG_FUZZ[name][2] for name in names]
        for _ in range(300):
            command = draw.choices(names, weights)[0]
            base, flags, _ = FLAG_FUZZ[command]
            values = {**flags, **FLAG_FUZZ_COMMON}
            drawn = draw.sample(sorted(values), draw.randint(1, min(3, len(values))))
            argv = [command] + [str(records) if arg == "RECORDS" else arg
                                for arg in base]
            for flag in drawn:
                argv += [flag, draw.choice(values[flag])]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, cap = run_cli_within(5.0, argv + [
                    "--out-dir", str(tmp_path / "o")], capsys)
            case = (argv, code, cap.err)
            assert code in (0, 1, 2, 3), case
            assert "Traceback" not in cap.err and "Warning" not in cap.err, case
            if code == cli.EXIT_USAGE:
                assert any(flag in cap.err for flag in drawn), case


def series_with(tmp_path, x, y, sigma=None):
    """A fit input CSV of columns x, y[, sigma]; returns its path."""
    columns = [x, y] if sigma is None else [x, y, sigma]
    path = tmp_path / "series.csv"
    path.write_text("x,y" + ",sigma" * (sigma is not None) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)))
    return str(path)


def fit_quietly(path, model, tmp_path, capsys):
    """run_cli on ``fit``, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli_within(10.0, ["fit", path, "--model", model,
                                     "--out-dir", str(tmp_path / "o")], capsys)


# rows of the fit input table: x grids, y series and sigma columns of 12
# points, from ordinary to the edges of the float range
FIT_X = {
    "linear": np.linspace(0.0, 300.0, 12),
    "tiny-steps": np.arange(12) * 1e-300,
    "subnormal-steps": np.arange(12) * 1e-320,
    "huge": np.linspace(0.0, 1e308, 12),
    "span-overflows": np.linspace(-1.0, 1.0, 12) * 1e308,
    "one-point": np.full(12, 5.0),
}
FIT_Y = {
    "decay": 0.06 * np.exp(-np.arange(12) / 4.0) + 0.002,
    "1e200": 1e200 * (1.0 + np.exp(-np.arange(12) / 3.0)),
    "pm1e308": np.tile([1e308, -1e308], 6),
    "1e-300": 1e-300 * (1.0 + np.exp(-np.arange(12) / 3.0)),
    "zeros": np.zeros(12),
}
FIT_SIGMA = {"none": None, "one": np.ones(12), "1e-300": np.full(12, 1e-300),
             "1e300": np.full(12, 1e300)}
FIT_MODELS = ["exp_decay", "exp_relax", "gaussian_echo", "damped_sine", "lorentzian",
              "gaussian_sum"]


class TestFitInputs:
    """sigma must be finite and > 0 with a finite reciprocal (exit 2), and
    fit never exits 0 with a non-finite residual norm."""

    @pytest.mark.parametrize("bad", [math.nan, 1e-320, math.inf],
                             ids=["nan", "reciprocal-overflows", "inf"])
    def test_sigma_rejected(self, bad, tmp_path, capsys):
        x = np.linspace(0.0, 300.0, 12)
        sigma = np.full(12, 0.01)
        sigma[5] = bad
        path = series_with(tmp_path, x, 0.06 * np.exp(-x / 127.0) + 0.002, sigma)
        code, cap = fit_quietly(path, "exp_decay", tmp_path, capsys)
        assert code == cli.EXIT_CONFIG, cap
        assert "sigma" in cap.err and "Warning" not in cap.err

    @pytest.mark.parametrize("y", [FIT_Y["1e200"][:6], FIT_Y["pm1e308"][:6]],
                             ids=["1e200", "pm1e308"])
    def test_overflowing_series_fails(self, y, tmp_path, capsys):
        path = series_with(tmp_path, np.arange(6.0), y)
        code, cap = fit_quietly(path, "exp_decay", tmp_path, capsys)
        assert code == cli.EXIT_NUMERIC, cap
        assert "Warning" not in cap.err

    def test_input_table(self, tmp_path, capsys):
        """Every (x, y, sigma) row, each with a seeded draw of the model,
        exits with a code, quietly; a success reports a finite residual
        norm and no NaN."""
        models = np.random.default_rng(31).choice(
            FIT_MODELS, len(FIT_X) * len(FIT_Y) * len(FIT_SIGMA)).tolist()
        rows = [(xk, yk, sk) for xk in FIT_X for yk in FIT_Y for sk in FIT_SIGMA]
        for (xk, yk, sk), model in zip(rows, models):
            case = (xk, yk, sk, model)
            path = series_with(tmp_path, FIT_X[xk], FIT_Y[yk], FIT_SIGMA[sk])
            code, cap = fit_quietly(path, model, tmp_path, capsys)
            assert code in (0, 1, 2, 3), case
            assert "Traceback" not in cap.err and "Warning" not in cap.err, case
            if code == 0:
                norm = re.search(r"residual norm: (\S+)", cap.out).group(1)
                assert math.isfinite(float(norm)) and "nan" not in cap.out, case


class TestHelp:
    @pytest.mark.parametrize("command,flags", [
        ("levels", ["--config", "--out-dir", "--format"]),
        ("readout-optimize", ["--n-min", "--n-max", "--seed"]),
        ("simulate", ["--shots", "--seed", "--config"]),
        ("fit", ["--model", "--components"]),
        ("g2", ["--lags"]),
        ("area-sweep", ["--area-min", "--area-max", "--points",
                        "--flip-slope"]),
        ("calibrate", ["--target-f", "--threshold", "--n-pulses"]),
        ("protocols", ["--shots", "--seed", "--config"]),
    ])
    def test_subcommand_help_documents_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (command, flag)

    def test_model_choices_are_the_fitter_kinds(self, capsys):
        from spinshot.estimators import MODEL_KINDS, model_param_names
        code, cap = run_cli(["fit", "x.csv", "--model", "nope"], capsys)
        assert code == 1
        assert f"(choose from {', '.join(map(repr, MODEL_KINDS))})" in cap.err
        for kind in MODEL_KINDS:
            assert model_param_names(kind)


HAND_RECORDS = ("# photon records: shot_id pulse_index timestamp_us origin\n"
                "# shots=3 pulses=4\n"
                "0 0 0.5 emitter\n"
                "0 0 1.25 dark\n"
                "0 2 20.75 emitter\n"
                "1 1 10.125 emitter\n"
                "1 2 21 dark\n"
                "1 3 30.5 emitter\n"
                "2 0 2.5 emitter\n"
                "2 1 11 emitter\n"
                "2 1 12.25 dark\n")


# frozen before the CSV writers were merged into estimators.write_csv;
# calibration.csv re-frozen when calibration became a bracketed root find
# (its contract is checked in test_readout.TestCalibration); the N = 500
# calibration frozen before calibrate and pulse_area_scan took ReadoutParams;
# area_sweep.csv re-frozen when the readout engine's run-length kernel
# replaced its next-event kernel and per-pulse loop (its n0 and cyclicity
# columns are realized samples); the protocols CSVs at --shots 1000 frozen
# before Bloch vectors became (3, ...) component arrays; the dark=0 cases
# (paper.cfg at dark_rate_hz = 0) frozen before a zero dark rate became the
# one-point dark pmf [1.0].  A key is the CSV name, then any case qualifier.
GOLDEN_SHA256 = {
    "levels.csv":
        "dc4778f16f27dbc87a3ca246b2e5007e0a17b07cb505b5e6427da9a1d200d6cd",
    "fidelity_vs_n.csv":
        "a5790a4f19033ccdce416c2156af43075a9637b59440ae8a6235f3b773fcdfae",
    "fit_params.csv":
        "c339566b2d008785727c4bf2d2dc6ac58b68133fff9793d2637e97ac92747329",
    "calibration.csv":
        "55561a89276781b571431d2a6c508b6dcac8e5291df62ac38f3936bf5876ebea",
    "g2.csv":
        "190932f4fd1b4de01c3698b70158f513599debaddf1b5f787c0c43d6207e7f42",
    "area_sweep.csv":
        "0f6b8fab7e303e1cbf1620152747133d4758c805355848c90dc7bbf9919217c6",
    "calibration.csv N=500":
        "c4c9cbf5dbc00e645dda646beb28b560f91e7bf283e478af7de4d0ccb69ef595",
    "fidelity_vs_n.csv dark=0":
        "b2aeffc07a0725f7e5310c47dda76fb82bed6517f6620557778367ced2f23566",
    "calibration.csv dark=0":
        "97f11eacc1096fde06c1cdd621260b5ff9cfde3bc2c3ae4774436fb82b34d552",
    "calibration.csv N=500 dark=0":
        "fc3d9a81df6596e8a14a5a0033d4ca1fa85ebde422adb2b7cfc120686619b5b0",
    "area_sweep.csv dark=0":
        "88314114e364b63f9b6219e7b39496d8c408586df9d18a63acf990e0fa6f5d50",
    "echo_curve.csv protocols seed=0":
        "1a8a56b9a4742c8ea277de5c651e47317ddb91e2e866e0d90e90f6d57e2a2caf",
    "echo_fit.csv protocols seed=0":
        "83248d40c522bdcb0b137baa0e0778bff86e2d4b3adc13737cc84a28b82cd9d6",
    "odmr_curve.csv protocols seed=0":
        "42b2bab577d5fa4dcf594437af1b07cc104943cc6a1e739ed8f7fad1c60b573a",
    "odmr_fit.csv protocols seed=0":
        "5d7e84a835d5c9c968985ed330211bd80ebc0b229298b8141b5de54b61ac4e21",
    "rabi_curve.csv protocols seed=0":
        "8ad7b24335515862c24294fafb7a78a31c835e5c7124cb903fa0ed12c3d8498b",
    "rabi_fit.csv protocols seed=0":
        "467eaa7b16e514ac7c5afb5550374842f71835a5d24ba1d60038a3fc7f074e5e",
    "t1_curve.csv protocols seed=0":
        "4e3fddee5cede025426f1df194982e040de703aae7b1bfd693424fda8b29de76",
    "t1_fit.csv protocols seed=0":
        "426f5bd649da2871fda19b312eda26c003b7586f7911672ec3dc2175d642db9b",
    "echo_curve.csv protocols seed=3":
        "775ef3da32ce58f0a1185e1843e6bc750e3fa2e4ce8021629cbee8a7ec670f57",
    "echo_fit.csv protocols seed=3":
        "b7f3a911dc1aeee6e0a1c68fcbad68363a555099a589dba065307cfc60f074f6",
    "odmr_curve.csv protocols seed=3":
        "4fcd530930e264b716c2bbce3273cd7e807fe5e84456c6ade14784bbb90bdd4c",
    "odmr_fit.csv protocols seed=3":
        "23a591f39d2c57fe66eeffa80a4285efd7f683c3d0767a768007c6d1858d9e23",
    "rabi_curve.csv protocols seed=3":
        "466368ff67224e370f1cdba0e172c5c1c271d1ddc977099501a7862cc5b63104",
    "rabi_fit.csv protocols seed=3":
        "c315f65aadb71f5cd21b79756d17fd407099f3b6abe4cdd22c690b02e03516bb",
    "t1_curve.csv protocols seed=3":
        "6afb28edb1c2b3cfee0ea07715726e8e7afc8e86a5ea4ea15fabf903185bd0e4",
    "t1_fit.csv protocols seed=3":
        "be63fe9bb6eeda0d2cf38afadad1311a93610fa6a926a80a3f1d12297f1d28e7",
}


class TestGoldenOutputs:
    """sha256 of every CSV written by the commands that draw no random
    numbers, and by area-sweep at its default seed; any change to the CSV
    format or to the numbers shows here."""

    @pytest.mark.parametrize("command,extra,csv_name", [
        ("levels", [], "levels.csv"),
        ("readout-optimize", ["--n-max", "90"], "fidelity_vs_n.csv"),
        ("fit", ["SERIES", "--model", "exp_decay"], "fit_params.csv"),
        ("calibrate", [], "calibration.csv"),
        ("g2", ["RECORDS", "--lags", "2"], "g2.csv"),
        ("area-sweep", ["--points", "5", "--shots", "2000", "--flip-slope", "0.004"],
         "area_sweep.csv"),
        ("calibrate", ["--n-pulses", "500"], "calibration.csv N=500"),
        # DARK0: paper.cfg without dark counts, where the dark pmf is [1.0]
        ("readout-optimize", ["--n-max", "90", "--config", "DARK0"],
         "fidelity_vs_n.csv dark=0"),
        ("calibrate", ["--config", "DARK0"], "calibration.csv dark=0"),
        ("calibrate", ["--n-pulses", "500", "--config", "DARK0"],
         "calibration.csv N=500 dark=0"),
        ("area-sweep", ["--points", "5", "--shots", "2000", "--flip-slope", "0.004",
                        "--config", "DARK0"], "area_sweep.csv dark=0"),
    ])
    def test_csv_sha256(self, command, extra, csv_name, tmp_path, series_file,
                        capsys):
        records = tmp_path / "hand.txt"
        records.write_text(HAND_RECORDS)
        names = {"SERIES": series_file, "RECORDS": str(records),
                 "DARK0": paper_with(tmp_path, "dark_rate_hz", 0)}
        out = str(tmp_path / "o")
        code, _ = run_cli([command, *(names.get(a, a) for a in extra),
                           "--out-dir", out], capsys)
        assert code == 0
        got = {name: hashlib.sha256(data).hexdigest()
               for name, data in tree_bytes(out).items()
               if name.endswith(".csv")}
        assert got == {csv_name.split()[0]: GOLDEN_SHA256[csv_name]}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_protocols_csv_sha256(self, seed, tmp_path, capsys):
        out = str(tmp_path / "o")
        code, _ = run_cli(["protocols", "--shots", "1000", "--seed", str(seed),
                           "--out-dir", out], capsys)
        assert code == 0
        got = {f"{name} protocols seed={seed}": hashlib.sha256(data).hexdigest()
               for name, data in tree_bytes(out).items() if name.endswith(".csv")}
        assert got == {key: digest for key, digest in GOLDEN_SHA256.items()
                       if key.endswith(f" protocols seed={seed}")}
