"""Acceptance gate: headline numbers and statistical contracts, end to end.

One test per criterion.  Each prints a single [PASS]/[FAIL] scoreboard
line directly to the terminal (bypassing capture), so a full run yields
a thirteen-line summary in addition to the usual pytest report.
"""
import contextlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import enumerate_count_distribution
from test_estimators import CASES, evaluate

from spinshot import cli
from spinshot.config import bath_params
from spinshot.estimators import FitError, fit_model, g2_pulsed
from spinshot.montecarlo import (PhotonRecords, run_protocol,
                                 simulate_readout_shots)
from spinshot.physics import (cavity_linewidth, detection_efficiency_budget,
                              effective_lifetime, lorentzian_suppression,
                              purcell_factor)
from spinshot.readout import (ReadoutParams, calibrate_flip_asymmetry,
                              count_distribution, cyclicity,
                              dark_count_penalty, optimize_readout,
                              readout_report)
from spinshot.sequence import duration_report, parse_sequence

READOUT_71 = ("repeat 71 { pulse optical A 0.02us 1pi\n"
              " detect 3us\n wait 6.98us }\n")


@contextlib.contextmanager
def scoreboard(capsys, num, name):
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        with capsys.disabled():
            print(f"[FAIL] criterion {num:02d} {name}: {exc}")
        raise
    line = f"[PASS] criterion {num:02d} {name}"
    if info["detail"]:
        line += f" -- {info['detail']}"
    with capsys.disabled():
        print(line)


def tv_distance(p, q):
    n = max(len(p), len(q))
    a = np.zeros(n)
    b = np.zeros(n)
    a[:len(p)] = p
    b[:len(q)] = q
    return 0.5 * float(np.abs(a - b).sum())


def test_c01_cavity_linewidth(capsys, nominal_cavity):
    with scoreboard(capsys, 1, "cavity linewidth") as info:
        cavity_linewidth(nominal_cavity)          # warm-up
        t0 = time.perf_counter()
        kappa = cavity_linewidth(nominal_cavity)
        dt = time.perf_counter() - t0
        assert kappa == pytest.approx(194954.05 / 82000.0, rel=1e-12)
        assert kappa == pytest.approx(2.3775, abs=5e-5)
        assert abs(kappa - 2.37) <= 0.06          # reference 2.37(6) GHz
        assert dt < 1e-3, f"runtime {dt * 1e3:.3f} ms"
        info["detail"] = f"kappa={kappa:.5f} GHz in {dt * 1e6:.1f} us"


def test_c02_purcell_factor(capsys, nominal_emitter, nominal_cavity):
    with scoreboard(capsys, 2, "Purcell factor round trip") as info:
        fp = purcell_factor(142.0, 0.803)
        assert fp == pytest.approx(176.8, abs=0.05)
        assert abs(fp - 177.0) <= 2.0
        tau = effective_lifetime(nominal_emitter, nominal_cavity, 0.0)
        assert 0.802 <= tau <= 0.804
        info["detail"] = f"F_P={fp:.1f} (177+-2), tau_eff(0)={tau:.5f} us"


def test_c03_detuned_branching_suppression(capsys):
    with scoreboard(capsys, 3, "detuned branching suppression") as info:
        s = lorentzian_suppression(3.6, 2.3775)
        assert 0.08 <= s <= 0.12
        info["detail"] = (f"L(3.6 GHz)={s:.4f} = 1/{1.0 / s:.1f} "
                          "(about tenfold, at about 1.5 linewidths)")


def test_c04_cyclicity(capsys):
    with scoreboard(capsys, 4, "cyclicity band") as info:
        z1 = cyclicity(0.78, 127.0)
        z2 = cyclicity(0.78, 135.0)
        assert z1 == pytest.approx(99.1, abs=0.05)
        assert z2 == pytest.approx(105.3, abs=0.05)
        assert abs(z1 - 103.0) <= 7.0 and abs(z2 - 103.0) <= 7.0
        info["detail"] = f"zeta={z1:.1f} and {z2:.1f}, both in 103+-7"


def test_c05_detection_budget(capsys, nominal_cavity):
    with scoreboard(capsys, 5, "detection-efficiency budget") as info:
        budget = detection_efficiency_budget(nominal_cavity)
        assert budget == pytest.approx(0.40 * 0.50 * 0.78 * 0.80, rel=1e-12)
        assert 0.08 <= budget <= 0.13
        # reference overall efficiency 0.10(2): the chain product sits
        # just above that one-sigma band -- flagged as marginal, not a failure
        assert budget > 0.10 + 0.02
        info["detail"] = (f"budget={budget:.4f} in [0.08, 0.13]; "
                          "reference 0.10(2): above its 1-sigma band (marginal)")


def test_c06_dark_count_penalty(capsys):
    with scoreboard(capsys, 6, "dark-count penalty") as info:
        # ideal dark state (no flips back to bright) isolates the
        # detector contribution the quoted number refers to
        params = ReadoutParams(n_pulses=71, p_excite=0.78, eta_detect=0.10,
                               flip_bright=0.5 / 131, flip_dark=0.0,
                               dark_rate=10.0, gate_window=3.0,
                               pulse_period=10.0)
        penalty = dark_count_penalty(params, threshold=1)
        mu = 10.0 * 3.0e-6 * 71
        assert penalty == pytest.approx(-math.expm1(-mu), abs=1e-15)
        assert penalty == pytest.approx(0.00213, abs=5e-6)
        assert 0.003 / 2 <= penalty <= 0.003 * 2   # factor 2 of 0.3%
        info["detail"] = f"penalty={penalty * 100:.4f}% (reference about 0.3%)"


def test_c07_readout_durations(capsys):
    with scoreboard(capsys, 7, "readout durations") as info:
        program = parse_sequence(READOUT_71)
        rep = duration_report(program)
        assert rep.total_ms == 0.71
        fast = duration_report(program, max_rate=True)
        assert round(fast.total_ms, 2) == 0.22
        assert abs(fast.total_ms - 71 * 3.1e-3) < 1e-12
        info["detail"] = (f"standard {rep.total_ms} ms, "
                          f"max-rate {fast.total_ms:.4f} ms (0.22 at "
                          "2-decimal precision)")


def test_c08_dp_vs_montecarlo(capsys, nominal_params):
    with scoreboard(capsys, 8, "DP vs Monte Carlo at 1e6 shots") as info:
        t0 = time.perf_counter()
        sim = simulate_readout_shots(nominal_params, "bright", shots=10 ** 6,
                                     seed=42, collect_records=False)
        dt = time.perf_counter() - t0
        dp = count_distribution(nominal_params, "bright").probabilities
        tv = tv_distance(sim.histogram.probabilities, dp)
        assert tv < 0.005, f"TV={tv}"
        assert dt < 60.0, f"runtime {dt:.1f} s"
        info["detail"] = f"TV={tv:.5f} (<0.005) in {dt:.1f} s (<60 s)"


def test_c09_brute_force_equivalence(capsys):
    with scoreboard(capsys, 9, "DP vs brute-force enumeration") as info:
        grid_ab = (0.0, 0.05, 0.25, 0.6, 0.95)
        grid_d = (0.05, 0.2, 0.5, 0.8, 1.0)
        checked = 0
        for n in range(1, 9):
            for a in grid_ab:
                for b in grid_ab:
                    for d in grid_d:
                        params = ReadoutParams(
                            n_pulses=n, p_excite=d, eta_detect=1.0,
                            flip_bright=a, flip_dark=b)
                        for initial in ("bright", "dark"):
                            got = count_distribution(params, initial)
                            want = enumerate_count_distribution(
                                n, a, b, d, initial)
                            np.testing.assert_allclose(
                                got.probabilities, want, rtol=0, atol=1e-12)
                            checked += 1
        info["detail"] = f"{checked} (N, a, b, d, initial) cells at 1e-12"


def test_c10_fidelity_reproduction(capsys, nominal_params):
    with scoreboard(capsys, 10, "readout fidelity reproduction") as info:
        # symmetric flips: known model limitation, lands near 0.81
        sym = readout_report(nominal_params, threshold=1)
        assert 0.80 <= sym.f_min <= 0.82
        assert round(sym.f_min, 2) == 0.81

        cal = calibrate_flip_asymmetry(nominal_params, relaxation_constant=131.0,
                                       target_f=0.869, threshold=1)
        assert abs(cal.achieved_f - 0.869) <= 1e-3
        assert cal.a + cal.b == pytest.approx(1.0 / 131.0, rel=1e-9)
        assert cal.asymmetry > 0.5

        tuned = replace(nominal_params, n_pulses=150,
                        flip_bright=cal.a, flip_dark=cal.b)
        opt = optimize_readout(tuned, (1, 150))
        assert 1 < opt.n_star < 150, "optimum must be interior"
        info["detail"] = (
            f"symmetric F(71,1)={sym.f_min:.4f} (model limitation); "
            f"calibrated F={cal.achieved_f:.6f} (target 0.869+-0.001); "
            f"interior optimum N*={opt.n_star} vs reference pulse count 71 "
            "(no hard tolerance)")


def test_c11_fit_recovery_suite(capsys, paper_cfg):
    with scoreboard(capsys, 11, "fit recovery suite") as info:
        worst_rate = 1.0
        for kind, true_params, x, ncomp in CASES:
            y0 = evaluate(kind, true_params, x, ncomp)
            res = fit_model(kind, x, y0, n_components=ncomp)
            for name, want in true_params.items():
                scale = max(abs(want), 1e-9)
                assert abs(res.params[name] - want) / scale < 1e-6, (
                    kind, name)

            hits = 0
            spread = np.ptp(y0)
            for seed in range(200):
                rng = np.random.default_rng(1000 + seed)
                y = y0 + rng.normal(0.0, 0.01 * spread, x.size)
                try:
                    noisy = fit_model(kind, x, y, n_components=ncomp)
                except FitError:
                    continue
                hits += all(
                    abs(noisy.params[n] - true_params[n])
                    <= 3 * noisy.uncertainties[n] + 1e-12
                    for n in true_params)
            rate = hits / 200.0
            assert rate >= 0.95, (kind, rate)
            worst_rate = min(worst_rate, rate)

        bath = bath_params(paper_cfg)
        curve = run_protocol("t1", np.linspace(0.0, 2.2, 24), bath,
                             shots=6000, seed=21)
        t1 = fit_model("exp_decay", curve.x, curve.mean,
                       sigma=np.clip(curve.stderr, 1e-4, None))
        dev_t1 = abs(t1.params["tau"] - 0.44) / t1.uncertainties["tau"]
        assert dev_t1 <= 2.0

        curve = run_protocol("echo", np.linspace(0.0, 120.0, 30), bath,
                             shots=8000, seed=13)
        t2 = fit_model("gaussian_echo", curve.x, curve.mean,
                       sigma=np.clip(curve.stderr, 1e-4, None))
        dev_t2 = abs(t2.params["t2"] - 48.0) / t2.uncertainties["t2"]
        assert dev_t2 <= 2.0

        # zero detuning spread so the oscillation sits at the drive
        # frequency itself; amplitude jitter supplies the decay envelope
        curve = run_protocol("rabi", np.linspace(0.05, 20.0, 120), bath,
                             shots=3000, seed=7,
                             detuning_sigma_khz=0.0, drive_jitter=0.03)
        rabi = fit_model("damped_sine", curve.x, curve.mean,
                         sigma=np.clip(curve.stderr, 1e-4, None))
        dev_f = (abs(rabi.params["frequency"] - 0.2174)
                 / rabi.uncertainties["frequency"])
        assert dev_f <= 2.0

        info["detail"] = (
            f"noiseless 1e-6 ok; worst noisy rate {worst_rate:.3f} "
            f"(>=0.95 of 200); closed loop T1 {dev_t1:.2f} SD, "
            f"T2 {dev_t2:.2f} SD, Rabi {dev_f:.2f} SD (all <=2)")


def test_c12_g2_sanity(capsys):
    with scoreboard(capsys, 12, "pulsed g2 sanity") as info:
        def params(dark):
            return ReadoutParams(n_pulses=71, p_excite=0.78, eta_detect=0.10,
                                 flip_bright=0.5 / 131, flip_dark=0.5 / 131,
                                 dark_rate=dark, gate_window=3.0,
                                 pulse_period=10.0)

        sim = simulate_readout_shots(params(0.0), "bright", shots=4000,
                                     seed=11)
        single = g2_pulsed(sim.records)
        assert single.g2_zero == 0.0

        # Poissonian benchmark: synthetic records, 1e6 pulses; the SE
        # comes from 25 independent shot blocks
        shots, pulses, n_blocks = 20000, 50, 25
        rng = np.random.default_rng(3)
        counts = rng.poisson(0.8, size=shots * pulses)
        flat = np.repeat(np.arange(shots * pulses), counts)
        shot = (flat // pulses).astype(np.int64)
        pulse = (flat % pulses).astype(np.int64)
        ts = pulse * 10.0 + rng.random(counts.sum()) * 3.0
        rec = PhotonRecords(shot, pulse, ts,
                            np.zeros(counts.sum(), np.int8), shots, pulses)
        g_full = g2_pulsed(rec).g2_zero
        per = shots // n_blocks
        blocks = []
        for k in range(n_blocks):
            m = (rec.shot_id >= k * per) & (rec.shot_id < (k + 1) * per)
            sub = PhotonRecords(rec.shot_id[m] - k * per, rec.pulse_index[m],
                                rec.timestamp_us[m], rec.origin_code[m],
                                per, pulses)
            blocks.append(g2_pulsed(sub).g2_zero)
        se = float(np.std(blocks, ddof=1) / math.sqrt(n_blocks))
        assert abs(g_full - 1.0) <= 3 * se, (g_full, se)

        rates = (50.0, 500.0, 5000.0)
        g_dark = []
        for rate in rates:
            sim = simulate_readout_shots(params(rate), "bright",
                                         shots=20000, seed=29)
            g_dark.append(g2_pulsed(sim.records).g2_zero)
        assert g_dark[0] < g_dark[1] < g_dark[2]

        info["detail"] = (
            f"single emitter g2(0)=0 exactly; Poisson {g_full:.4f}+-{se:.4f} "
            f"(within 3 SD of 1); dark rates {rates} Hz give "
            f"{g_dark[0]:.4f} < {g_dark[1]:.4f} < {g_dark[2]:.4f}")


def test_c13_cli_determinism(capsys, tmp_path, monkeypatch):
    with scoreboard(capsys, 13, "CLI determinism") as info:
        seq = tmp_path / "readout.seq"
        seq.write_text(READOUT_71)
        series = tmp_path / "trace.csv"
        x = np.linspace(0.0, 300.0, 60)
        with open(series, "w") as fh:
            fh.write("x,y\n")
            for xi, yi in zip(x, 0.06 * np.exp(-x / 127.0) + 0.002):
                fh.write(f"{xi:.10g},{yi:.10g}\n")
        events = tmp_path / "events.txt"
        src = simulate_readout_shots(
            ReadoutParams(n_pulses=20, p_excite=0.78, eta_detect=0.10,
                          flip_bright=0.5 / 131, flip_dark=0.5 / 131),
            "bright", shots=2000, seed=1)
        src.records.to_file(events)

        matrix = [
            ("levels", []),
            ("readout-optimize", ["--n-max", "90"]),
            ("simulate", [str(seq), "--shots", "400"]),
            ("fit", [str(series), "--model", "exp_decay"]),
            ("g2", [str(events)]),
            ("area-sweep", ["--points", "3", "--shots", "2000"]),
            ("calibrate", []),
            ("protocols", ["--shots", "400"]),
        ]
        for command, extra in matrix:
            trees = []
            for tag, threads in (("r1", "1"), ("r2", "1"), ("t4", "4")):
                monkeypatch.setenv("SPINSHOT_THREADS", threads)
                out = tmp_path / f"{command}-{tag}"
                code = cli.main([command, *extra, "--seed", "3",
                                 "--out-dir", str(out)])
                assert code == 0, command
                tree = {}
                for child in sorted(out.iterdir()):
                    # timestamps live only in the manifest
                    if child.name != "manifest.json":
                        tree[child.name] = child.read_bytes()
                assert tree, command
                trees.append(tree)
            assert trees[0] == trees[1], f"{command}: rerun differs"
            assert trees[0] == trees[2], f"{command}: thread count leaks"
        info["detail"] = ("8 subcommands byte-identical across reruns and "
                          "SPINSHOT_THREADS=1 vs 4")
