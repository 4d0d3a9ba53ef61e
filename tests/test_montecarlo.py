import hashlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (enumerate_count_distribution, protocol_outcome_probabilities,
                     readout_block_three_draw, rotate_rows, run_timeline_per_shot,
                     spin_chain_per_pulse, timeline_segments_per_event,
                     trace_closed_form)
from test_readout import within_seconds
from spinshot import montecarlo
from spinshot import readout as readout_module
from spinshot.cli import PROTOCOLS
from spinshot.config import bath_params, load_config, microwave_settings, readout_params
from spinshot.estimators import fit_model
from spinshot.montecarlo import (BLOCK_SHOTS, MAX_THREADS, TIMELINE_BLOCK_CELLS,
                                 BathParams, PhotonRecords, _decay_pulses, _rotate, _stream,
                                 excitation_probability, pulse_area_scan,
                                 run_protocol, run_timeline,
                                 simulate_readout_shots, worker_count)
from spinshot.physics import InvalidConfigError
from spinshot.readout import (CAPACITY_PULSES, ReadoutParams, _distributions,
                              count_distribution, expected_trace, readout_report)
from spinshot.sequence import DETECT, compile_sequence, parse_sequence


def make_params(n=71, a=0.5 / 131, b=0.5 / 131, p=0.78, eta=0.10, **kw):
    return ReadoutParams(n_pulses=n, p_excite=p, eta_detect=eta,
                         flip_bright=a, flip_dark=b, **kw)


def tv_distance(hist, dist):
    n = max(len(hist), len(dist))
    a = np.zeros(n)
    b = np.zeros(n)
    a[:len(hist)] = hist
    b[:len(dist)] = dist
    return 0.5 * float(np.abs(a - b).sum())


class TestRngStreams:
    def test_reproducible(self):
        a = _stream(7, 3).random(5)
        b = _stream(7, 3).random(5)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = _stream(7, 0).random(100)
        b = _stream(7, 1).random(100)
        c = _stream(8, 0).random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_streams_look_independent(self):
        # coarse independence check: correlation across 200 streams
        draws = np.array([_stream(3, i).random(200) for i in range(50)])
        corr = np.corrcoef(draws)
        off_diag = corr[~np.eye(50, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.35

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SPINSHOT_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("SPINSHOT_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.delenv("SPINSHOT_THREADS")
        assert worker_count() >= 1

    def test_worker_count_auto_is_rated(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 10**6)
        monkeypatch.setenv("SPINSHOT_THREADS", "0")
        assert worker_count() == MAX_THREADS
        monkeypatch.setenv("SPINSHOT_THREADS", str(MAX_THREADS))
        assert worker_count() == MAX_THREADS

    @pytest.mark.parametrize("raw,error", [
        ("-1", "must be >= 0, got -1"),
        (str(MAX_THREADS + 1), f"must be <= {MAX_THREADS}, got {MAX_THREADS + 1}"),
        ("100000", f"must be <= {MAX_THREADS}, got 100000"),
        ("2.5", "must be an integer, got '2.5'"),
        ("many", "must be an integer, got 'many'"),
    ], ids=["negative", "above-max", "huge", "float", "word"])
    def test_worker_count_out_of_range(self, raw, error, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        # the check fires before any pool exists
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setenv("SPINSHOT_THREADS", raw)
        with pytest.raises(InvalidConfigError,
                           match=f"^SPINSHOT_THREADS {re.escape(error)}$"):
            worker_count()
        with pytest.raises(InvalidConfigError, match="^SPINSHOT_THREADS "):
            simulate_readout_shots(make_params(n=5), "bright", shots=2 * BLOCK_SHOTS,
                                   seed=1)


class TestReadoutSimulation:
    def test_tv_convergence_to_dp(self):
        params = make_params(dark_rate=10.0)
        dp = count_distribution(params, "bright").probabilities
        for shots in (10_000, 100_000):
            sim = simulate_readout_shots(params, "bright", shots=shots, seed=11)
            tv = tv_distance(sim.histogram.probabilities, dp)
            assert tv < 3.0 / math.sqrt(shots), (shots, tv)

    def test_dark_initial_state(self):
        params = make_params(n=40)
        dp = count_distribution(params, "dark").probabilities
        sim = simulate_readout_shots(params, "dark", shots=50_000, seed=2)
        assert tv_distance(sim.histogram.probabilities, dp) < 3.0 / math.sqrt(50_000)

    def test_worker_count_independence(self, monkeypatch):
        params = make_params(n=50, dark_rate=10.0)
        results = []
        for workers in ("1", "4"):
            monkeypatch.setenv("SPINSHOT_THREADS", workers)
            results.append(simulate_readout_shots(
                params, "bright", shots=200_000, seed=9))
        a, b = results
        assert np.array_equal(a.histogram.probabilities,
                              b.histogram.probabilities)
        assert np.array_equal(a.per_shot_counts, b.per_shot_counts)
        assert np.array_equal(a.transitions, b.transitions)

    def test_counts_match_records(self):
        params = make_params(n=25, dark_rate=120.0)
        sim = simulate_readout_shots(params, "bright", shots=2500, seed=4)
        hist = np.bincount(sim.per_shot_counts) / 2500
        assert np.array_equal(
            hist, sim.histogram.probabilities[:len(hist)])
        assert sim.histogram.probabilities[len(hist):].sum() == 0
        # the same readout as a pulse sequence: records carry the counts
        tl = compile_sequence(parse_sequence(readout_sequence(25)))
        run = run_timeline(tl, params, shots=2500, seed=4)
        by_shot = np.bincount(run.records.shot_id, minlength=2500)
        assert np.array_equal(np.bincount(by_shot) / 2500,
                              run.histogram.probabilities)

    def test_records_round_trip(self, tmp_path):
        tl = compile_sequence(parse_sequence(readout_sequence(10)))
        run = run_timeline(tl, make_params(n=10, dark_rate=50.0), shots=500,
                           seed=6)
        path = tmp_path / "events.txt"
        run.records.to_file(path)
        back = PhotonRecords.from_file(path)
        assert back.n_shots == 500
        assert back.n_pulses == 10
        assert np.array_equal(back.shot_id, run.records.shot_id)
        assert np.array_equal(back.pulse_index, run.records.pulse_index)
        # file stores 12 significant digits
        assert np.allclose(back.timestamp_us, run.records.timestamp_us,
                           rtol=1e-11, atol=1e-11)
        assert np.array_equal(back.origin_code, run.records.origin_code)

    @pytest.mark.parametrize("row,line,column", [
        ("2 0 1.0 emitter", 4, "shot_id 2"),
        ("-1 0 1.0 emitter", 4, "shot_id -1"),
        ("1 3 1.0 dark", 4, "pulse_index 3"),
        ("0 -2 1.0 dark", 4, "pulse_index -2"),
    ])
    def test_records_outside_header(self, tmp_path, row, line, column):
        path = tmp_path / "events.txt"
        path.write_text(f"# shots=2 pulses=3\n0 0 1.0 emitter\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {column} ")):
            PhotonRecords.from_file(path)

    @pytest.mark.parametrize("row", [
        "0 x 1.0 emitter", "0 1 abc dark", "0 1 1.0 laser", "0 1 1.0"])
    def test_records_malformed_row(self, tmp_path, row):
        path = tmp_path / "events.txt"
        path.write_text(f"# shots=2 pulses=3\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected")):
            PhotonRecords.from_file(path)

    def test_origin_codes(self):
        tl = compile_sequence(parse_sequence(readout_sequence(20)))
        run = run_timeline(tl, make_params(n=20, dark_rate=400.0), shots=2000,
                           seed=8)
        origins = set(np.unique(run.records.origin_code).tolist())
        assert origins == {0, 1}  # emitter and dark counts present

    # sha256 of every array the engine returns, frozen when the run-length
    # kernel replaced the next-event kernel and the per-pulse loop
    # (realized samples changed)
    FROZEN_ARRAYS_SHA256 = ("10d20fd8a0383a462a7cd79b2cbfebe1"
                            "8c1605dffebd9d07c5273ff1ec2fd4aa")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_arrays_frozen(self, threads, monkeypatch):
        monkeypatch.setenv("SPINSHOT_THREADS", threads)
        params = make_params(n=30, eta=0.3, dark_rate=2e4)
        digest = hashlib.sha256()
        for shots in (BLOCK_SHOTS + 7, 5):
            for initial in ("bright", "dark"):
                sim = simulate_readout_shots(params, initial, shots=shots, seed=17)
                for array in (sim.histogram.probabilities,
                              sim.per_shot_counts, sim.transitions):
                    digest.update(f"{array.dtype.str}{array.shape}".encode())
                    digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == self.FROZEN_ARRAYS_SHA256


ENGINE_CASES = {
    "nominal": make_params(dark_rate=10.0),
    "dark-rate-5000Hz": make_params(n=40, eta=0.3, dark_rate=5000.0),
    "a=0": make_params(n=40, a=0.0, b=0.01, eta=0.3, dark_rate=400.0),
    "b=0": make_params(n=40, a=0.02, b=0.0, eta=0.3, dark_rate=400.0),
    "a=1": make_params(n=40, a=1.0, b=0.05, dark_rate=400.0),
    "d=1": make_params(n=40, a=0.02, b=0.01, p=1.0, eta=1.0, dark_rate=400.0),
    "d=0": make_params(n=40, a=0.02, b=0.01, p=0.0, dark_rate=400.0),
    # a bright spin's wait is infinite: it never flips and is never seen
    "a=0,d=0": make_params(n=40, a=0.0, b=0.01, p=0.0, dark_rate=400.0),
    "b=1": make_params(n=40, a=0.02, b=1.0, eta=0.3, dark_rate=400.0),
}


class TestTransitionsOnly:
    """pulse_area_scan reads only the engine's transitions, so it skips
    the count draws; those come after every hold draw, so the
    transitions keep their bits."""

    @pytest.mark.parametrize("name", ["nominal", "a=0", "b=0", "a=1", "d=1", "b=1"])
    @pytest.mark.parametrize("initial", ["bright", "dark"])
    def test_same_transitions_as_full_engine(self, name, initial):
        params = ENGINE_CASES[name]
        for shots in (BLOCK_SHOTS + 7, 5):
            full = simulate_readout_shots(params, initial, shots, seed=17, _key=(3,))
            bare = simulate_readout_shots(params, initial, shots, seed=17, _key=(3,),
                                          _counts=False)
            assert bare.transitions.dtype == full.transitions.dtype
            assert np.array_equal(bare.transitions, full.transitions)
            assert bare.histogram is None and bare.per_shot_counts is None

    def test_area_scan_draws_no_counts(self, monkeypatch):
        calls, engine = [], montecarlo.simulate_readout_shots

        def recording(*args, **kwargs):
            calls.append(kwargs.get("_counts", True))
            return engine(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_readout_shots", recording)
        pulse_area_scan(np.array([0.5, 1.0]), make_params(n=50), 0.01, shots=200, seed=1)
        assert calls == [False, False]


class TestPlanAreas:
    """sin^2 of the area has period 2, so the plan reduces the area mod
    2 first: exactly, so an area below 2 keeps its bits, and a huge one
    cannot overflow (it made NaN, a pulse that never emitted)."""

    AREAS = [0.0, 0.5, 0.7, 1.0, 1.5, 1.9999999999999998,
             2.0, 3.0, 2.5, 1e15 + 1, 1e308]

    def test_area_reduced_mod_2(self):
        text = "".join(f"pulse optical C 0.02us {area!r}pi\n" for area in self.AREAS)
        tl = compile_sequence(parse_sequence(text + "detect 3us\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = montecarlo._plan_timeline(tl, make_params(), 13.5)
        # a C pump flips a bright spin with the area's excitation probability
        p = dict(zip(self.AREAS, plan.keep_below[tl.row[:len(self.AREAS)]].tolist()))
        below_2 = np.array(self.AREAS[:6])
        assert [p[a] for a in self.AREAS[:6]] == \
            (np.sin(below_2 * np.pi / 2.0) ** 2).tolist()
        assert p[2.0] == 0.0 and p[1e308] == 0.0      # even multiples of pi
        assert p[3.0] == p[1e15 + 1] == p[1.0]
        assert p[2.5] == p[0.5]


class TestReadoutEngineVsOracle:
    """The run-length engine against the former three-draw sampler, the
    chain's exact expectations and the exact pmf."""

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("case", list(ENGINE_CASES))
    def test_same_law(self, case, initial):
        params, shots = ENGINE_CASES[case], 20_000
        counts, _, _ = readout_block_three_draw(
            params, initial, shots, _stream(32, 0))
        sim = simulate_readout_shots(params, initial, shots=shots, seed=31)
        assert_same_count_distribution(sim.per_shot_counts, counts)
        assert np.array_equal(np.bincount(sim.per_shot_counts) / shots,
                              sim.histogram.probabilities)

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("a,b", [(0.3, 0.3), (0.0078, 0.5 / 131)],
                             ids=["dense", "sparse"])
    def test_exact_law_at_capacity(self, a, b, initial):
        # N = CAPACITY_PULSES, the longest rated readout, with an ideal
        # detector: dense flips, or sparse flips and dense detections
        params = make_params(n=CAPACITY_PULSES, a=a, b=b, eta=1.0)
        shots = 20_000
        sim = simulate_readout_shots(params, initial, shots=shots, seed=47)
        assert_count_law(sim.per_shot_counts, count_distribution(params, initial))

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("case", list(ENGINE_CASES))
    def test_transition_counts_match_expectations(self, case, initial):
        # E[bright exposures] = shots * sum_k P(bright before pulse k), E[bright
        # flips] = a times that, E[dark flips] = b times the dark exposures;
        # each mean and its SE come from 40 independently keyed runs
        params, runs, shots = ENGINE_CASES[case], 40, 2500
        a, b, n = params.flip_bright, params.flip_dark, params.n_pulses
        cells = np.array([
            simulate_readout_shots(params, initial, shots=shots, seed=41,
                                   _key=(i,)).transitions for i in range(runs)])
        got = np.stack([cells[:, 0].sum(axis=1), cells[:, 0, 1], cells[:, 1, 0]],
                       axis=1)
        bright = shots * trace_closed_form(n, a, b, 1.0, initial).sum()
        want = np.array([bright, a * bright, b * (shots * n - bright)])
        se = got.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(got.mean(axis=0) - want)
                      <= 5.0 * se + 1e-9 * shots * n), (got.mean(axis=0), want, se)

    @pytest.mark.parametrize("case,initial,want", [
        ("a=0,d=0", "bright", [[1, 0], [0, 0]]),
        ("b=0", "dark", [[0, 0], [0, 1]]),
    ])
    def test_infinite_waits(self, case, initial, want):
        # the spin's wait for its next event is infinite: it keeps its state
        # in every cell, and no emitter photon is counted
        params = replace(ENGINE_CASES[case], dark_rate=0.0)
        shots = BLOCK_SHOTS + 100
        sim = simulate_readout_shots(params, initial, shots=shots, seed=6)
        assert np.array_equal(sim.transitions,
                              shots * params.n_pulses * np.array(want))
        assert not sim.per_shot_counts.any()

    @staticmethod
    def assert_deterministic_chain(params, initial, a, b):
        # flip probabilities a, b in {0, 1} and d = 1 fix every shot's path:
        # each cell's state, each flip and each count, with no dark counts
        n, shots = params.n_pulses, BLOCK_SHOTS + 3
        sim = simulate_readout_shots(params, initial, shots=shots, seed=8)
        bright = round(trace_closed_form(n, a, b, 1.0, initial).sum())
        quiet = round((1 - a) * bright)
        want = [[quiet, round(a * bright)], [round(b * (n - bright)), 0]]
        want[1][1] = n - sum(map(sum, want))
        assert np.array_equal(sim.transitions, shots * np.array(want))
        assert np.array_equal(sim.per_shot_counts, np.full(shots, quiet))

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                                     (1.0, 1.0)])
    def test_deterministic_chains(self, a, b, n, initial):
        # holds of 0 or n - at, a path that alternates every pulse, and the
        # exit at pulse N, down to one-pulse readouts
        params = make_params(n=n, a=a, b=b, p=1.0, eta=1.0)
        self.assert_deterministic_chain(params, initial, a, b)

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("a,b", [(5e-324, 1.0), (1.0, 5e-324),
                                     (1.0 - 2.0**-53, 0.0), (0.0, 1.0 - 2.0**-53)])
    def test_flip_probabilities_next_to_0_or_1(self, a, b, initial):
        # the sampled holds: past the float range for the least subnormal
        # (no warning), 0 below the largest double under 1; each chain
        # follows its limit's path
        params = make_params(n=40, a=a, b=b, p=1.0, eta=1.0)
        self.assert_deterministic_chain(params, initial, round(a), round(b))

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("case", list(ENGINE_CASES))
    def test_transition_counts_balance(self, case, initial):
        # exactly: the cells over two blocks number shots x N; every shot's
        # flips out of its initial state lead its flips back by 0 or 1; and
        # without dark counts a shot's counts are at most its bright cells
        # without a flip, all of them where d = 1
        params = replace(ENGINE_CASES[case], dark_rate=0.0)
        n, shots = params.n_pulses, BLOCK_SHOTS + 100
        sim = simulate_readout_shots(params, initial, shots=shots, seed=12)
        t = sim.transitions
        assert np.all(t >= 0) and t.sum() == shots * n
        away, back = (t[0, 1], t[1, 0]) if initial == "bright" else (t[1, 0], t[0, 1])
        assert 0 <= away - back <= shots
        assert sim.per_shot_counts.max() <= n
        total = sim.per_shot_counts.sum()
        assert total == t[0, 0] if params.detection_probability == 1.0 else total <= t[0, 0]


UP = np.array([0.0, 0.0, 1.0])


class TestBloch:
    @given(theta=st.floats(0, math.pi), phi=st.floats(0, 2 * math.pi),
           rabi=st.floats(min_value=10.0, max_value=1000.0),
           det=st.floats(min_value=-500.0, max_value=500.0),
           dur=st.floats(min_value=0.0, max_value=50.0),
           phase=st.floats(0, 2 * math.pi))
    @settings(max_examples=120)
    def test_norm_conserved(self, theta, phi, rabi, det, dur, phase):
        spin = np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), math.cos(theta)])
        out = _rotate(spin, rabi, det, dur, phase)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_resonant_pi_pulse_flips(self):
        out = _rotate(UP, 250.0, 0.0, 2.0)  # 250kHz * 2us
        assert out[2] == pytest.approx(-1.0, abs=1e-9)

    def test_nominal_pi_time(self):
        # 217.4 kHz drive: the pi pulse takes 500/217.4 ~ 2.3 us
        t_pi = 500.0 / 217.4
        assert t_pi == pytest.approx(2.3, abs=0.0005)
        out = _rotate(UP, 217.4, 0.0, t_pi)
        assert out[2] == pytest.approx(-1.0, abs=1e-9)

    def test_two_pi_identity(self):
        spin = np.array([0.6, 0.0, 0.8])
        out = _rotate(spin, 250.0, 0.0, 4.0)
        assert np.max(np.abs(out - spin)) < 1e-9

    def test_detuned_pulse_partial_flip(self):
        # delta = rabi, nominal pi duration: flip prob 0.5*sin^2(pi/sqrt2)
        out = _rotate(UP, 250.0, 250.0, 2.0)
        want_flip = 0.5 * math.sin(math.pi / math.sqrt(2)) ** 2
        assert 0.5 * (1 - out[2]) == pytest.approx(want_flip, abs=1e-9)

    def test_phase_sets_rotation_axis(self):
        half_x = _rotate(UP, 250.0, 0.0, 1.0, 0.0)
        half_y = _rotate(UP, 250.0, 0.0, 1.0, math.pi / 2)
        assert half_x[1] == pytest.approx(-half_y[0], abs=1e-9)
        assert abs(half_x[2]) < 1e-9 and abs(half_y[2]) < 1e-9


def assert_bitwise(got, want):
    """Same shape and the same 64 bits in every element."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def random_rotations(rng, n):
    """n unit spins as rows and per-row (rabi, detuning, duration, phase),
    with rabi = 0, detuning = 0 and both = 0 among them."""
    spins = rng.normal(size=(n, 3))
    spins /= np.linalg.norm(spins, axis=1, keepdims=True)
    rabi = rng.uniform(0.0, 500.0, n)
    detuning = rng.uniform(-2000.0, 2000.0, n)
    rabi[rng.random(n) < 0.2] = 0.0
    detuning[rng.random(n) < 0.2] = 0.0
    return (spins, rabi, detuning, rng.uniform(0.0, 50.0, n),
            rng.uniform(-2 * math.pi, 2 * math.pi, n))


class TestRotateOracle:
    """The component-array rotation against the row-layout one it
    replaced, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_parameters(self, seed):
        spins, *_ = random_rotations(np.random.default_rng(seed), 2000)
        for args in [(217.4, 0.0, 2.3, 0.0), (250.0, -80.0, 1.7, 1.0),
                     (0.0, 300.0, 4.1, 2.0), (0.0, 0.0, 3.0, 0.5)]:
            assert_bitwise(_rotate(spins.T, *args), rotate_rows(spins, *args).T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_vector_parameters(self, seed):
        spins, *params = random_rotations(np.random.default_rng(seed), 20000)
        assert_bitwise(_rotate(spins.T, *params), rotate_rows(spins, *params).T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_spin_against_three_shots(self, seed):
        # a (3,) spin with one parameter per shot at shots == 3: the
        # components, not the shots, run along the first axis
        spins, *params = random_rotations(np.random.default_rng(seed), 3)
        for spin in (spins[0], UP):
            assert_bitwise(_rotate(spin, *params),
                           rotate_rows(np.tile(spin, (3, 1)), *params).T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_runs_by_shots_with_run_columns(self, seed):
        rng = np.random.default_rng(seed)
        runs, shots = 114, 7
        spins, _, detuning, *_ = random_rotations(rng, runs * shots)
        duration, phase = rng.uniform(0.0, 50.0, runs), rng.uniform(-6.0, 6.0, runs)
        got = _rotate(spins.T.reshape(3, runs, shots), 217.4,
                      detuning.reshape(runs, shots), duration[:, None], phase[:, None])
        want = rotate_rows(spins, 217.4, detuning, np.repeat(duration, shots),
                           np.repeat(phase, shots))
        assert_bitwise(got, want.T.reshape(3, runs, shots))


@pytest.fixture(scope="module")
def bath():
    return BathParams()


class TestProtocols:
    def test_unknown_protocol(self, bath):
        with pytest.raises(ValueError):
            run_protocol("ramsey", [0.0], bath)

    def test_drive_must_be_positive(self, bath):
        with pytest.raises(ValueError, match=r"mw_rabi_khz must be finite and "
                           r"in \(0, 1e\+09\], got 0"):
            run_protocol("rabi", [1.0], bath, mw_rabi_khz=0.0)

    @pytest.mark.parametrize("name,value,interval", [
        ("mw_rabi_khz", math.inf, r"\(0, 1e\+09\]"),
        ("mw_rabi_khz", 1.000001e9, r"\(0, 1e\+09\]"),
        ("detuning_sigma_khz", math.nan, r"\[0, 1e\+09\]"),
        ("detuning_sigma_khz", -1.0, r"\[0, 1e\+09\]"),
        ("drive_jitter", math.nan, r"\[0, 1\]"),
        ("drive_jitter", 1.5, r"\[0, 1\]"),
    ])
    def test_drive_arguments_are_checked(self, bath, name, value, interval):
        # a NaN spread or an infinite drive gave a curve of zeros; a NaN
        # jitter was ignored
        with pytest.raises(InvalidConfigError,
                           match=rf"^{name} must be finite and in {interval}, got "):
            run_protocol("rabi", [1.0, 2.0], bath, shots=50, **{name: value})

    def test_drive_closed_ends_are_accepted(self, bath):
        curve = run_protocol("rabi", [1.0], bath, shots=50, mw_rabi_khz=1e9,
                             detuning_sigma_khz=0.0, drive_jitter=1.0)
        assert np.isfinite(curve.mean).all()

    def test_timeline_checks_its_drive(self):
        timeline = compile_sequence(parse_sequence("pulse mw 0MHz 2.3us 0deg\n"))
        with pytest.raises(InvalidConfigError, match=r"^mw_rabi_khz must be finite"):
            run_timeline(timeline, make_params(n=1), shots=2, mw_rabi_khz=math.nan)

    def test_t1_limits(self, bath):
        curve = run_protocol("t1", [0.0, 10.0], bath, shots=20_000, seed=1)
        assert curve.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert curve.mean[1] == pytest.approx(0.5, abs=0.02)

    def test_t1_closed_loop(self, bath):
        waits = np.linspace(0.0, 2.2, 24)
        curve = run_protocol("t1", waits, bath, shots=6000, seed=21)
        res = fit_model("exp_decay", curve.x, curve.mean, sigma=np.clip(
            curve.stderr, 1e-4, None))
        assert abs(res.params["tau"] - 0.44) <= 2 * res.uncertainties["tau"]

    def test_odmr_peaks_at_mixture_centers(self, bath):
        offsets = np.linspace(-6.0, 6.0, 49)
        curve = run_protocol("odmr", offsets, bath, shots=4000, seed=5)
        # central component carries half the weight: strongest response
        assert abs(curve.x[np.argmax(curve.mean)]) <= 0.5
        # side peaks present near +-3.3 MHz
        side = curve.mean[np.abs(np.abs(curve.x) - 3.3) < 0.6]
        floor = curve.mean[np.abs(np.abs(curve.x) - 6.0) < 0.4]
        assert side.mean() > 3 * floor.mean()

    def test_rabi_frequency_recovered(self, bath):
        durations = np.linspace(0.05, 20.0, 120)
        curve = run_protocol("rabi", durations, bath, shots=3000, seed=7)
        res = fit_model("damped_sine", curve.x, curve.mean)
        # 217.4 kHz = 0.2174 cycles/us
        assert res.params["frequency"] == pytest.approx(0.2174, rel=0.02)

    def test_echo_starts_at_unity_and_decays(self, bath):
        times = np.array([0.0, 20.0, 48.0, 100.0])
        curve = run_protocol("echo", times, bath, shots=30_000, seed=9)
        assert curve.mean[0] == pytest.approx(1.0, abs=0.02)
        want = np.exp(-((times / 48.0) ** 2))
        assert np.allclose(curve.mean, want, atol=0.03)

    def test_echo_closed_loop(self, bath):
        times = np.linspace(0.0, 120.0, 30)
        curve = run_protocol("echo", times, bath, shots=8000, seed=13)
        res = fit_model("gaussian_echo", curve.x, curve.mean,
                        sigma=np.clip(curve.stderr, 1e-4, None))
        assert abs(res.params["t2"] - 48.0) <= 2 * res.uncertainties["t2"]

    @pytest.mark.parametrize("protocol,kw,late", [
        ("echo", dict(t2_echo=1e-300), 0.0),
        ("echo", dict(echo_exponent=1e300), 0.0),
        ("t1", dict(t1_spin=1e-320), 0.5)])
    def test_decay_past_float_range_is_silent(self, protocol, kw, late):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = run_protocol(protocol, [0.0, 120.0], BathParams(**kw),
                                 shots=2000, seed=1)
        # t / T is 0 at t = 0 and its decay past the float range at t = 120
        assert curve.mean[0] == pytest.approx(1.0, abs=0.05)
        assert abs(curve.mean[1] - late) <= 5.0 * curve.stderr[1] + 1e-12

    def test_deterministic(self, bath):
        a = run_protocol("rabi", [1.0, 2.0], bath, shots=500, seed=3)
        b = run_protocol("rabi", [1.0, 2.0], bath, shots=500, seed=3)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_curve_csv(self, bath, tmp_path):
        curve = run_protocol("t1", [0.0, 0.5], bath, shots=100, seed=0)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,mean,stderr,shots"
        assert len(lines) == 3


@pytest.fixture(scope="module")
def paper_drive():
    """paper.cfg's bath and drive, as `protocols` runs them."""
    cfg = load_config("paper.cfg")
    mw = microwave_settings(cfg)
    assert mw["drive_jitter"] == 0.0      # the oracle has no jitter
    return bath_params(cfg), mw


def expected_outcomes(name, x, paper_drive, nodes=120):
    bath, mw = paper_drive
    return protocol_outcome_probabilities(name, x, bath, mw["mw_rabi_khz"],
                                          mw["detuning_sigma_khz"], nodes)


class TestProtocolExpectation:
    """Each `protocols` curve at paper.cfg against the exact probability of
    its counted outcome, so the estimator is checked by value, not shape."""

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_quadrature_converged(self, paper_drive, name):
        # ODMR's narrow flip line needs the most nodes: 6.6e-7 at 80
        x = np.linspace(*PROTOCOLS[name][0])
        nodes, twice = (expected_outcomes(name, x, paper_drive, k) for k in (120, 240))
        assert np.abs(nodes - twice).max() <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_curve_matches_expectation(self, paper_drive, name, seed):
        shots = 5000
        x = np.linspace(*PROTOCOLS[name][0])
        p = expected_outcomes(name, x, paper_drive)
        curve = run_protocol(name, x, paper_drive[0], shots=shots, seed=seed,
                             **paper_drive[1])
        expect = p[0] - p[1] if name == "echo" else p[0]
        se = np.sqrt(np.sum(p * (1.0 - p), axis=0) / shots)
        # largest |z| over seeds 0-2 is 3.02 (rabi); t1 at t = 0 has se 0
        assert np.all(np.abs(curve.mean - expect) <= 5.0 * se)
        # the reported variances, pooled over the curve, are the exact ones:
        # 0.981-1.002 at these seeds; a stderr without echo's second row reads 0.5
        assert np.sum(curve.stderr ** 2) / np.sum(se ** 2) == pytest.approx(1.0, abs=0.1)


class TestAreaScan:
    def test_excitation_probability_anchors(self):
        assert excitation_probability(0.0) == 0.0
        assert excitation_probability(1.0) == pytest.approx(1.0)
        assert excitation_probability(0.5) == pytest.approx(0.5)

    def test_scan_recovers_cyclicity(self):
        params = make_params(n=400, eta=0.5, a=1.0 / 150.0, b=0.0)
        scan = pulse_area_scan(np.array([1.0]), params, shots=40_000, seed=1)
        # p_excite = 1 at a pi pulse: zeta tracks the fitted decay pulses
        n0_true = -1.0 / math.log(1.0 - 1.0 / 150.0)
        assert scan.p_excite[0] == pytest.approx(1.0)
        assert scan.zeta[0] == pytest.approx(n0_true, rel=0.05)

    def test_monotone_flip_model_reduces_cyclicity(self):
        params = make_params(n=300, eta=0.4, a=0.002, b=0.002)
        areas = np.array([0.5, 1.0])
        scan = pulse_area_scan(areas, params, 0.02, shots=30_000, seed=5)
        ratio = scan.zeta[1] / scan.zeta[0]
        # excitation doubles but flips rise ~2x: cyclicity gain is capped
        assert scan.zeta[1] == pytest.approx(
            scan.p_excite[1] * scan.n0[1], rel=1e-12)
        assert ratio < 2.0

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("slope,points", [(0.0, 10), (0.004, 20)],
                             ids=["default", "flip-slope-0.004"])
    def test_n0_matches_closed_form(self, paper_cfg, seed, slope, points):
        # the area-sweep command's grid and flip model at its default shots
        params = readout_params(paper_cfg)
        a0, b0 = params.flip_bright, params.flip_dark
        areas = np.linspace(0.1, 1.0, points)
        scan = pulse_area_scan(areas, params, slope, shots=20000, seed=seed)
        exact = -1.0 / np.log1p(-(a0 + slope * areas + b0))
        assert np.all(np.isfinite(scan.n0)) and np.all(scan.n0_se > 0)
        assert np.all(np.abs(scan.n0 - exact) <= 5.0 * scan.n0_se), \
            (scan.n0 - exact) / scan.n0_se
        assert np.array_equal(scan.zeta, scan.p_excite * scan.n0)

    def test_no_flips_give_nan_without_warning(self):
        params = make_params(n=50, a=0.0, b=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = pulse_area_scan(np.array([1.0]), params, shots=500, seed=1)
        assert math.isnan(scan.n0[0]) and math.isnan(scan.n0_se[0])
        assert math.isnan(scan.zeta[0])

    def test_zero_area_gives_nan_cyclicity(self):
        params = make_params(n=71, a=0.01, b=0.01)
        scan = pulse_area_scan(np.array([0.0]), params, shots=5000, seed=2)
        assert scan.p_excite[0] == 0.0
        assert math.isfinite(scan.n0[0])
        assert math.isnan(scan.zeta[0])

    def test_no_dark_flips_stay_finite(self):
        a = 0.01
        scan = pulse_area_scan(np.array([1.0]), make_params(n=71, a=a, b=0.0),
                               shots=20000, seed=4)
        exact = -1.0 / math.log1p(-a)
        assert math.isfinite(scan.n0[0]) and math.isfinite(scan.zeta[0])
        assert abs(scan.n0[0] - exact) <= 5.0 * scan.n0_se[0]

    def test_decay_pulses_closed_form(self):
        # a = 10/100, b = 5/100
        n0, se = _decay_pulses(np.array([[90, 10], [5, 95]]))
        assert n0 == pytest.approx(-1.0 / math.log1p(-0.15), rel=1e-12)
        var = 0.1 * 0.9 / 100 + 0.05 * 0.95 / 100
        assert se == pytest.approx(n0 ** 2 / 0.85 * math.sqrt(var), rel=1e-12)
        for counts in ([[5, 0], [0, 0]], [[0, 5], [5, 0]], [[0, 0], [0, 5]]):
            assert all(map(math.isnan, _decay_pulses(np.array(counts))))

    @pytest.mark.parametrize("a,want", [
        (0.0, [[5, 0], [0, 0]]),     # never leaves the bright state
        (1.0, [[0, 3], [2, 0]]),     # flips on every pulse
    ])
    def test_transition_counts_exact(self, a, want):
        # more shots than one block: the counts are summed over blocks
        shots = 65536 + 100
        params = make_params(n=5, a=a, b=a)
        sim = simulate_readout_shots(params, "bright", shots=shots, seed=6)
        assert np.array_equal(sim.transitions, shots * np.array(want))

    @staticmethod
    def sweep_points(params, areas, slope):
        """area-sweep's ReadoutParams at each area."""
        return [replace(params, p_excite=excitation_probability(area),
                        flip_bright=min(params.flip_bright + slope * area, 1.0))
                for area in areas]

    def test_batched_dp_keeps_each_points_bits(self, paper_cfg):
        # from p = 0 at area 0 to a capped at 1, each with its own d
        params = readout_params(paper_cfg)
        points = self.sweep_points(params, np.linspace(0.0, 2.0, 9), 0.6)
        assert points[0].p_excite == 0.0 and points[-1].flip_bright == 1.0
        batch = _distributions(params, [pt.flip_bright for pt in points],
                               [params.flip_dark] * len(points),
                               d=[pt.detection_probability for pt in points])
        for point, arms in zip(points, batch):
            [single] = _distributions(point, [point.flip_bright], [point.flip_dark])
            for got, want in zip(arms, single):
                assert got.initial_state == want.initial_state
                assert np.array_equal(got.probabilities, want.probabilities)

    def test_exact_columns_from_one_dp_pass(self, paper_cfg, monkeypatch):
        params = readout_params(paper_cfg)
        areas = np.linspace(0.0, 2.0, 9)
        reports = [readout_report(point)
                   for point in self.sweep_points(params, areas, 0.6)]
        passes = []
        chain = readout_module._chain

        def counting(*args):
            passes.append(args)
            return chain(*args)

        monkeypatch.setattr(readout_module, "_chain", counting)
        scan = pulse_area_scan(areas, params, 0.6, shots=200, seed=1)
        assert len(passes) == 1
        assert scan.threshold.tolist() == [r.threshold for r in reports]
        assert [x.hex() for x in scan.f_min.tolist()] == \
            [r.f_min.hex() for r in reports]

    def test_empty_grid(self):
        scan = pulse_area_scan(np.array([]), make_params(n=20), shots=10, seed=0)
        for column in (scan.area, scan.p_excite, scan.n0, scan.n0_se,
                       scan.zeta, scan.f_min, scan.threshold):
            assert column.shape == (0,)

    def test_csv(self, tmp_path):
        params = make_params(n=50, a=0.004, b=0.004)
        scan = pulse_area_scan(np.array([0.5, 1.0]), params, shots=2000, seed=0)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        head = path.read_text().splitlines()[0]
        assert head == "area,p_excite,n0,cyclicity,threshold,f_min"


def readout_sequence(n):
    """The README readout sequence with n pulse-and-gate cycles."""
    return (f"repeat {n} {{ pulse optical A 0.02us 1pi\n"
            " detect 3us\n wait 6.98us }")


READOUT_SEQ = readout_sequence(40)


def capture_everything(seq, params, shots, seed):
    """A timeline run whose gates see every emission and no dark count."""
    return run_timeline(compile_sequence(parse_sequence(seq)),
                        replace(params, dark_rate=0.0), shots=shots, seed=seed,
                        emission_lifetime_us=0.01, spectral_diffusion_fwhm_mhz=0.0)


def per_gate_mean(run):
    """Mean detections per shot in each gate of a timeline run."""
    return (np.bincount(run.records.pulse_index, minlength=run.gate_count)
            / run.records.n_shots)


class TestTimeline:
    def test_rejects_nonpositive_shots(self):
        tl = compile_sequence(parse_sequence(READOUT_SEQ))
        for shots in (0, -3):
            with pytest.raises(ValueError, match="shots"):
                run_timeline(tl, make_params(n=40), shots=shots)

    def test_gate_one_to_one(self):
        tl = compile_sequence(parse_sequence(READOUT_SEQ))
        params = make_params(n=40)
        run = run_timeline(tl, params, shots=200, seed=0)
        assert run.gate_count == np.count_nonzero(tl.table.kind[tl.row] == DETECT) == 40
        assert per_gate_mean(run).shape == (40,)

    def test_matches_dp_when_gates_capture_everything(self):
        # a short emission lifetime makes gate losses negligible, so the
        # timeline executor must reproduce the pulse-counting chain
        tl = compile_sequence(parse_sequence(READOUT_SEQ))
        params = make_params(n=40)
        run = run_timeline(tl, params, shots=60_000, seed=4,
                           emission_lifetime_us=0.01,
                           spectral_diffusion_fwhm_mhz=0.0)
        dp = count_distribution(params, "bright").probabilities
        assert tv_distance(run.histogram.probabilities, dp) < 3.0 / math.sqrt(60_000)

    @pytest.mark.parametrize("initial", ["bright", "dark"])
    @pytest.mark.parametrize("params", [
        make_params(), make_params(n=30, a=0.2, b=0.1, p=1.0, eta=0.5)],
        ids=["nominal", "a=0.2"])
    def test_trace_is_one_minus_a_times_expected_trace(self, params, initial):
        # gates capture every emission and count no dark photon, so the
        # per-gate mean is the chain's detection probability in that pulse;
        # a C pump before the readout leaves the spin dark
        shots = 50_000
        pump = "pulse optical C 1us 1pi\n" if initial == "dark" else ""
        run = capture_everything(pump + readout_sequence(params.n_pulses),
                                 params, shots, seed=14)
        want = (1.0 - params.flip_bright) * expected_trace(params, initial)
        se = np.sqrt(want * (1.0 - want) / shots)
        assert np.all(np.abs(per_gate_mean(run) - want) <= 5.0 * se + 1e-12)

    def test_trace_is_mean_detections_per_pulse(self):
        # no dark counts: every count is a detection in one of the gates;
        # the per-gate means are floats, so the sum agrees to rounding
        shots = 30_000
        params = make_params(n=15)
        run = capture_everything(readout_sequence(15), params, shots, seed=12)
        total = len(run.records.shot_id)
        assert per_gate_mean(run).sum() * shots == pytest.approx(total, rel=1e-12)
        assert run.histogram.mean() * shots == pytest.approx(total, rel=1e-12)

    def test_mw_pi_pulse_darkens_readout(self):
        seq = ("pulse mw 0MHz 2.3us 0deg\n" + READOUT_SEQ)
        tl = compile_sequence(parse_sequence(seq))
        params = make_params(n=40)
        flipped = run_timeline(tl, params, shots=20_000, seed=6,
                               mw_rabi_khz=500.0 / 2.3)
        plain = run_timeline(
            compile_sequence(parse_sequence(READOUT_SEQ)),
            params, shots=20_000, seed=6, mw_rabi_khz=500.0 / 2.3)
        assert flipped.histogram.mean() < 0.2 * plain.histogram.mean()
        dp_dark = count_distribution(params, "dark").probabilities
        # flipped shots should look like dark-initialized readout
        assert tv_distance(flipped.histogram.probabilities, dp_dark) < 0.05

    def test_pump_c_empties_bright_state(self):
        seq = ("pulse optical C 1us 1pi\n" + READOUT_SEQ)
        tl = compile_sequence(parse_sequence(seq))
        params = make_params(n=40)
        pumped = run_timeline(tl, params, shots=10_000, seed=7)
        plain = run_timeline(
            compile_sequence(parse_sequence(READOUT_SEQ)),
            params, shots=10_000, seed=7)
        assert pumped.histogram.mean() < 0.2 * plain.histogram.mean()

    def test_detuned_pulse_at_half_width_halves_mean(self):
        # a literal offset of FWHM/2 weights the excitation by exactly 1/2,
        # and the mean count is linear in that weight
        seq = READOUT_SEQ.replace("optical A", "optical 6.75MHz")
        tl = compile_sequence(parse_sequence(seq))
        params = make_params(n=40)
        shots = 3000
        run = run_timeline(tl, params, shots=shots, seed=11,
                           emission_lifetime_us=0.01,
                           spectral_diffusion_fwhm_mhz=13.5)
        dp = count_distribution(replace(params, p_excite=0.5 * params.p_excite),
                                "bright")
        k = np.arange(len(dp.probabilities))
        sd = math.sqrt(float(dp.probabilities @ k**2) - dp.mean() ** 2)
        assert abs(run.histogram.mean() - dp.mean()) < 5.0 * sd / math.sqrt(shots)

    def test_detuned_pulse_without_linewidth_emits_nothing(self):
        seq = READOUT_SEQ.replace("optical A", "optical 6.75MHz")
        tl = compile_sequence(parse_sequence(seq))
        run = run_timeline(tl, make_params(n=40), shots=300, seed=12,
                           spectral_diffusion_fwhm_mhz=0.0)
        assert run.histogram.mean() == 0.0
        assert len(run.records) == 0

    def test_dark_count_gates_uniform(self):
        # 20 gates, about 0.06 dark counts per gate and shot, drawn as one
        # Poisson count per (shot, gate)
        tl = compile_sequence(parse_sequence(readout_sequence(20)))
        params = make_params(n=20, p=0.0, dark_rate=20_000.0)
        run = run_timeline(tl, params, shots=5000, seed=13)
        gates = run.records.pulse_index[run.records.origin_code == 1]
        assert gates.size == len(run.records) > 5000
        observed = np.bincount(gates, minlength=20)
        expected = gates.size / 20
        chi2 = float(((observed - expected) ** 2).sum() / expected)
        # chi-square with 19 degrees of freedom: mean 19, SD sqrt(38)
        assert chi2 <= 19 + 5.0 * math.sqrt(38.0), observed

    def test_timestamps_inside_gates(self):
        tl = compile_sequence(parse_sequence(READOUT_SEQ))
        params = make_params(n=40, dark_rate=200.0)
        run = run_timeline(tl, params, shots=2000, seed=9)
        gate = tl.table.kind[tl.row] == DETECT
        starts = tl.start_us[gate]
        ends = starts + tl.table.duration_us[tl.row[gate]]
        t = run.records.timestamp_us
        inside = (t[:, None] >= starts[None, :] - 1e-9) & \
                 (t[:, None] <= ends[None, :] + 1e-9)
        assert np.all(inside.any(axis=1))


def assert_same_count_distribution(a, b):
    """Two samples of per-shot counts from one law: means within 5 SE, and
    total variation within the mean plus 5 SD of its null distribution
    (normal approximation per count bin, pooled frequencies)."""
    a, b = np.asarray(a), np.asarray(b)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= 5.0 * se
    size = int(max(a.max(), b.max())) + 1
    pa = np.bincount(a, minlength=size) / a.size
    pb = np.bincount(b, minlength=size) / b.size
    pooled = (pa * a.size + pb * b.size) / (a.size + b.size)
    sd = np.sqrt(pooled * (1.0 - pooled) * (1.0 / a.size + 1.0 / b.size))
    assert 0.5 * np.abs(pa - pb).sum() <= tv_bound(sd)


def tv_bound(sd):
    """Mean plus 5 SD of the total variation 0.5 sum |X_k| for independent
    normal bin errors X_k of standard deviations ``sd``."""
    return 0.5 * (math.sqrt(2.0 / math.pi) * sd.sum()
                  + 5.0 * math.sqrt((1.0 - 2.0 / math.pi) * (sd ** 2).sum()))


def assert_count_law(counts, dist):
    """One sample of per-shot counts against the exact pmf: the mean within
    5 SE, and total variation within the one-sample analogue of
    :func:`assert_same_count_distribution`'s bound."""
    counts, p = np.asarray(counts), dist.probabilities
    k = np.arange(p.size)
    sd_count = math.sqrt(float(p @ k**2) - dist.mean() ** 2)
    assert abs(counts.mean() - dist.mean()) <= 5.0 * sd_count / math.sqrt(counts.size)
    assert counts.max() < p.size
    got = np.bincount(counts, minlength=p.size) / counts.size
    assert 0.5 * np.abs(got - p).sum() <= tv_bound(np.sqrt(p * (1.0 - p) / counts.size))


def run_totals(run):
    return np.bincount(run.records.shot_id, minlength=run.records.n_shots)


NARROW_BATH = BathParams(odmr_centers=(-0.1, 0.0, 0.1), odmr_sigma=0.05)
MW_RUN_OF_TWO = ("pulse mw 0MHz 1.15us 0deg\n wait 1us\n"
                 " pulse mw 0MHz 1.15us 0deg\n")
PUMPS = ("pulse mw 0MHz 1.15us 0deg\n pulse optical C 1us 0.5pi\n"
         " pulse mw 0MHz 0.6us 45deg\n pulse optical D 1us 0.7pi\n")
GATE_EDGE = ("repeat 30 { detect 1us\n pulse optical A 0us 1pi\n"
             " detect 0.5us\n wait 0.2us }")


# the per-shot reference cases, each also run in segments of at most 48
# cells: one shot per block, so at 1500 shots, as each block costs more
_REFERENCE_CASES = {
    # README readout: MW after the last optical pulse is idle
    "readme": dict(seq=READOUT_SEQ + "\npulse mw 3598.43MHz 2.3us 0deg",
                   bath=BathParams(), ref_shots=1500),
    # two MW pulses in one run, pi/2 each, about a pi in total
    "mw-run-of-two": dict(seq=MW_RUN_OF_TWO + READOUT_SEQ, bath=NARROW_BATH,
                          ref_shots=1500),
    "c-d-pumps": dict(seq=PUMPS + READOUT_SEQ, bath=None, ref_shots=1500),
    "literal-detuning": dict(
        seq=READOUT_SEQ.replace("optical A", "optical 6.75MHz")
        + "\npulse optical -20MHz 0.02us 1pi\n detect 3us",
        bath=None, ref_shots=1500),
    "zero-length-pulse-at-gate-edge": dict(seq=GATE_EDGE, bath=None,
                                           ref_shots=2000, lifetime=0.5),
    "zero-lifetime-at-gate-edge": dict(seq=GATE_EDGE, bath=None, ref_shots=2000,
                                       lifetime=0.0),
}
REFERENCE_CASES = (
    [pytest.param(case, id=name) for name, case in _REFERENCE_CASES.items()]
    + [pytest.param(dict(case, cells=48, shots=1500), id=f"{name}-in-segments")
       for name, case in _REFERENCE_CASES.items()])
CERTAIN_ROUNDS = ("repeat 3 {\n pulse optical A 0.02us 1pi\n detect 1us\n"
                  " pulse mw 0MHz 1.15us 0deg\n detect 1us\n"
                  " pulse mw 0MHz 1.15us 0deg\n"
                  " pulse optical A 0.02us 1pi\n detect 1us\n"
                  " pulse optical D 1us 1pi\n pulse optical A 0.02us 1pi\n detect 1us\n"
                  " pulse optical C 1us 1pi\n pulse optical A 0.02us 1pi\n detect 1us\n"
                  " pulse optical D 1us 1pi\n wait 1us }\n")


class TestSpinChain:
    """The executor's one scan over each optical pulse's map against the
    maps applied one pulse at a time."""

    @pytest.mark.parametrize("pulses,shots", [(0, 5), (1, 1), (60, 1), (40, 300),
                                              (2000, 3)])
    @pytest.mark.parametrize("weights", [
        (0.25, 0.25, 0.25, 0.25),
        (0.01, 0.5, 0.48, 0.01),   # long runs of negations between settings
        (0.0, 0.5, 0.5, 0.0),      # nothing sets: the carried state decides
    ], ids=["uniform", "rare-settings", "no-settings"])
    def test_matches_per_pulse_loop(self, pulses, shots, weights):
        rng = np.random.default_rng([pulses, shots])
        codes = rng.choice(4, size=(pulses, shots), p=weights).astype(np.int8)
        state = rng.integers(0, 2, shots).astype(np.int8)
        chain = montecarlo._spin_chain(codes, state)
        assert np.array_equal(chain, spin_chain_per_pulse(codes, state))


# statements of the plan's random programs, zero lengths among them
PLAN_STATEMENTS = [f"pulse mw 0MHz {d}us 0deg" for d in (0, 1)] + [
    f"pulse optical A {d}us 1pi" for d in (0, 0.02)] + [
    f"detect {d}us" for d in (0, 3)] + ["wait 0us", "wait 1us"]


class TestPlanSegments:
    """The plan's segments, slices of its event positions, against a walk
    over the events one at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PLAN_STATEMENTS), max_size=40),
           st.sampled_from([1, 2, 3, 5, 48, TIMELINE_BLOCK_CELLS]))
    @example([], 1)
    @example(["pulse mw 0MHz 1us 0deg", "detect 3us", "wait 1us"] * 3, 2)   # no optical
    @example(["pulse mw 0MHz 1us 0deg", "pulse optical A 0.02us 1pi"] * 4, 3)   # no gate
    # an MW run that crosses two cuts, then MW pulses after the last optical pulse
    @example(["pulse optical A 0.02us 1pi", "pulse mw 0MHz 1us 0deg", "detect 3us",
              "pulse mw 0MHz 0us 0deg", "detect 0us", "pulse mw 0MHz 1us 0deg",
              "pulse optical A 0us 1pi", "pulse mw 0MHz 1us 0deg"], 1)
    def test_matches_per_event_walk(self, statements, cells):
        tl = compile_sequence(parse_sequence("\n".join(statements)))
        segments, precedes = timeline_segments_per_event(tl, cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS", cells)
            plan = montecarlo._plan_timeline(tl, make_params(), 13.5)
        n_cells = sum(len(opt) + len(gate) for opt, gate in segments)
        budget = cells // plan.block_shots
        # the parent's cut rule, just after every budget-th cell but the last
        assert len(plan.opt_bounds) - 1 == max(1, -(-n_cells // budget))
        assert len(plan.gate_bounds) == len(plan.opt_bounds) == len(segments) + 1
        bounds = (plan.opt_bounds, plan.gate_bounds, plan.mw_bounds)
        for i, (opt, gate) in enumerate(segments):
            # a segment's MW pulses are those before its optical pulses, so
            # one after the last optical pulse is in none
            mw = sorted(mw for mw, then in precedes.items() if then in opt)
            for events, at, want in zip((plan.opt, plan.gate, plan.mw), bounds,
                                        (opt, gate, mw)):
                assert events[at[i]:at[i + 1]].tolist() == want, i
        assert plan.opt.dtype == plan.gate.dtype == plan.mw.dtype == np.int32


class TestTimelineExecutor:
    """The block executor against the per-shot reference executor."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_per_shot_reference(self, case, monkeypatch):
        monkeypatch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS",
                            case.get("cells", TIMELINE_BLOCK_CELLS))
        tl = compile_sequence(parse_sequence(case["seq"]))
        params = make_params(n=40, eta=0.3, dark_rate=2000.0)
        kw = dict(emission_lifetime_us=case.get("lifetime", 0.803),
                  mw_rabi_khz=500.0 / 2.3, spectral_diffusion_fwhm_mhz=13.5)
        shots = case.get("shots", 20_000)
        run = run_timeline(tl, params, case["bath"], shots=shots, seed=21, **kw)
        ref_totals, ref_counts, _ = run_timeline_per_shot(
            tl, params, case["bath"], shots=case["ref_shots"], seed=22, **kw)
        totals = run_totals(run)
        assert_same_count_distribution(totals, ref_totals)
        assert np.array_equal(np.bincount(totals) / shots,
                              run.histogram.probabilities)
        mean = per_gate_mean(run)
        se = np.sqrt(mean / shots
                     + ref_counts.var(axis=0, ddof=1) / case["ref_shots"])
        assert np.all(np.abs(mean - ref_counts.mean(axis=0))
                      <= 5.0 * se + 1e-12)

    @pytest.mark.parametrize("cells", [1, 2, 3, 5, 7, TIMELINE_BLOCK_CELLS])
    def test_segments_carry_state_and_mw_runs(self, cells, monkeypatch):
        # every draw is certain: two pi/2 pulses with a gate between them
        # darken the spin, C and D pump it, a readout pulse emits at its end
        # when bright, and each gate sees exactly that; cuts after every
        # cell split the MW run and the pumps across segments
        monkeypatch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS", cells)
        tl = compile_sequence(parse_sequence(CERTAIN_ROUNDS))
        params = make_params(n=1, a=0.0, b=0.0, p=1.0, eta=1.0)
        run = run_timeline(tl, params, shots=50, seed=3, emission_lifetime_us=0.0,
                           mw_rabi_khz=500.0 / 2.3)
        counts = np.zeros((50, run.gate_count), dtype=np.int64)
        np.add.at(counts, (run.records.shot_id, run.records.pulse_index), 1)
        assert np.array_equal(counts, np.tile([1, 0, 0, 1, 0], (50, 3)))

    def test_dark_counts_stay_in_their_segments_gates(self, monkeypatch):
        # zero-length gates never count; one segment per gate, and only the
        # last gate, about 10 dark counts a shot, may hold records
        monkeypatch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS", 1)
        tl = compile_sequence(parse_sequence("repeat 5 { detect 0us }\ndetect 100us"))
        run = run_timeline(tl, make_params(n=1, p=0.0, dark_rate=1e5), shots=20,
                           seed=1)
        assert len(run.records) > 100
        assert np.all(run.records.pulse_index == 5)

    def test_partial_last_block(self):
        seq = "repeat 5 { pulse optical A 0.02us 1pi\n detect 3us\n wait 1us }"
        tl = compile_sequence(parse_sequence(seq))
        per_block = TIMELINE_BLOCK_CELLS // 10
        shots = 2 * per_block + per_block // 3
        params = make_params(n=5, eta=0.5, dark_rate=5000.0)
        run = run_timeline(tl, params, shots=shots, seed=3)
        ref_totals, _, _ = run_timeline_per_shot(tl, params, shots=shots, seed=4)
        totals = run_totals(run)
        assert totals.size == shots
        # shots of the last, partial block are simulated like the others
        assert totals[2 * per_block:].mean() > 0
        assert_same_count_distribution(totals, ref_totals)
        assert_same_count_distribution(totals[2 * per_block:], ref_totals)

    def test_thread_count_gives_identical_records(self, monkeypatch):
        tl = compile_sequence(parse_sequence(PUMPS + READOUT_SEQ))
        params = make_params(n=40, dark_rate=500.0)
        # several blocks of many shots, then one shot a block in segments
        for cells, shots in ((TIMELINE_BLOCK_CELLS, 3000), (48, 300)):
            monkeypatch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS", cells)
            assert shots > max(1, cells // (42 + 40))
            runs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("SPINSHOT_THREADS", threads)
                runs.append(run_timeline(tl, params, BathParams(), shots=shots,
                                         seed=5))
            a, b = (r.records for r in runs)
            for column in ("shot_id", "pulse_index", "timestamp_us", "origin_code"):
                assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
            assert np.array_equal(runs[0].histogram.probabilities,
                                  runs[1].histogram.probabilities)

    # (sequence, pulses, shots, seed, block budget in cells, sha256 of
    # run_timeline's record columns and histogram).  The first two were
    # frozen before the executor ran in segments, so a shot that fits one
    # block still draws the same; the third, with MW runs before optical
    # pulses, C/D pumps and five segments a shot, before the spin chain
    # became one linear scan
    FROZEN_RECORDS = {
        "readme": (readout_sequence(71) + "\npulse mw 3598.43MHz 2.3us 0deg",
                   71, 4000, 1, TIMELINE_BLOCK_CELLS,
                   "af34fa75b5d3c75e785e04d222f5ecd3"
                   "278008817d4e4a0749ac17a8d288838f"),
        "c-d-pumps": (PUMPS + READOUT_SEQ, 40, 3000, 5, TIMELINE_BLOCK_CELLS,
                      "1009c5019bd494b468e77ff0dc18cc8e"
                      "2f20c8af1769728e648483aa5ecce7ee"),
        "mw-pumps-in-segments": (
            MW_RUN_OF_TWO + PUMPS
            + "repeat 6 { pulse mw 0MHz 0.6us 90deg\n pulse optical A 0.02us 1pi\n"
              " detect 3us\n wait 1us }\n" + READOUT_SEQ,
            46, 300, 11, 20,
            "553bdb5a46e14d964848c8a25d10842d"
            "0cf159d3c34f9490013bb8a5db024a5c"),
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", FROZEN_RECORDS)
    def test_records_frozen(self, name, threads, monkeypatch):
        monkeypatch.setenv("SPINSHOT_THREADS", threads)
        seq, n, shots, seed, cells, want = self.FROZEN_RECORDS[name]
        monkeypatch.setattr(montecarlo, "TIMELINE_BLOCK_CELLS", cells)
        run = run_timeline(compile_sequence(parse_sequence(seq)),
                           make_params(n=n, dark_rate=500.0), BathParams(),
                           shots=shots, seed=seed)
        digest = hashlib.sha256()
        rec = run.records
        for array in (rec.shot_id, rec.pulse_index, rec.timestamp_us,
                      rec.origin_code, run.histogram.probabilities):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == want

    def test_records_match_totals(self):
        tl = compile_sequence(parse_sequence(GATE_EDGE))
        run = run_timeline(tl, make_params(n=30, dark_rate=3000.0), shots=500,
                           seed=2, emission_lifetime_us=0.5)
        rec = run.records
        totals = np.bincount(rec.shot_id, minlength=500)
        assert np.array_equal(np.bincount(totals) / 500,
                              run.histogram.probabilities)
        assert np.all(np.diff(rec.shot_id) >= 0)
        same_shot = np.diff(rec.shot_id) == 0
        assert np.all(np.diff(rec.timestamp_us)[same_shot] >= 0)

    def test_no_gates(self):
        tl = compile_sequence(parse_sequence("pulse optical A 0.02us 1pi"))
        run = run_timeline(tl, make_params(n=1), shots=10, seed=0)
        assert run.gate_count == 0
        assert run.histogram.probabilities.tolist() == [1.0]
        assert len(run.records) == 0 and per_gate_mean(run).shape == (0,)

    def test_long_sequence_runs_in_bounded_time(self):
        rounds = ("repeat 1000 {\n pulse mw 0MHz 2.3us 0deg\n"
                  " pulse optical D 0.02us 1pi\n repeat 71 {\n"
                  "  pulse optical A 0.02us 1pi\n detect 3us\n wait 6.98us\n }\n}\n")

        def compile_and_run():
            tl = compile_sequence(parse_sequence(rounds))
            return tl, run_timeline(tl, make_params(n=71), BathParams(),
                                    shots=2, seed=1)

        tl, run = within_seconds(30.0, compile_and_run)
        assert len(tl.start_us) == 215_000
        assert run.gate_count == 71_000


class TestRecordsFile:
    def test_bytes_match_line_by_line_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 500
        records = PhotonRecords(
            np.sort(rng.integers(0, 40, n)), rng.integers(0, 71, n),
            np.concatenate([rng.random(n - 3) * 700.0, [0.0, 1e-300, 123456.789]]),
            rng.integers(0, 2, n).astype(np.int8), 40, 71)
        path = tmp_path / "events.txt"
        records.to_file(path)
        lines = ["# photon records: shot_id pulse_index timestamp_us origin\n",
                 "# shots=40 pulses=71\n"]
        for s, p, t, o in zip(records.shot_id, records.pulse_index,
                              records.timestamp_us, records.origin):
            lines.append(f"{s} {p} {t:.12g} {o}\n")
        assert path.read_bytes() == "".join(lines).encode("utf-8")
        back = PhotonRecords.from_file(path)
        assert np.array_equal(back.origin_code, records.origin_code)
