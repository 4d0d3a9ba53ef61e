import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import best_threshold_scan
from test_readout import within_seconds
from spinshot import estimators
from spinshot.estimators import (FitError, NormalizationError, NumericalError,
                                 PhotonRecords, fit_model, g2_pulsed,
                                 gaussian_fwhm_to_sigma, model_param_names,
                                 read_series_csv)
from spinshot.readout import CalibrationError
from spinshot.readout import (ReadoutParams, count_distribution,
                              empirical_fidelity, readout_fidelity)

# (kind, params, x grid, n_components)
CASES = [
    ("exp_decay", {"amplitude": 0.9, "tau": 127.0, "offset": 0.04},
     np.linspace(0.0, 500.0, 120), None),
    ("exp_relax", {"amplitude": 0.8, "tau": 0.44, "offset": 0.1},
     np.linspace(0.0, 2.0, 80), None),
    ("gaussian_echo", {"amplitude": 1.0, "t2": 48.0, "offset": 0.02},
     np.linspace(0.0, 150.0, 90), None),
    ("damped_sine", {"amplitude": 0.5, "frequency": 0.2174, "tau": 25.0,
                     "phase": 0.4, "offset": 0.5},
     np.linspace(0.0, 40.0, 240), None),
    ("lorentzian", {"amplitude": -0.35, "center": 3598.0, "fwhm": 2.37,
                    "offset": 1.0},
     np.linspace(3598.0 - 12, 3598.0 + 12, 160), None),
    ("gaussian_sum", {"amplitude_1": 0.3, "center_1": -3.3, "sigma_1": 1.0,
                      "amplitude_2": 0.55, "center_2": 0.0, "sigma_2": 1.0,
                      "amplitude_3": 0.3, "center_3": 3.3, "sigma_3": 1.0,
                      "offset": 0.01},
     np.linspace(-9.0, 9.0, 220), 3),
]


def evaluate(kind, params, x, n_components=None):
    if kind == "exp_decay":
        return params["amplitude"] * np.exp(-x / params["tau"]) + params["offset"]
    if kind == "exp_relax":
        return (params["amplitude"] * (1 - np.exp(-x / params["tau"]))
                + params["offset"])
    if kind == "gaussian_echo":
        return (params["amplitude"] * np.exp(-((x / params["t2"]) ** 2))
                + params["offset"])
    if kind == "damped_sine":
        return (params["amplitude"] * np.exp(-x / params["tau"])
                * np.cos(2 * np.pi * params["frequency"] * x + params["phase"])
                + params["offset"])
    if kind == "lorentzian":
        return (params["amplitude"]
                / (1 + (2 * (x - params["center"]) / params["fwhm"]) ** 2)
                + params["offset"])
    if kind == "gaussian_sum":
        out = np.full_like(x, params["offset"])
        for i in range(1, n_components + 1):
            out += params[f"amplitude_{i}"] * np.exp(
                -0.5 * ((x - params[f"center_{i}"]) / params[f"sigma_{i}"]) ** 2)
        return out
    raise AssertionError(kind)


@pytest.mark.parametrize("kind,params,x,ncomp", CASES,
                         ids=[c[0] for c in CASES])
class TestRecovery:
    def test_noiseless(self, kind, params, x, ncomp):
        y = evaluate(kind, params, x, ncomp)
        res = fit_model(kind, x, y, n_components=ncomp)
        assert res.converged
        for name, want in params.items():
            got = res.params[name]
            scale = max(abs(want), 1e-9)
            assert abs(got - want) / scale < 1e-6, (name, got, want)

    def test_noisy_within_uncertainty(self, kind, params, x, ncomp):
        # modest trial count here; the acceptance suite runs the full 200
        hits = trials = 0
        scale = np.ptp(evaluate(kind, params, x, ncomp))
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            y = evaluate(kind, params, x, ncomp) + rng.normal(
                0.0, 0.01 * scale, x.size)
            try:
                res = fit_model(kind, x, y, n_components=ncomp)
            except FitError:
                continue
            trials += 1
            ok = all(
                abs(res.params[n] - params[n]) <= 3 * res.uncertainties[n]
                + 1e-12
                for n in params)
            hits += ok
        assert trials >= 25
        assert hits / trials >= 0.85

    def test_descent_from_user_start(self, kind, params, x, ncomp):
        y = evaluate(kind, params, x, ncomp)
        start = [params[n] * 1.4 + (0.1 if params[n] == 0 else 0.0)
                 for n in model_param_names(kind, n_components=ncomp)]
        res = fit_model(kind, x, y, initial=start, n_components=ncomp)
        start_res = float(np.linalg.norm(
            y - evaluate(kind, dict(zip(res.params, start)), x, ncomp)))
        assert res.residual_norm <= start_res + 1e-12

    def test_gradient_at_optimum(self, kind, params, x, ncomp):
        rng = np.random.default_rng(7)
        scale = np.ptp(evaluate(kind, params, x, ncomp))
        y = evaluate(kind, params, x, ncomp) + rng.normal(
            0.0, 0.005 * scale, x.size)
        res = fit_model(kind, x, y, n_components=ncomp)
        if not res.converged:
            pytest.skip("stall fallback did not certify convergence")
        names = model_param_names(kind, n_components=ncomp)
        theta = np.array([res.params[n] for n in names])
        cost = res.residual_norm ** 2

        def ssr(vec):
            return float(np.sum(
                (y - evaluate(kind, dict(zip(names, vec)), x, ncomp)) ** 2))

        grad = np.zeros(len(theta))
        for i in range(len(theta)):
            h = 1e-6 * (1.0 + abs(theta[i]))
            up = theta.copy(); up[i] += h
            dn = theta.copy(); dn[i] -= h
            grad[i] = (ssr(up) - ssr(dn)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-3 * (1.0 + cost)


class TestFitPlumbing:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_model("spline", np.arange(5.0), np.arange(5.0))

    @pytest.mark.parametrize("k", [0, -1])
    def test_gaussian_sum_needs_a_component(self, k):
        x = np.linspace(-5.0, 5.0, 40)
        with pytest.raises(ValueError, match="n_components must be >= 1"):
            fit_model("gaussian_sum", x, np.exp(-x * x), n_components=k)
        assert len(model_param_names("gaussian_sum")) == 10    # default 3

    def test_numerical_failures_share_a_base(self):
        for error in (FitError, NormalizationError, CalibrationError):
            assert issubclass(error, NumericalError)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_model("exp_decay", np.arange(3.0), np.arange(3.0))

    def test_sigma_validation(self):
        x = np.linspace(0, 10, 20)
        y = np.exp(-x / 3.0)
        with pytest.raises(ValueError):
            fit_model("exp_decay", x, y, sigma=np.zeros(20))

    def test_weighted_fit_prefers_low_sigma_points(self):
        x = np.linspace(0.0, 10.0, 60)
        y = 2.0 * np.exp(-x / 3.0) + 0.1
        y_corrupt = y.copy()
        y_corrupt[::7] += 0.5
        sigma = np.full(60, 0.01)
        sigma[::7] = 10.0  # corrupted points carry no weight
        res = fit_model("exp_decay", x, y_corrupt, sigma=sigma)
        assert res.params["tau"] == pytest.approx(3.0, rel=1e-4)

    def test_result_indexing_and_report(self):
        x = np.linspace(0, 50, 40)
        y = 1.5 * np.exp(-x / 9.0) + 0.2
        res = fit_model("exp_decay", x, y)
        assert res["tau"] == res.params["tau"]
        assert set(res.uncertainties) == set(res.params)
        from spinshot.estimators import format_fit_report
        text = format_fit_report(res)
        assert "tau" in text and "exp_decay" in text

    def test_degenerate_flag_on_flat_data(self):
        x = np.linspace(0, 10, 30)
        y = np.full(30, 0.7)
        res = fit_model("exp_decay", x, y)
        assert res.degenerate

    def test_no_convergence_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
        x = np.linspace(0, 10, 20)
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, 20)
        with pytest.raises(FitError) as exc:
            fit_model("damped_sine", x, y)
        assert exc.value.diagnostics

    @pytest.mark.parametrize("initial", [
        np.array([[2.0, 1.0, 0.1], [2.0, 9.0, 0.1]]),
        [2.0, 3.0],
        [[2.0, 3.0, 0.1], [2.0, 3.0]],
    ], ids=["2d-array", "short-start", "ragged-list"])
    def test_initial_formats(self, initial):
        # a 2-d array is a list of starts; any other shape names the model
        x = np.linspace(0.0, 10.0, 20)
        y = 2.0 * np.exp(-x / 3.0) + 0.1
        if isinstance(initial, np.ndarray):
            got = fit_model("exp_decay", x, y, initial=initial)
            want = fit_model("exp_decay", x, y, initial=initial.tolist())
            assert got.params == want.params
            assert got.params["tau"] == pytest.approx(3.0, rel=1e-9)
            return
        with pytest.raises(ValueError, match=r"'exp_decay'.* 3 parameters"):
            fit_model("exp_decay", x, y, initial=initial)


class TestStartsMatchOracle:
    """The shared start rule and the broadcast gaussian_sum give the bits
    of the per-model start lists and the per-component loop."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 80),
           k=st.integers(1, 8), scale=st.floats(1e-3, 1e4))
    def test_bits(self, seed, n, k, scale):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-scale, scale, n))
        y = rng.normal(0.0, 1.0, n) * rng.uniform(0.01, 10.0)

        def bits(rows):
            return [[float(v).hex() for v in row] for row in rows]

        for kind in ("exp_decay", "exp_relax", "gaussian_echo", "damped_sine",
                     "lorentzian"):
            want = getattr(oracles, f"_starts_{kind}")(x, y)
            assert bits(estimators._MODELS[kind].starts(x, y)) == bits(want), kind
        spec = estimators._gaussian_sum_spec(k)
        assert bits(spec.starts(x, y)) == bits(oracles.gaussian_sum_starts(x, y, k))
        p = np.column_stack((rng.normal(0.0, 1.0, k), rng.uniform(-scale, scale, k),
                             rng.uniform(1e-3, 1.0, k) * scale)).ravel()
        p = np.append(p, rng.normal())
        assert bits([spec.predict(x, p)]) == bits(
            [oracles.gaussian_sum_predict(x, p, k)])


class TestIdentifiability:
    """A converged start counts only if the grid can identify it."""

    X = np.arange(40.0)     # Nyquist rate 0.5, span 39

    def test_aliased_frequency_is_unidentifiable(self):
        # at integer x a frequency of 1.2 is indistinguishable from 0.2
        y = 0.5 * np.cos(2 * np.pi * 0.2 * self.X) * np.exp(-self.X / 30) + 0.5
        aliased = [0.5, 1.2, 30.0, 0.0, 0.5]
        with pytest.raises(FitError, match="start 0: unidentifiable") as err:
            fit_model("damped_sine", self.X, y, initial=aliased)
        [(_, status, cost)] = err.value.diagnostics
        assert status == "unidentifiable" and cost < 1e-20
        result = fit_model("damped_sine", self.X, y,
                           initial=[aliased, [0.5, 0.21, 25.0, 0.0, 0.5]])
        assert result["frequency"] == pytest.approx(0.2, rel=1e-9)

    @pytest.mark.parametrize("tau", [1e-3, 1e6])
    def test_time_constant_outside_grid(self, tau):
        # below dx / 10 = 0.1 or above 1000 * span = 39000
        y = 0.3 * np.exp(-self.X / tau) + 0.1
        with pytest.raises(FitError, match="unidentifiable"):
            fit_model("exp_decay", self.X, y, initial=[0.3, tau, 0.1])

    @pytest.mark.parametrize("tau", [0.5, 3000.0])
    def test_time_constant_inside_grid(self, tau):
        y = 0.3 * np.exp(-self.X / tau) + 0.1
        result = fit_model("exp_decay", self.X, y, initial=[0.3, tau, 0.1])
        assert result["tau"] == pytest.approx(tau, rel=1e-6)


class TestConversions:
    def test_gaussian_fwhm_to_sigma(self):
        assert gaussian_fwhm_to_sigma(2.3548200450309493) == pytest.approx(1.0)


def make_records(shot, pulse, t, n_shots, n_pulses):
    return PhotonRecords(
        shot_id=np.asarray(shot, dtype=np.int64),
        pulse_index=np.asarray(pulse, dtype=np.int64),
        timestamp_us=np.asarray(t, dtype=float),
        origin_code=np.zeros(len(shot), dtype=np.int8),
        n_shots=n_shots, n_pulses=n_pulses)


class TestG2:
    def test_single_photon_per_pulse_gives_zero(self):
        # at most one count per (shot, pulse): no same-pulse pairs
        rng = np.random.default_rng(5)
        shots, pulses = 300, 40
        shot, pulse = np.nonzero(rng.random((shots, pulses)) < 0.3)
        rec = make_records(shot, pulse, pulse * 10.0, shots, pulses)
        res = g2_pulsed(rec)
        assert res.g2_zero == 0.0
        assert res.pair_counts[0] == 0

    def test_poissonian_light_is_unity(self):
        rng = np.random.default_rng(42)
        shots, pulses, lam = 2000, 50, 0.8
        counts = rng.poisson(lam, size=(shots, pulses))
        shot_idx = np.repeat(np.arange(shots), counts.sum(axis=1))
        pulse_idx = np.concatenate(
            [np.repeat(np.arange(pulses), row) for row in counts])
        rec = make_records(shot_idx, pulse_idx, pulse_idx * 10.0,
                           shots, pulses)
        res = g2_pulsed(rec)
        n_pairs = res.pair_counts[0]
        se = 3.0 / max(np.sqrt(n_pairs), 1.0)
        assert res.g2_zero == pytest.approx(1.0, abs=max(3 * se, 0.05))

    @pytest.mark.parametrize("pulse", [-1, 5])
    def test_pulse_index_off_grid_raises(self, pulse):
        rec = make_records([0, 0, 1], [0, pulse, 1], [1.0, 2.0, 3.0], 2, 5)
        with pytest.raises(ValueError, match="outside the declared pulse grid"):
            g2_pulsed(rec)

    def test_no_cross_coincidences_raises(self):
        rec = make_records([0, 1], [0, 0], [1.0, 1.0], 2, 5)
        with pytest.raises(NormalizationError):
            g2_pulsed(rec)

    @pytest.mark.parametrize("n_lags", [0, -1])
    def test_lag_count_below_one_raises(self, n_lags):
        rec = make_records([0, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], 2, 71)
        with pytest.raises(ValueError, match="n_lags must be >= 1"):
            g2_pulsed(rec, n_lags=n_lags)

    def test_too_few_events(self):
        rec = make_records([0], [0], [1.0], 1, 5)
        with pytest.raises(NormalizationError):
            g2_pulsed(rec)

    @pytest.mark.parametrize("shot", [-1, 2])
    def test_shot_id_off_count_raises(self, shot):
        rec = make_records([0, shot, 1], [0, 1, 1], [1.0, 2.0, 3.0], 2, 5)
        with pytest.raises(ValueError, match="outside the declared shot count"):
            g2_pulsed(rec)

    # (shots, pulses, mean photons per cell, n_lags); cells with two or
    # more photons are common at the larger means
    SHAPES = [(300, 40, 0.3, 20), (50, 71, 1.5, 20), (1, 400, 2.0, 20),
              (1, 6, 3.0, 20), (7, 5, 1.0, 5), (7, 5, 1.0, 4), (20, 2, 4.0, 1),
              (4000, 71, 0.07, 20), (2, 9000, 0.02, 30)]

    @pytest.mark.parametrize("shots,pulses,mean,n_lags", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_lag_products(self, shots, pulses, mean, n_lags, seed):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(mean, size=(shots, pulses))
        shot, pulse = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()),
                                pulses)
        order = rng.permutation(shot.size) if seed == 2 else slice(None)
        rec = make_records(shot[order], pulse[order], pulse[order] * 10.0,
                           shots, pulses)
        want_counts, want_rates = oracles.g2_pulsed_per_lag(rec, n_lags)
        res = g2_pulsed(rec, n_lags=n_lags)
        assert res.pair_counts.dtype == np.int64
        assert res.pair_counts.tobytes() == want_counts.tobytes()
        assert res.pair_rates.tobytes() == want_rates.tobytes()
        assert res.g2_zero == float(want_rates[0] / float(np.mean(want_rates[1:])))
        assert np.array_equal(res.lags, np.arange(len(want_counts)))

    def test_declared_grid_far_past_records(self):
        # 1e8 shots x 1e5 pulses: nothing is sized by the grid
        rec = make_records([0, 0, 0, 5], [0, 0, 1, 99_999], [1.0] * 4,
                           10**8, 10**5)
        res = within_seconds(2.0, g2_pulsed, rec)
        assert res.pair_counts.tolist() == [2, 2] + [0] * 19
        assert res.pair_rates[0] == 2 / (10**8 * 10**5)
        assert res.pair_rates[1] == 2 / (10**8 * (10**5 - 1))


class TestRecordsReader:
    """PhotonRecords.from_file against the per-line reader it replaced
    (tests/oracles.py): the same arrays, bit for bit with NaN included, or
    the same error, on seeded mutations of a file run_timeline wrote."""

    @pytest.fixture(scope="class")
    def records_text(self, nominal_params, tmp_path_factory):
        from dataclasses import replace
        from spinshot.montecarlo import run_timeline
        from spinshot.sequence import compile_sequence, parse_sequence
        seq = "repeat 12 {\n  pulse optical A 0.02us 1pi\n  detect 3us\n  wait 6.98us\n}\n"
        run = run_timeline(compile_sequence(parse_sequence(seq)),
                           replace(nominal_params, dark_rate=3000.0), shots=60, seed=3)
        path = tmp_path_factory.mktemp("records") / "events.txt"
        run.records.to_file(path)
        text = path.read_text(encoding="utf-8")
        origins = set(run.records.origin_code.tolist())
        assert origins == {0, 1} and len(run.records) > 40
        return text

    @staticmethod
    def body_rows(text):
        lines = text.splitlines(keepends=True)
        return lines[:2], lines[2:]

    # each mutation takes (header lines, body rows, rng) and returns the
    # file's text; ``rng`` picks the rows it touches
    @staticmethod
    def _token(rows, rng, column, value):
        i = int(rng.integers(len(rows)))
        parts = rows[i].split()
        parts[column] = value(parts[column])
        rows[i] = " ".join(parts) + "\n"

    MUTATIONS = {
        "as written": lambda h, r, g: "".join(h + r),
        "crlf": lambda h, r, g: "".join(h + r).replace("\n", "\r\n"),
        "lone cr": lambda h, r, g: "".join(h + r).replace("\n", "\r", 3),
        "tabs and runs of spaces": lambda h, r, g: "".join(h + [
            row.replace(" ", "\t" if g.random() < 0.5 else "   ", 2) for row in r]),
        "leading and trailing spaces": lambda h, r, g: "".join(h + [
            "  " + row[:-1] + " \t\n" for row in r]),
        "blank lines": lambda h, r, g: "".join(h + [
            row + ("\n" if g.random() < 0.2 else "") + ("  \t\n" if g.random() < 0.1 else "")
            for row in r]),
        "comment between rows": lambda h, r, g: "".join(
            h + r[:5] + ["# a note\n", "   # indented note\n"] + r[5:]),
        "trailing note on a row": lambda h, r, g: "".join(
            h + r[:3] + [r[3][:-1] + " # note\n"] + r[4:]),
        "missing column": lambda h, r, g: "".join(
            h + r[:7] + [r[7].rsplit(" ", 1)[0] + "\n"] + r[8:]),
        "extra column": lambda h, r, g: "".join(h + r[:7] + [r[7][:-1] + " 1\n"] + r[8:]),
        "missing header": lambda h, r, g: "".join(r),
        "no shots value": lambda h, r, g: "".join([h[0], "# shots= pulses=12\n"] + r),
        "header repeated": lambda h, r, g: "".join(h + r[:9] + h + r[9:]),
        "header repeated smaller": lambda h, r, g: "".join(
            h + r[:9] + ["# shots=1\n"] + r[9:]),
        "header leading zeros": lambda h, r, g: "".join(
            [h[0], "# shots=" + "0" * 5000 + "60 pulses=0012\n"] + r),
        "header past int64": lambda h, r, g: "".join(
            [h[0], "# shots=99999999999999999999 pulses=12\n"] + r),
        "header at int64": lambda h, r, g: "".join(
            [h[0], f"# shots={2**63 - 1} pulses=12\n"] + r),
        "header non-ascii digit": lambda h, r, g: "".join([h[0], "# shots=\u0663\n"] + r),
        "header only": lambda h, r, g: "".join(h),
        "header and blank lines only": lambda h, r, g: "".join(h) + "\n  \n\n",
        "empty file": lambda h, r, g: "",
        "no final newline": lambda h, r, g: "".join(h + r)[:-1],
        "bom": lambda h, r, g: "\ufeff" + "".join(h + r),
    }
    TOKENS = {
        # (column, replacement of the token)
        "plus sign": (0, lambda t: "+" + t),
        "minus zero": (1, lambda t: "-0"),
        "leading zeros": (1, lambda t: "000" + t),
        "underscore in int": (1, lambda t: "1_0"),
        "underscore in float": (2, lambda t: "1_0.5"),
        "arabic-indic digit": (0, lambda t: "\u0663"),
        "fullwidth digit": (2, lambda t: "\uff15.5"),
        "non-ascii digit in a float": (2, lambda t: t + "\u0663"),
        "double sign": (0, lambda t: "+-" + t),
        "trailing sign": (1, lambda t: t + "-"),
        "float shot": (0, lambda t: t + ".0"),
        "exponent shot": (1, lambda t: "1e1"),
        "hex timestamp": (2, lambda t: "0x10"),
        "nan": (2, lambda t: "nan"),
        "minus nan": (2, lambda t: "-nan"),
        "NaN": (2, lambda t: "NaN"),
        "inf": (2, lambda t: "inf"),
        "minus inf": (2, lambda t: "-inf"),
        "infinity": (2, lambda t: "infinity"),
        "1e400": (2, lambda t: "1e400"),
        "1e-400": (2, lambda t: "-1e-400"),
        "bare point": (2, lambda t: "."),
        "dangling exponent": (2, lambda t: t + "e"),
        "long float": (2, lambda t: "1." + "3" * 400 + "e-2"),
        "shot past int64": (0, lambda t: "99999999999999999999"),
        "shot at int64 min": (0, lambda t: str(-2**63)),
        "pulse past header": (1, lambda t: "12"),
        "negative shot": (0, lambda t: "-" + t),
        "long origin": (3, lambda t: t + "e"),
        "truncatable origin": (3, lambda t: "emitteree"),
        "capital origin": (3, lambda t: t.capitalize()),
        "nul byte": (2, lambda t: t + "\x00"),
    }
    SEPARATORS = ["\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\x1f",
                  "\x85", "\u2028", "\x00"]

    def cases(self):
        yield from self.MUTATIONS
        yield from self.TOKENS
        yield from (f"separator {ord(c):#x}" for c in self.SEPARATORS)
        yield "invalid utf-8"

    def mutate(self, name, text, rng):
        head, rows = self.body_rows(text)
        if name in self.MUTATIONS:
            return self.MUTATIONS[name](head, rows, rng).encode("utf-8")
        if name in self.TOKENS:
            self._token(rows, rng, *self.TOKENS[name])
        elif name.startswith("separator"):
            sep = chr(int(name.split()[1], 16))
            i = int(rng.integers(len(rows)))
            rows[i] = rows[i].replace(" ", sep, int(rng.integers(1, 4)))
        else:
            i = int(rng.integers(len(rows)))
            return "".join(head + rows[:i]).encode() + b"\xff" + "".join(rows[i:]).encode()
        return "".join(head + rows).encode("utf-8")

    @staticmethod
    def read(reader, path):
        try:
            return reader(path)
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    # the fast path must take these; every other file may go either way
    COLUMN_WISE = {"as written", "crlf", "lone cr", "tabs and runs of spaces",
                   "leading and trailing spaces", "blank lines", "missing header",
                   "header leading zeros", "header at int64", "no final newline",
                   "plus sign", "minus zero", "leading zeros", "nan", "minus nan",
                   "inf", "minus inf", "1e400", "1e-400", "long float"}

    def test_fast_path_matches_per_line_reader(self, records_text, tmp_path):
        taken, names = set(), list(self.cases())
        for name in names:
            for seed in range(3):
                path = tmp_path / f"case{names.index(name)}-{seed}.txt"
                path.write_bytes(self.mutate(name, records_text,
                                             np.random.default_rng(seed)))
                want = self.read(oracles.read_records_per_line, path)
                got = self.read(PhotonRecords.from_file, path)
                if isinstance(want, str):
                    assert got == want, (name, seed)
                    continue
                assert not isinstance(got, str), (name, seed, got)
                for field, ours, theirs in zip(
                        ("shot_id", "pulse_index", "timestamp_us", "origin_code"),
                        (got.shot_id, got.pulse_index, got.timestamp_us,
                         got.origin_code), want[:4]):
                    assert ours.dtype == theirs.dtype, (name, seed, field)
                    assert ours.tobytes() == theirs.tobytes(), (name, seed, field)
                assert (got.n_shots, got.n_pulses) == want[4:], (name, seed)
                try:
                    if estimators._read_columns(path) is not None:
                        taken.add(name)
                except ValueError:
                    pass
        assert taken >= self.COLUMN_WISE, self.COLUMN_WISE - taken


class TestEmpiricalFidelity:
    def test_perfectly_separated(self):
        rep = empirical_fidelity([5, 6, 7, 8], [0, 0, 0, 0])
        assert rep.f_min == 1.0
        assert rep.threshold >= 1

    def test_converges_to_dp_fidelity(self):
        params = ReadoutParams(n_pulses=30, p_excite=0.78, eta_detect=0.10,
                               flip_bright=0.5 / 131, flip_dark=0.5 / 131)
        bright = count_distribution(params, "bright")
        dark = count_distribution(params, "dark")
        rng = np.random.default_rng(3)
        n = 200_000
        shots_b = rng.choice(len(bright.probabilities), size=n,
                             p=bright.probabilities)
        shots_d = rng.choice(len(dark.probabilities), size=n,
                             p=dark.probabilities)
        emp = empirical_fidelity(shots_b, shots_d)
        dp = readout_fidelity(bright, dark, emp.threshold)
        assert emp.f_bright == pytest.approx(
            dp.f_bright, abs=3 * max(emp.f_bright_se, 1e-4))
        assert emp.f_dark == pytest.approx(
            dp.f_dark, abs=3 * max(emp.f_dark_se, 1e-4))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            empirical_fidelity([], [1, 2])

    def test_matches_per_threshold_scan(self):
        # bitwise equal to the loop, ties included (small samples tie often)
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_b, n_d = rng.integers(1, 40, size=2)
            shots_b = rng.poisson(rng.uniform(0.0, 6.0), n_b)
            shots_d = rng.poisson(rng.uniform(0.0, 2.0), n_d)
            rep = empirical_fidelity(shots_b, shots_d)
            assert (rep.f_min, rep.threshold, rep.f_bright, rep.f_dark) == \
                best_threshold_scan(shots_b, shots_d)


class TestSeriesCsv:
    def test_two_and_three_columns(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,y\n0,1.0\n1,0.5\n")
        x, y, sigma = read_series_csv(str(p))
        assert x.tolist() == [0.0, 1.0]
        assert sigma is None
        p3 = tmp_path / "s3.csv"
        p3.write_text("0,1.0,0.1\n1,0.5,0.1\n")
        x, y, sigma = read_series_csv(str(p3))
        assert sigma.tolist() == [0.1, 0.1]

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1\n1\n")
        with pytest.raises(ValueError):
            read_series_csv(str(p))


class TestWriteCsv:
    """write_csv formats ndarrays a column at a time; every byte must be
    the per-cell writer's (tests/oracles.py)."""

    COLUMNS = {
        "float64": np.array([0.1, 1.0 / 3.0, 1e-300, -2.5e17, 0.0, -0.0,
                             np.nan, np.inf, -np.inf, 123456789012345.0]),
        "float32": np.linspace(-1.0, 7.0, 10, dtype=np.float32) / np.float32(3.0),
        "float16": np.arange(10, dtype=np.float16) / np.float16(7.0),
        "int64": np.arange(-3, 7),
        "int8": np.arange(10, dtype=np.int8) * np.int8(-12),
        "uint64": np.array([0, 1, 2**63, 2**64 - 1] + [7] * 6, dtype=np.uint64),
        "bool": np.arange(10) % 3 == 0,
        "python floats": [i / 7.0 for i in range(10)],
        "numpy scalars": [np.float64(0.1), np.float32(0.2), np.int64(3), np.int32(-4),
                          np.bool_(True), np.float16(0.3), 7, 8.5, True, "x"],
        "dict view": dict(zip("abcdefghij", range(10, 20))).values(),
        "range": range(100, 110),
        "string": "abcdefghij",
        "object array": np.array(["a", 1, 2.5, None, True, 3, 4, 5, 6, 7], dtype=object),
        "str array": np.array([f"s{i}" for i in range(10)]),
        "complex": np.arange(10) * (1 + 2j),
    }

    @pytest.mark.parametrize("name", list(COLUMNS))
    def test_bytes_match_per_cell_writer(self, name, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        column = self.COLUMNS[name]
        estimators.write_csv(got, "i,value", range(10), column)
        oracles.write_csv_per_cell(want, "i,value", range(10), column)
        assert got.read_bytes() == want.read_bytes()

    def test_all_columns_at_once(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        header = ",".join(self.COLUMNS)
        estimators.write_csv(got, header, *self.COLUMNS.values())
        oracles.write_csv_per_cell(want, header, *self.COLUMNS.values())
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("columns", [(), (np.array([]),), ([], range(0))])
    def test_no_rows(self, columns, tmp_path):
        path = tmp_path / "empty.csv"
        estimators.write_csv(path, "a", *columns)
        assert path.read_bytes() == b"a\n"

    @pytest.mark.parametrize("columns", [
        (np.arange(3.0), np.arange(4)),
        (range(3), [1.0, 2.0]),
        (np.arange(2.0), "abc"),
    ])
    def test_length_mismatch_raises(self, columns, tmp_path):
        with pytest.raises(ValueError):
            estimators.write_csv(tmp_path / "bad.csv", "a,b", *columns)
