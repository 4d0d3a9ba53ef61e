import functools
import math
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (calibrate_flip_asymmetry_full_passes, chain_full_axis,
                     convolve_poisson, decay_pulses_from_relaxation,
                     enumerate_count_distribution, optimize_readout_full_scan,
                     trace_closed_form)
from spinshot.config import load_config, readout_params
from spinshot.readout import (CAPACITY_DARK_MEAN, CAPACITY_PULSES,
                              CalibrationError, CapacityError,
                              CountDistribution, ReadoutParams,
                              _distributions, _poisson_pmf,
                              calibrate_flip_asymmetry, count_distribution,
                              cyclicity, dark_count_penalty, expected_trace,
                              fit_decay_constant, optimize_readout,
                              readout_fidelity, readout_report)
from spinshot import readout as readout_module
from spinshot.estimators import FitError
from spinshot.physics import InvalidConfigError


def make_params(n=71, a=0.5 / 131, b=0.5 / 131, p=0.78, eta=0.10, **kw):
    return ReadoutParams(n_pulses=n, p_excite=p, eta_detect=eta,
                         flip_bright=a, flip_dark=b, **kw)


flip_probs = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
det_probs = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def within_seconds(seconds, fn, *args):
    """Run fn(*args), raising TimeoutError if it has not returned in time."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__}{args} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCountDistribution:
    def test_worked_two_pulse_example(self):
        # hand-enumerated: a=b=0.1, d=0.5, two pulses, start bright
        p = make_params(n=2, a=0.1, b=0.1, p=0.5, eta=1.0)
        dist = count_distribution(p, "bright")
        assert dist.probabilities == pytest.approx(
            [0.3475, 0.45, 0.2025], abs=1e-12)
        dark = count_distribution(p, "dark")
        # only path to a count: flip up on pulse 1, detect on pulse 2
        assert dark.prob_at_least(1) == pytest.approx(
            0.1 * 0.9 * 0.5, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        grid = [0.0, 0.05, 0.25, 0.6, 0.95]
        dgrid = [0.05, 0.2, 0.5, 0.8, 1.0]
        for n in range(1, 9):
            for a in grid:
                for b in grid:
                    for d in dgrid:
                        params = make_params(n=n, a=a, b=b, p=d, eta=1.0)
                        for initial in ("bright", "dark"):
                            got = count_distribution(params, initial)
                            want = enumerate_count_distribution(
                                n, a, b, d, initial)
                            assert np.max(np.abs(
                                got.probabilities - want)) < 1e-12, (
                                n, a, b, d, initial)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_batched_kernel(self, n):
        # one batch of (a, b) points x both initial states against the
        # enumeration oracle, and bitwise against one-row runs
        a = np.array([0.0, 0.05, 0.3, 0.6, 0.95])
        b = np.array([0.25, 0.0, 0.6, 0.05, 0.95])
        params = make_params(n=n, p=0.4, eta=1.0)
        batch = _distributions(params, a, b)
        assert len(batch) == a.size
        for i, point in enumerate(batch):
            for dist, initial in zip(point, ("bright", "dark")):
                assert dist.initial_state == initial
                want = enumerate_count_distribution(n, a[i], b[i], 0.4, initial)
                assert np.max(np.abs(dist.probabilities - want)) < 1e-12
                [[single]] = _distributions(params, a[i:i + 1], b[i:i + 1],
                                            (initial,))
                assert np.array_equal(dist.probabilities, single.probabilities)

    @given(n=st.integers(min_value=1, max_value=40), a=flip_probs,
           b=flip_probs, d=det_probs,
           initial=st.sampled_from(["bright", "dark"]))
    def test_valid_distribution(self, n, a, b, d, initial):
        dist = count_distribution(
            make_params(n=n, a=a, b=b, p=d, eta=1.0), initial)
        assert np.all(dist.probabilities >= 0)
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-12
        assert len(dist.probabilities) <= n + 1

    def test_dark_count_convolution(self):
        base = make_params(n=5, a=0.02, b=0.01, p=0.5, eta=0.5)
        noisy = replace(base, dark_rate=2000.0, gate_window=3.0)
        plain = count_distribution(base, "bright").probabilities
        got = count_distribution(noisy, "bright").probabilities
        want = convolve_poisson(plain, noisy.dark_count_mean)
        n = min(len(got), len(want))
        assert np.max(np.abs(got[:n] - want[:n])) < 1e-12
        assert abs(got.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("mu", [720.0, 800.0, 1e4])
    def test_poisson_beyond_exp_underflow(self, mu):
        # exp(-mu) is subnormal above mu ~ 708 and underflows to 0 above ~ 745
        pmf = within_seconds(1.0, _poisson_pmf, mu)
        assert np.all(pmf >= 0)
        assert abs(pmf.sum() - 1.0) <= 1e-12
        mean = float(np.arange(pmf.size) @ pmf)
        assert mean == pytest.approx(mu, rel=1e-9)

    def test_large_dark_mean(self):
        # 66.7 kHz over CAPACITY_PULSES = 4000 gates of 3 us: mu = 800
        quiet = make_params(n=CAPACITY_PULSES, gate_window=3.0)
        noisy = replace(quiet, dark_rate=800.0 / (3.0e-6 * CAPACITY_PULSES))
        assert noisy.dark_count_mean == pytest.approx(800.0, rel=1e-12)
        dist = count_distribution(noisy, "bright")
        assert np.all(dist.probabilities >= 0)
        want = count_distribution(quiet, "bright").mean() + noisy.dark_count_mean
        assert dist.mean() == pytest.approx(want, rel=1e-9)

    # (a, b, d) points of a random search whose pmf missed sum 1 by more
    # than 1e-12 at N = 10000 (a drift of about 1.1e-16 per pulse)
    DRIFTING = {
        "drift_1": (2.5737858416368855e-05, 0.03627765631776876,
                    0.5047852314344701),
        "drift_2": (0.0006493073703375785, 0.022353059210017866,
                    0.19734886477676372),
        "drift_3": (1.3422564352851544e-06, 6.916834028693217e-06,
                    0.7494608262320578),
        "drift_4": (3.7665378722249924e-05, 0.0039618234959101035,
                    0.035325131608288984),
        "drift_5": (3.687794668944517e-05, 0.015940111897451367,
                    0.46838086950284186),
        "drift_6": (0.0008444532282008722, 0.004887806056585735,
                    0.3359702633489273),
    }

    @pytest.mark.parametrize("corner", ["frozen", "always_flip", "a_gg_b",
                                        "b_gg_a", "paper_mu_800",
                                        "paper_mu_1e4", *DRIFTING])
    @pytest.mark.parametrize("initial", ["bright", "dark"])
    def test_invariants_at_capacity(self, corner, initial):
        n = CAPACITY_PULSES
        paper = readout_params(load_config("paper.cfg"), n_pulses=n)
        per_mu = paper.gate_window * 1e-6 * n     # dark mean per Hz
        params = {
            "frozen": replace(paper, flip_bright=0.0, flip_dark=0.0),
            "always_flip": replace(paper, flip_bright=1.0, flip_dark=1.0),
            "a_gg_b": replace(paper, flip_bright=0.5, flip_dark=1e-9),
            "b_gg_a": replace(paper, flip_bright=1e-9, flip_dark=0.5),
            "paper_mu_800": replace(paper, dark_rate=800.0 / per_mu),
            "paper_mu_1e4": replace(paper, dark_rate=1e4 / per_mu),
            **{name: replace(paper, flip_bright=a, flip_dark=b, p_excite=d,
                             eta_detect=1.0)
               for name, (a, b, d) in self.DRIFTING.items()},
        }[corner]
        # CountDistribution rejects a negative pmf or a sum off by > 1e-12;
        # the explicit checks below say so for the reader
        dist = count_distribution(params, initial)
        p = dist.probabilities
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (dist.initial_state, dist.n_pulses) == (initial, n)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            count_distribution(make_params(n=CAPACITY_PULSES + 1), "bright")

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            count_distribution(make_params(n=2), "superposition")

    def test_csv_format(self, tmp_path):
        path = tmp_path / "counts.csv"
        count_distribution(make_params(n=3), "bright").to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "count,probability"
        assert lines[1].startswith("0,")


class TestExpectedTrace:
    def test_frozen_chain_is_constant(self):
        p = make_params(n=10, a=0.0, b=0.0, p=0.6, eta=0.5)
        trace = expected_trace(p, "bright")
        assert trace == pytest.approx(np.full(10, 0.3), abs=1e-15)
        assert expected_trace(p, "dark") == pytest.approx(
            np.zeros(10), abs=1e-15)

    def test_matches_closed_form(self):
        p = make_params(n=200, a=0.004, b=0.0037)
        for initial in ("bright", "dark"):
            want = trace_closed_form(200, 0.004, 0.0037,
                                     p.detection_probability, initial)
            assert expected_trace(p, initial) == pytest.approx(
                want, abs=1e-14)

    def test_stationary_start_is_flat(self):
        # starting the chain at pi = b/(a+b) keeps the trace flat; the
        # public API exposes bright/dark starts, so check via mixture
        a, b = 0.01, 0.03
        p = make_params(n=50, a=a, b=b)
        pi = b / (a + b)
        mix = (pi * expected_trace(p, "bright")
               + (1 - pi) * expected_trace(p, "dark"))
        assert np.ptp(mix) < 1e-15

    @given(a=st.floats(min_value=1e-4, max_value=0.4),
           b=st.floats(min_value=1e-4, max_value=0.4),
           initial=st.sampled_from(["bright", "dark"]))
    @settings(max_examples=50)
    def test_relaxation_factor_is_chain_eigenvalue(self, a, b, initial):
        p = make_params(n=30, a=a, b=b, p=0.9, eta=1.0)
        trace = expected_trace(p, initial)
        stationary = 0.9 * b / (a + b)
        dev = trace - stationary
        # only ratios between well-resolved deviations are meaningful;
        # fast chains shrink dev below float precision within a few pulses
        usable = np.abs(dev[:-1]) > 1e-9
        if not usable.any():
            return  # started at (or immediately hit) the fixed point
        ratios = dev[1:][usable] / dev[:-1][usable]
        assert ratios == pytest.approx(
            np.full(int(usable.sum()), 1.0 - a - b), rel=1e-6)

    def test_both_starts_share_relaxation_constant(self):
        # a+b = 1/131: both initializations relax with the same factor
        p = make_params(n=400)
        lam = 1.0 - 1.0 / 131.0
        for initial in ("bright", "dark"):
            trace = expected_trace(p, initial)
            stationary = p.detection_probability * 0.5
            dev = trace - stationary
            assert dev[1:] / dev[:-1] == pytest.approx(
                np.full(399, lam), rel=1e-9)


class TestDecayFit:
    def test_exact_recovery(self):
        k = np.arange(300, dtype=float)
        trace = 0.05 * np.exp(-k / 127.0) + 0.01
        fit = fit_decay_constant(trace)
        assert fit.n0 == pytest.approx(127.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.05, rel=1e-6)
        assert fit.offset == pytest.approx(0.01, rel=1e-6)

    def test_chain_trace_maps_to_log_constant(self):
        p = make_params(n=600)
        fit = fit_decay_constant(expected_trace(p, "bright"))
        want = decay_pulses_from_relaxation(131.0)
        assert want == pytest.approx(130.5, abs=0.01)
        assert fit.n0 == pytest.approx(want, rel=1e-6)

    def test_constant_trace_raises(self):
        with pytest.raises(FitError):
            fit_decay_constant(np.full(50, 0.039))

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_decay_constant(np.array([0.5, 0.4, 0.3]))


class TestCyclicity:
    def test_quoted_band(self):
        assert cyclicity(0.78, 127.0) == pytest.approx(99.06, abs=0.01)
        assert cyclicity(0.78, 135.0) == pytest.approx(105.3, abs=0.01)
        for n0 in (127.0, 135.0):
            assert 103 - 7 <= cyclicity(0.78, n0) <= 103 + 7

    def test_trivial(self):
        assert cyclicity(1.0, 50.0) == 50.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclicity(0.0, 100.0)
        with pytest.raises(ValueError):
            cyclicity(0.5, -1.0)


class TestFidelity:
    def test_two_pulse_example(self):
        p = make_params(n=2, a=0.1, b=0.1, p=0.5, eta=1.0)
        rep = readout_fidelity(count_distribution(p, "bright"),
                               count_distribution(p, "dark"), 1)
        assert rep.f_bright == pytest.approx(0.6525, abs=1e-12)
        assert rep.f_dark == pytest.approx(0.955, abs=1e-12)
        assert rep.f_min == pytest.approx(0.6525, abs=1e-12)

    def test_threshold_must_be_positive(self):
        p = make_params(n=2)
        bright = count_distribution(p, "bright")
        dark = count_distribution(p, "dark")
        with pytest.raises(ValueError):
            readout_fidelity(bright, dark, 0)

    def test_mismatched_supports(self):
        p5 = make_params(n=5)
        p6 = make_params(n=6)
        with pytest.raises(ValueError, match="mismatched supports"):
            readout_fidelity(count_distribution(p5, "bright"),
                             count_distribution(p6, "dark"), 1)

    @given(a=st.floats(min_value=0.001, max_value=0.3),
           b=st.floats(min_value=0.001, max_value=0.3),
           thr=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40)
    def test_label_symmetry_of_min(self, a, b, thr):
        # relabeling which state we call bright (and mirroring the
        # classification rule) swaps F_bright and F_dark; min is invariant
        p = make_params(n=10, a=a, b=b, p=0.9, eta=0.9)
        bright = count_distribution(p, "bright")
        dark = count_distribution(p, "dark")
        rep = readout_fidelity(bright, dark, thr)
        mirrored = min(dark.prob_below(thr), bright.prob_at_least(thr))
        assert rep.f_min == pytest.approx(mirrored, abs=1e-15)

    def test_pulse_period_is_scale_free(self):
        base = make_params(n=40)
        slow = replace(base, pulse_period=20.0)
        rb = readout_report(base, 1)
        rs = readout_report(slow, 1)
        assert rb.f_min == rs.f_min
        assert rb.f_bright == rs.f_bright
        assert rs.readout_duration == pytest.approx(2 * rb.readout_duration)

    @pytest.mark.parametrize("s", [0.5, 0.9, 0.02])
    def test_report_cyclicity_closed_form(self, s):
        rep = readout_report(make_params(n=71, a=s / 131, b=(1 - s) / 131))
        want = 0.78 * decay_pulses_from_relaxation(131.0)
        assert rep.cyclicity == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(a=0.0), dict(b=0.0), dict(a=0.6, b=0.4), dict(a=0.7, b=0.5),
        dict(eta=0.0)])
    def test_report_cyclicity_unset_without_relaxation(self, kw):
        rep = readout_report(make_params(n=71, **kw))
        assert rep.cyclicity is None

    def test_report_fits_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("readout_report must not fit")

        monkeypatch.setattr("spinshot.readout.fit_model", refuse)
        rep = readout_report(make_params(n=71))
        assert rep.cyclicity == pytest.approx(
            0.78 * decay_pulses_from_relaxation(131.0), rel=1e-12)

    def test_report_fields(self):
        rep = readout_report(make_params(n=71), 1)
        assert rep.n_pulses == 71
        assert rep.threshold == 1
        assert rep.readout_duration == pytest.approx(0.71)
        assert rep.cyclicity is not None
        assert rep.f_min == min(rep.f_bright, rep.f_dark)


class TestOptimize:
    def test_reported_optimum_re_evaluates_identically(self):
        params = make_params(n=100, dark_rate=10.0)
        res = optimize_readout(params, (1, 100))
        check = replace(params, n_pulses=res.n_star)
        rep = readout_fidelity(count_distribution(check, "bright"),
                               count_distribution(check, "dark"),
                               res.threshold_star)
        assert rep.f_min == res.f_star  # bitwise, same DP path

    def test_grid_shapes(self):
        res = optimize_readout(make_params(n=30), (5, 30))
        assert res.n_values.tolist() == list(range(5, 31))
        assert len(res.f_values) == 26
        assert res.f_star == res.f_values.max()

    def test_improves_on_boundary_choice(self):
        params = make_params(n=150, a=0.00512, b=0.00251, dark_rate=10.0)
        res = optimize_readout(params, (1, 150))
        assert 1 < res.n_star < 150  # interior optimum
        assert res.f_star >= res.f_values[-1]

    def test_deterministic_tie_break(self):
        r1 = optimize_readout(make_params(n=60), (1, 60))
        r2 = optimize_readout(make_params(n=60), (1, 60))
        assert (r1.n_star, r1.threshold_star, r1.f_star) == \
            (r2.n_star, r2.threshold_star, r2.f_star)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            optimize_readout(make_params(n=10), (5, 4))

    def test_csv(self, tmp_path):
        res = optimize_readout(make_params(n=10), (1, 10))
        path = tmp_path / "f.csv"
        res.to_csv(path)
        head = path.read_text().splitlines()[0]
        assert head == "n,threshold,f_bright,f_dark,f_min"


def full_scans(monkeypatch):
    """Pulse counts that optimize_readout scans again over all
    thresholds because the arms do not cross inside the window."""
    missed, scan = [], readout_module._scan

    def recording(arms, tops, pulses):
        rows = scan(arms, tops, pulses)
        missed.extend(p for p, row in zip(pulses, rows) if row is None)
        return rows

    monkeypatch.setattr(readout_module, "_scan", recording)
    return missed


def assert_same_bits_as_full_scan(params, n_range):
    got = optimize_readout(params, n_range)
    star, columns = optimize_readout_full_scan(params, n_range, _poisson_pmf)
    assert (got.n_star, got.threshold_star, got.f_star) == star
    for name, want in zip(("n_values", "threshold_values", "f_bright_values",
                           "f_dark_values", "f_values"), columns):
        assert np.array_equal(getattr(got, name), want), name


# (case, make_params overrides, N range, whether some N is scanned again
# over all thresholds because its arms do not cross inside the window)
CORNER_CASES = [
    # the dark pmf is longer than the signal: np.convolve swaps
    ("pmf_longer_than_n", dict(n=40, dark_rate=2e6), (1, 40), True),
    # the threshold climbs ~2 counts per pulse, past the window
    ("dark_outruns_window", dict(n=400, dark_rate=6.7e5), (1, 400), True),
    ("eta_outruns_window", dict(n=200, p=1.0, eta=1.0), (1, 200), True),
    # the arms never cross: every pulse is scanned in full
    ("frozen_d1", dict(n=300, a=0.0, b=0.0, p=1.0, eta=1.0, dark_rate=10.0),
     (1, 300), True),
    ("frozen", dict(n=200, a=0.0, b=0.0, dark_rate=10.0), (1, 200), False),
    ("d0", dict(n=200, eta=0.0, dark_rate=10.0), (1, 200), False),
    ("d1", dict(n=200, p=1.0, eta=1.0, a=0.02, b=0.01), (1, 200), False),
    ("no_dark_offset_range", dict(n=200), (3, 200), False),
    ("one_pulse", dict(n=1, dark_rate=10.0), (1, 1), False),
]


class TestOptimizeAgainstFullScan:
    """optimize_readout scans a window of thresholds on a DP trimmed to
    its support; every column must keep the bits of the full scan."""

    def test_paper_preset(self):
        params = readout_params(load_config("paper.cfg"), n_pulses=3000)
        assert_same_bits_as_full_scan(params, (1, 3000))

    @pytest.mark.parametrize("case,kw,n_range,falls_back", CORNER_CASES)
    def test_corner(self, case, kw, n_range, falls_back, monkeypatch):
        scanned = full_scans(monkeypatch)
        assert_same_bits_as_full_scan(make_params(**kw), n_range)
        assert bool(scanned) == falls_back

    @settings(max_examples=40)
    @given(a=st.one_of(st.just(0.0), flip_probs),
           b=st.one_of(st.just(0.0), flip_probs),
           p=st.floats(min_value=0.0, max_value=1.0),
           eta=st.floats(min_value=0.0, max_value=1.0),
           dark_rate=st.one_of(st.just(0.0),
                               st.floats(min_value=1.0, max_value=1e6)),
           n_lo=st.integers(min_value=1, max_value=150),
           extra=st.integers(min_value=0, max_value=250))
    def test_drawn(self, a, b, p, eta, dark_rate, n_lo, extra):
        n_hi = n_lo + extra
        params = make_params(n=n_hi, a=a, b=b, p=p, eta=eta, dark_rate=dark_rate)
        assert_same_bits_as_full_scan(params, (n_lo, n_hi))


def chain_passes(monkeypatch):
    """The _chain passes of the calls that follow, one list of
    arguments per pass."""
    passes, chain = [], readout_module._chain

    def counting(*args):
        passes.append(args)
        return chain(*args)

    monkeypatch.setattr(readout_module, "_chain", counting)
    return passes


class TestOptimizeCountCap:
    """optimize_readout's chain keeps only the counts below a cap and
    starts over with the cap doubled when a block reads more; no row may
    depend on the cap."""

    def test_paper_preset_needs_one_pass(self, monkeypatch):
        params = readout_params(load_config("paper.cfg"), n_pulses=3000)
        passes = chain_passes(monkeypatch)
        optimize_readout(params, (1, 3000))
        assert [args[-1] for args in passes] == [readout_module._FIRST_CAP]

    def test_paper_preset_from_cap_1(self, monkeypatch):
        monkeypatch.setattr(readout_module, "_FIRST_CAP", 1)
        passes = chain_passes(monkeypatch)
        params = readout_params(load_config("paper.cfg"), n_pulses=3000)
        assert_same_bits_as_full_scan(params, (1, 3000))
        caps = [args[-1] for args in passes]
        assert caps[0] == 1 and len(caps) > 2
        assert caps == sorted(caps)

    @pytest.mark.parametrize("case,kw,n_range,falls_back", CORNER_CASES)
    @pytest.mark.parametrize("first_cap", [1, 3])
    def test_corner_from_small_cap(self, case, kw, n_range, falls_back, first_cap,
                                   monkeypatch):
        monkeypatch.setattr(readout_module, "_FIRST_CAP", first_cap)
        passes, scanned = chain_passes(monkeypatch), full_scans(monkeypatch)
        assert_same_bits_as_full_scan(make_params(**kw), n_range)
        assert bool(scanned) == falls_back
        # a chain never keeps more than the n + 1 counts there are
        assert passes[0][-1] == min(first_cap, n_range[1] + 1)
        # the first block reads at least one count past the cap, unless
        # the whole range fits under it
        assert len(passes) > 1 or n_range[1] + 1 <= first_cap


class TestChainSupport:
    @pytest.mark.parametrize("a,b,d,n", [
        ([0.5 / 131], [0.5 / 131], 0.078, 3000),
        ([0.0, 0.05, 0.5 / 131, 1.0], [0.25, 0.0, 0.5 / 131, 1.0], 0.3, 500),
        ([0.01], [0.02], 1.0, 200),       # the support grows every pulse
        ([0.01], [0.02], 0.0, 100),
        ([0.01], [0.02], 0.5, 12),        # narrower than one growth step
    ])
    @pytest.mark.parametrize("starts", [("bright", "dark"), ("dark",)])
    def test_live_counts_match_full_axis(self, a, b, d, n, starts):
        trimmed = readout_module._chain(a, b, d, starts, n)
        full = chain_full_axis(a, b, d, starts, n)
        for pulse, got, want in zip(range(1, n + 1), trimmed, full):
            for arm, full_arm in zip(got, want):
                width = arm.shape[1]
                assert width <= n + 1
                assert np.array_equal(arm, full_arm[:, :width]), pulse
                assert not full_arm[:, width:].any(), pulse


    @pytest.mark.parametrize("cap", [1, 2, 17, 64, None])
    @pytest.mark.parametrize("a,b,d,n", [
        ([0.5 / 131], [0.5 / 131], 0.078, 600),
        ([0.0, 0.05, 0.5 / 131, 1.0], [0.25, 0.0, 0.5 / 131, 1.0], 0.3, 150),
        ([0.01], [0.02], 1.0, 90),        # the support grows every pulse
    ])
    def test_capped_counts_match_full_axis(self, a, b, d, n, cap):
        full = chain_full_axis(a, b, d, ("bright", "dark"), n)
        capped = readout_module._chain(a, b, d, ("bright", "dark"), n, cap)
        for pulse, got, want in zip(range(1, n + 1), capped, full):
            width = got.shape[2]
            assert width <= min(n + 1, cap or n + 1)
            for arm, full_arm in zip(got, want):
                assert np.array_equal(arm, full_arm[:, :width]), pulse
                if cap is None or width < cap:
                    assert not full_arm[:, width:].any(), pulse


def line_arms(params, relaxation, s, threshold=1, chunk=64):
    """F_bright and F_dark of ``params`` along the calibration line
    a = s/R, b = (1-s)/R, from batched DP passes of <= ``chunk`` points."""
    f_bright, f_dark = [], []
    for lo in range(0, len(s), chunk):
        part = s[lo:lo + chunk]
        for dist_b, dist_d in _distributions(params, part / relaxation,
                                             (1.0 - part) / relaxation):
            report = readout_fidelity(dist_b, dist_d, threshold)
            f_bright.append(report.f_bright)
            f_dark.append(report.f_dark)
    return np.array(f_bright), np.array(f_dark)


def paper_params(n):
    cfg = load_config("paper.cfg")
    return cfg.number("readout", "relaxation_constant"), readout_params(cfg, n)


@functools.lru_cache(maxsize=None)
def paper_arms(n, points):
    """s grid and the threshold-1 arms of the paper.cfg readout at N = n."""
    relaxation, params = paper_params(n)
    s = np.linspace(0.0, 1.0, points)
    return (s, *line_arms(params, relaxation, s))


def paper_calibration(n, target=0.869):
    relaxation, params = paper_params(n)
    return calibrate_flip_asymmetry(params, relaxation, target, 1)


def fidelity_at(params, a, b, threshold=1):
    params = replace(params, flip_bright=a, flip_dark=b)
    return readout_fidelity(count_distribution(params, "bright"),
                            count_distribution(params, "dark"), threshold)


class TestCalibrationArms:
    """The calibration search brackets roots of F_dark - F_bright and of
    each arm minus the target, so it relies on F_bright falling and
    F_dark rising along a = s/R, b = (1-s)/R."""

    @pytest.mark.parametrize("n,points", [(71, 2001), (500, 257)])
    def test_arms_monotone_in_asymmetry(self, n, points):
        _, f_bright, f_dark = paper_arms(n, points)
        assert np.all(np.diff(f_bright) <= 0.0)
        assert np.all(np.diff(f_dark) >= 0.0)
        assert f_bright[0] > f_bright[-1] and f_dark[0] < f_dark[-1]


class TestCalibration:
    def test_symmetric_fixed_point(self):
        # target the fidelity of the symmetric split; expect s = 1/2
        p = make_params(n=71, dark_rate=10.0)
        rep = readout_fidelity(count_distribution(p, "bright"),
                               count_distribution(p, "dark"), 1)
        cal = calibrate_flip_asymmetry(p, 131.0, rep.f_min, 1)
        assert cal.asymmetry == pytest.approx(0.5, abs=1e-3)
        assert cal.a + cal.b == pytest.approx(1.0 / 131.0, rel=1e-12)
        assert cal.achieved_f == pytest.approx(rep.f_min, abs=1e-4)

    def test_nominal_target_needs_positive_asymmetry(self):
        cal = calibrate_flip_asymmetry(make_params(n=71, dark_rate=10.0),
                                       131.0, 0.869, 1)
        assert cal.asymmetry > 0.5
        assert cal.achieved_f == pytest.approx(0.869, abs=1e-3)
        assert cal.a > cal.b

    def test_unreachable_target(self):
        with pytest.raises(CalibrationError) as exc:
            calibrate_flip_asymmetry(make_params(n=71), 131.0, 0.999, 1)
        lo, hi = exc.value.attainable
        assert 0.0 < lo < hi < 0.999

    @pytest.mark.parametrize("n,points", [(71, 2001), (500, 257)])
    def test_paper_preset_contract(self, n, points):
        target, tol = 0.869, 1e-4
        cal = paper_calibration(n, target)
        s, f_bright, f_dark = paper_arms(n, points)
        f_min = np.minimum(f_bright, f_dark)
        assert abs(cal.achieved_f - target) <= tol
        # f_max is no worse than any grid point and no better than the
        # bound the monotone arms put on the peak near the grid maximum
        i = int(np.argmax(f_min))
        assert cal.f_max >= f_min[i] - 1e-9
        assert cal.f_max <= min(f_bright[i - 1], f_dark[i + 1]) + 1e-12
        # the target is reachable on the rising branch (above f_left), so
        # the answer lies there: F_dark is the smaller arm
        relaxation, params = paper_params(n)
        assert f_min[0] <= target
        report = fidelity_at(params, cal.a, cal.b)
        assert report.f_dark <= report.f_bright
        assert cal.asymmetry <= s[i + 1]
        assert abs(report.f_min - cal.achieved_f) <= 1e-12
        assert cal.a + cal.b == pytest.approx(1.0 / relaxation, rel=1e-12)

    @pytest.mark.parametrize("n", [71, 500])
    def test_dp_pass_count(self, n, monkeypatch):
        passes = chain_passes(monkeypatch)
        paper_calibration(n)
        assert 0 < len(passes) <= 20
        # the search passes keep only the counts below the threshold and
        # the dark pmf's length; one full-support pass gives the answer
        caps = [args[5] if len(args) > 5 else None for args in passes]
        assert caps.count(None) == 1
        assert all(cap < n + 1 for cap in caps if cap is not None)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def oracle(n, threshold, dark_rate, points=2001):
        params = make_params(n=n, dark_rate=dark_rate)
        s = np.linspace(0.0, 1.0, points)
        f_bright, f_dark = line_arms(params, 131.0, s, threshold)
        return params, s, f_bright, f_dark, np.minimum(f_bright, f_dark)

    def test_falling_branch_fallback(self):
        # at threshold 3 the s = 0 fidelity exceeds the s = 1 one, so a
        # target between them is met only right of the peak
        params, s, f_bright, f_dark, f_min = self.oracle(71, 3, 10.0)
        target = 0.75
        assert f_min[-1] <= target < f_min[0]
        cal = calibrate_flip_asymmetry(params, 131.0, target, 3)
        assert abs(cal.achieved_f - target) <= 1e-4
        assert cal.asymmetry >= s[int(np.argmax(f_min)) - 1]
        report = fidelity_at(params, cal.a, cal.b, 3)
        assert report.f_bright <= report.f_dark
        assert abs(report.f_min - cal.achieved_f) <= 1e-12
        assert cal.f_max >= f_min.max() - 1e-9

    @pytest.mark.parametrize("n,dark_rate,end,sign", [(20, 10.0, 0, 1),
                                                      (71, 1000.0, -1, -1)],
                             ids=["peak-at-s0", "peak-at-s1"])
    def test_peak_at_endpoint(self, n, dark_rate, end, sign):
        # F_dark - F_bright keeps one sign, so min(F_bright, F_dark) is
        # monotone and peaks at an end of the line
        params, s, f_bright, f_dark, f_min = self.oracle(n, 1, dark_rate)
        assert np.all(np.sign(f_dark - f_bright) == sign)
        target = f_min[end] + 0.5e-4
        cal = calibrate_flip_asymmetry(params, 131.0, target, 1)
        assert cal.asymmetry == s[end]
        assert cal.f_max == cal.achieved_f == f_min[end]

    def test_unreachable_keeps_message_and_range(self):
        params, s, f_bright, f_dark, f_min = self.oracle(71, 1, 10.0)
        target = f_min.max() + 2e-4
        with pytest.raises(CalibrationError,
                           match="unreachable; attainable range") as exc:
            calibrate_flip_asymmetry(params, 131.0, target, 1)
        lo, hi = exc.value.attainable
        assert lo == min(f_min[0], f_min[-1])
        assert f_min.max() - 1e-9 <= hi < target - 1e-4

    def test_below_both_endpoints(self):
        params, s, f_bright, f_dark, f_min = self.oracle(71, 1, 10.0)
        target = 0.5
        assert target < min(f_min[0], f_min[-1])
        with pytest.raises(CalibrationError,
                           match="below both endpoints") as exc:
            calibrate_flip_asymmetry(params, 131.0, target, 1)
        lo, hi = exc.value.attainable
        assert lo == min(f_min[0], f_min[-1])
        assert hi >= f_min.max() - 1e-9

    def test_sum_constraint_always_held(self):
        cal = calibrate_flip_asymmetry(make_params(n=100, p=0.9, eta=0.2),
                                       200.0, 0.9, 1)
        assert cal.a + cal.b == pytest.approx(1.0 / 200.0, rel=1e-12)


class _SearchEvaluate(Exception):
    """Carries calibrate_flip_asymmetry's search evaluate out of the call."""


def search_evaluate(params, relaxation, threshold):
    """The function that calibrate_flip_asymmetry's root search evaluates:
    s points -> (F_bright, F_dark) per point, from capped DP passes."""
    def capture(evaluate, *args):
        raise _SearchEvaluate(evaluate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(readout_module, "_increasing_roots", capture)
        with pytest.raises(_SearchEvaluate) as exc:
            calibrate_flip_asymmetry(params, relaxation, 0.5, threshold)
    return exc.value.args[0]


def calibration_or_error(calibrate, *args):
    try:
        return calibrate(*args)
    except CalibrationError as exc:
        return exc


def calibration_targets(params, threshold):
    """Targets on the rising branch, on the falling branch where there is
    one, and past both error edges, and the full-support fidelity at
    s = 0.  The edges come from the oracle's attainable range and the
    full-support fidelities at s = 0 and s = 1."""
    top = calibration_or_error(calibrate_flip_asymmetry_full_passes,
                               params, 131.0, 1.0 - 1e-9, threshold)
    f_max = top.attainable[1]
    f_left, f_right = (readout_fidelity(*pair, threshold).f_min for pair in
                       _distributions(params, [0.0, 1.0 / 131.0], [1.0 / 131.0, 0.0]))
    targets = [f_max + 2e-4, min(f_left, f_right) - 1e-3]
    if f_left < f_max:
        targets.append(0.5 * (f_left + f_max))
    if f_right < f_left:
        targets.append(0.5 * (f_right + f_left))
    return [target for target in targets if 0.0 < target < 1.0], f_left


class TestCalibrationSearchPasses:
    """The root search runs on capped DP passes and one full-support pass
    gives the reported values: against the search on full passes, a
    rising-branch answer keeps every bit, and f_max and a falling-branch
    root move at most within the search's own bracket."""

    @pytest.mark.parametrize("dark_rate", [0.0, 10.0, 1000.0])
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    @pytest.mark.parametrize("n", [20, 71, 500])
    def test_matches_full_pass_search(self, n, threshold, dark_rate):
        params = make_params(n=n, dark_rate=dark_rate)
        targets, f_left = calibration_targets(params, threshold)
        for target in targets:
            want = calibration_or_error(calibrate_flip_asymmetry_full_passes,
                                        params, 131.0, target, threshold)
            got = calibration_or_error(calibrate_flip_asymmetry, params, 131.0,
                                       target, threshold)
            assert type(got) is type(want), (target, got, want)
            if isinstance(want, CalibrationError):
                assert str(got).split(" ")[:4] == str(want).split(" ")[:4]
                assert got.attainable[0] == want.attainable[0]
                assert got.attainable[1] == pytest.approx(want.attainable[1], abs=1e-12)
                continue
            assert got.f_max == pytest.approx(want.f_max, abs=1e-12)
            if target >= f_left:
                # rising branch: the search reads only F_dark
                assert (got.a, got.b, got.asymmetry, got.achieved_f) == \
                    (want.a, want.b, want.asymmetry, want.achieved_f), target
            else:
                assert got.asymmetry == pytest.approx(want.asymmetry, abs=2e-12)
                assert got.achieved_f == pytest.approx(want.achieved_f, abs=1e-12)

    @given(n=st.integers(min_value=1, max_value=120),
           threshold=st.integers(min_value=1, max_value=6),
           dark_rate=st.sampled_from([0.0, 10.0, 1e4, 2e5, 1e6]),
           s=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                      max_size=4))
    # a dark pmf longer than the threshold, and one longer than N + 1
    @example(n=120, threshold=2, dark_rate=1e4, s=[0.3, 0.9])
    @example(n=3, threshold=1, dark_rate=1e6, s=[0.0, 1.0])
    @settings(max_examples=60, deadline=None)
    def test_capped_arms_match_full_support(self, n, threshold, dark_rate, s):
        params = make_params(n=n, dark_rate=dark_rate)
        s = np.array(s)
        arms = search_evaluate(params, 131.0, threshold)(s)
        for (f_bright, f_dark), (dist_b, dist_d) in zip(
                arms, _distributions(params, s / 131.0, (1.0 - s) / 131.0)):
            assert f_dark == dist_d.prob_below(threshold)
            assert f_bright == 1.0 - dist_b.prob_below(threshold)


class TestDarkPenalty:
    def test_zero_rate(self):
        assert dark_count_penalty(make_params(n=71), 1) == 0.0

    def test_ideal_dark_closed_form(self):
        p = make_params(n=71, b=0.0, dark_rate=10.0, gate_window=3.0)
        mu = 10.0 * 3.0e-6 * 71
        assert dark_count_penalty(p, 1) == pytest.approx(
            1.0 - math.exp(-mu), abs=1e-15)

    def test_small_rate_linearity(self):
        p1 = make_params(n=71, dark_rate=10.0)
        p2 = make_params(n=71, dark_rate=20.0)
        ratio = dark_count_penalty(p2, 1) / dark_count_penalty(p1, 1)
        assert ratio == pytest.approx(2.0, abs=0.01)

    def test_penalty_equals_f_dark_difference(self):
        noisy = make_params(n=31, dark_rate=40.0)
        quiet = make_params(n=31)
        for thr in (1, 2, 3):
            f_quiet = count_distribution(quiet, "dark").prob_below(thr)
            f_noisy = count_distribution(noisy, "dark").prob_below(thr)
            assert dark_count_penalty(noisy, thr) == pytest.approx(
                f_quiet - f_noisy, abs=1e-14)


class TestParamsValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            make_params(p=1.5)

    def test_bad_pulse_count(self):
        with pytest.raises(ValueError):
            make_params(n=0)

    def test_pulse_count_must_be_an_integer(self):
        # used to fail in the DP, as range()'s bare TypeError
        with pytest.raises(InvalidConfigError,
                           match=r"^n_pulses must be an integer, got 2\.5$"):
            make_params(n=2.5)
        assert make_params(n=np.int64(71)).n_pulses == 71

    def test_duration_property(self):
        assert make_params(n=71).duration_ms == pytest.approx(0.71)

    def test_dark_count_mean(self):
        p = make_params(n=71, dark_rate=10.0, gate_window=3.0)
        assert p.dark_count_mean == pytest.approx(2.13e-3, rel=1e-12)

    @pytest.mark.parametrize("dark_rate,gate_window", [
        (1e300, 3.0), (1e300, 1e300), (CAPACITY_DARK_MEAN / (3e-6 * 71) * 1.01, 3.0)])
    def test_dark_count_mean_capacity(self, dark_rate, gate_window):
        with pytest.raises(CapacityError, match="dark-count mean"):
            within_seconds(1.0, lambda: make_params(
                dark_rate=dark_rate, gate_window=gate_window))

    def test_dark_count_mean_at_capacity(self):
        params = make_params(n=1, dark_rate=CAPACITY_DARK_MEAN / 3e-6)
        assert params.dark_count_mean <= CAPACITY_DARK_MEAN
