import dataclasses
import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinshot.estimators import PhotonRecords, fit_model, g2_pulsed
from spinshot.physics import (GHZ_PER_G_TESLA, MAX_SPIN_FREQUENCY_MHZ, CavityConfig,
                              CyclicityDivergenceError, EmitterConfig,
                              InvalidConfigError, ZeemanConfig,
                              cavity_linewidth, check_count, detection_efficiency_budget,
                              effective_lifetime, lorentzian_suppression,
                              predicted_cyclicity, purcell_factor,
                              zeeman_transitions)
from spinshot.montecarlo import BathParams, run_protocol, simulate_readout_shots
from spinshot.readout import (ReadoutParams, calibrate_flip_asymmetry,
                              count_distribution, cyclicity, dark_count_penalty,
                              fidelity_reports, optimize_readout, readout_fidelity,
                              readout_report)

positive = st.floats(min_value=1e-3, max_value=1e9,
                     allow_nan=False, allow_infinity=False)


def _cavity(freq=194954.05, q=82000.0, fp=177.0, **kw):
    return CavityConfig(resonance_frequency_ghz=freq, quality_factor=q,
                        purcell_on_resonance=fp, **kw)


class TestCavityLinewidth:
    def test_nominal_value(self, nominal_cavity):
        kappa = cavity_linewidth(nominal_cavity)
        assert kappa == pytest.approx(194954.05 / 82000.0, rel=1e-15)
        assert kappa == pytest.approx(2.3775, abs=5e-4)
        # measured band 2.37 +/- 0.06
        assert 2.37 - 0.06 <= kappa <= 2.37 + 0.06

    @given(nu=positive, q=positive, s=st.floats(min_value=1e-3, max_value=1e3))
    def test_homogeneity(self, nu, q, s):
        base = cavity_linewidth(_cavity(freq=nu, q=q))
        assert cavity_linewidth(_cavity(freq=s * nu, q=q)) == pytest.approx(
            s * base, rel=1e-12)
        assert cavity_linewidth(_cavity(freq=nu, q=s * q)) == pytest.approx(
            base / s, rel=1e-12)


class TestLorentzian:
    def test_center_and_half_width(self):
        assert lorentzian_suppression(0.0, 2.0) == 1.0
        # FWHM definition: weight is exactly 1/2 one half-width out
        assert lorentzian_suppression(1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert lorentzian_suppression(-1.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    @given(delta=st.floats(min_value=-1e3, max_value=1e3,
                           allow_nan=False), width=positive)
    def test_even_and_bounded(self, delta, width):
        val = lorentzian_suppression(delta, width)
        assert 0.0 < val <= 1.0
        assert val == pytest.approx(lorentzian_suppression(-delta, width),
                                    rel=1e-12)

    @given(width=positive,
           d1=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
           d2=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    def test_monotone_in_abs_detuning(self, width, d1, d2):
        lo, hi = sorted((d1, d2))
        assert (lorentzian_suppression(hi, width)
                <= lorentzian_suppression(lo, width) + 1e-15)


class TestPurcell:
    @given(x=positive)
    def test_identity_ratio(self, x):
        assert purcell_factor(x, x) == pytest.approx(1.0, rel=1e-12)

    def test_nominal_enhancement(self):
        fp = purcell_factor(142.0, 0.803)
        assert fp == pytest.approx(176.8, abs=0.05)
        assert 177 - 2 <= fp <= 177 + 2

    def test_effective_lifetime_round_trip(self, nominal_emitter,
                                           nominal_cavity):
        tau0 = effective_lifetime(nominal_emitter, nominal_cavity, 0.0)
        assert tau0 == pytest.approx(142.0 / 177.0, rel=1e-12)
        assert 0.802 <= tau0 <= 0.804
        # far detuned the cavity does nothing
        far = effective_lifetime(nominal_emitter, nominal_cavity, 1e6)
        assert far == pytest.approx(142.0, rel=1e-6)

    def test_lifetime_monotone_in_detuning(self, nominal_emitter,
                                           nominal_cavity):
        taus = [effective_lifetime(nominal_emitter, nominal_cavity, d)
                for d in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert taus == sorted(taus)


class TestTransitions:
    def test_nominal_splittings(self, nominal_emitter, nominal_field):
        t = zeeman_transitions(nominal_emitter, nominal_field)
        assert t.ground_splitting_ghz == pytest.approx(
            0.857 * GHZ_PER_G_TESLA * 0.3, rel=1e-12)
        assert t.ground_splitting_ghz == pytest.approx(3.6, abs=0.01)
        assert t.excited_splitting_ghz == pytest.approx(
            1.2 * GHZ_PER_G_TESLA * 0.3, rel=1e-12)
        # A and D share the upper level: their spacing is the ground
        # splitting (absolute tolerance: the subtraction cancels ~11 of
        # the 16 digits carried by the ~2e5 GHz absolute frequencies)
        assert t.freq_a_ghz - t.freq_d_ghz == pytest.approx(
            t.ground_splitting_ghz, abs=1e-9)

    @given(gg=st.floats(min_value=0.05, max_value=15, allow_nan=False),
           ge=st.floats(min_value=0.05, max_value=15, allow_nan=False),
           b=st.floats(min_value=0.0, max_value=10, allow_nan=False))
    def test_sum_rule(self, gg, ge, b):
        em = EmitterConfig(194954.05, gg, ge, 142.0, 13.5)
        t = zeeman_transitions(em, ZeemanConfig(b))
        assert t.freq_a_ghz + t.freq_b_ghz == pytest.approx(
            t.freq_c_ghz + t.freq_d_ghz, rel=1e-12)
        assert t.freq_a_ghz + t.freq_b_ghz == pytest.approx(
            2 * 194954.05, rel=1e-12)

    def test_by_label_round_trip(self, nominal_emitter, nominal_field):
        t = zeeman_transitions(nominal_emitter, nominal_field)
        labels = t.by_label()
        assert list(labels) == ["A", "B", "C", "D"]
        assert labels["A"] == t.freq_a_ghz
        assert labels["D"] == t.freq_d_ghz

    def test_zero_field_degenerate(self, nominal_emitter):
        t = zeeman_transitions(nominal_emitter, ZeemanConfig(0.0))
        assert t.ground_splitting_ghz == 0.0
        assert t.freq_a_ghz == t.freq_b_ghz == t.freq_c_ghz == t.freq_d_ghz


class TestBudget:
    def test_nominal_budget(self, nominal_cavity):
        eta = detection_efficiency_budget(nominal_cavity)
        assert eta == pytest.approx(0.40 * 0.50 * 0.78 * 0.80, rel=1e-15)
        assert 0.08 <= eta <= 0.13

    def test_defaults_are_unity(self):
        assert detection_efficiency_budget(_cavity()) == 1.0

    def test_eta_out_of_range(self):
        with pytest.raises(InvalidConfigError):
            _cavity(eta_switch=1.2)
        with pytest.raises(InvalidConfigError):
            _cavity(eta_detector=-0.1)


class TestCyclicity:
    def test_ratio(self):
        assert predicted_cyclicity(100.0, 1.0) == pytest.approx(100.0)

    def test_zero_flip_diverges(self):
        with pytest.raises(CyclicityDivergenceError):
            predicted_cyclicity(177.0, 0.0)


# each argument of the formula helpers: a call with the argument in the
# place of ``v``, and the first value past each end of its interval
HELPER_ARGUMENTS = {
    "tau_bulk_us": (lambda v: purcell_factor(v, 1.0), [0.0, math.inf]),
    "tau_cavity_us": (lambda v: purcell_factor(1.0, v), [0.0, math.inf]),
    "linewidth_fwhm_ghz": (lambda v: lorentzian_suppression(0.0, v), [0.0, math.inf]),
    "branching_enhanced": (lambda v: predicted_cyclicity(v, 1.0), [-5e-324, math.inf]),
    "branching_flip": (lambda v: predicted_cyclicity(1.0, v), [-5e-324, math.inf]),
    "p_excite": (lambda v: cyclicity(v, 100.0), [0.0, math.nextafter(1.0, 2.0)]),
    "n0": (lambda v: cyclicity(0.5, v), [0.0, math.inf]),
}


class TestFormulaArguments:
    """purcell_factor, lorentzian_suppression's linewidth,
    predicted_cyclicity and readout.cyclicity check each argument with
    check_range: NaN, +-inf and a value past either end raise an
    InvalidConfigError naming the argument."""

    @pytest.mark.parametrize("name,value", [
        (name, value) for name, (_, past) in HELPER_ARGUMENTS.items()
        for value in dict.fromkeys([math.nan, math.inf, -math.inf, *past])])
    def test_rejected(self, name, value):
        with pytest.raises(InvalidConfigError, match=rf"^{name} must be finite and in "):
            HELPER_ARGUMENTS[name][0](value)


class TestValidation:
    def test_bad_lifetime(self):
        with pytest.raises(InvalidConfigError):
            EmitterConfig(194954.05, 0.857, 1.2, 0.0, 13.5)

    def test_bad_g_factor(self):
        with pytest.raises(InvalidConfigError):
            EmitterConfig(194954.05, -0.857, 1.2, 142.0, 13.5)

    def test_bad_quality_factor(self):
        with pytest.raises(InvalidConfigError):
            _cavity(q=0.0)

    def test_negative_field(self):
        with pytest.raises(InvalidConfigError):
            ZeemanConfig(-0.3)

    def test_configs_frozen(self, nominal_emitter):
        with pytest.raises(Exception):
            nominal_emitter.g_ground = 1.0


def test_suppression_at_nominal_detuning():
    # ground splitting ~1.5 linewidths off resonance: order ten-fold weaker
    kappa = 194954.05 / 82000.0
    sup = lorentzian_suppression(3.6, kappa)
    assert 0.08 <= sup <= 0.12
    assert sup == pytest.approx(1.0 / (1.0 + (2 * 3.6 / kappa) ** 2), rel=1e-12)


def test_constants_linear_zeeman():
    # mu_B / h in GHz per (g * tesla)
    assert GHZ_PER_G_TESLA == pytest.approx(13.9962, abs=1e-3)


# a valid instance's arguments for each of the five parameter types, and the
# interval of each of their numeric fields as (low, high, open_low, open_high)
VALID = {
    EmitterConfig: dict(zero_field_frequency_ghz=194954.05, g_ground=0.857,
                        g_excited=1.2, bulk_lifetime_us=142.0),
    CavityConfig: dict(resonance_frequency_ghz=194954.05, quality_factor=82000.0,
                       purcell_on_resonance=177.0),
    ZeemanConfig: dict(magnetic_field_t=0.3),
    ReadoutParams: dict(n_pulses=71, p_excite=0.78, eta_detect=0.1,
                        flip_bright=0.004, flip_dark=0.004),
    BathParams: {},
}
POSITIVE = (0.0, math.inf, True, True)
NON_NEGATIVE = (0.0, math.inf, False, True)
UNIT = (0.0, 1.0, False, False)
RANGES = {
    (EmitterConfig, "zero_field_frequency_ghz"): POSITIVE,
    (EmitterConfig, "g_ground"): POSITIVE,
    (EmitterConfig, "g_excited"): POSITIVE,
    (EmitterConfig, "bulk_lifetime_us"): POSITIVE,
    (EmitterConfig, "spectral_diffusion_fwhm_mhz"): NON_NEGATIVE,
    (CavityConfig, "resonance_frequency_ghz"): POSITIVE,
    (CavityConfig, "quality_factor"): POSITIVE,
    (CavityConfig, "purcell_on_resonance"): (1.0, math.inf, False, True),
    (CavityConfig, "eta_waveguide"): UNIT,
    (CavityConfig, "eta_offchip"): UNIT,
    (CavityConfig, "eta_switch"): UNIT,
    (CavityConfig, "eta_detector"): UNIT,
    (ZeemanConfig, "magnetic_field_t"): NON_NEGATIVE,
    (ReadoutParams, "p_excite"): UNIT,
    (ReadoutParams, "eta_detect"): UNIT,
    (ReadoutParams, "flip_bright"): UNIT,
    (ReadoutParams, "flip_dark"): UNIT,
    (ReadoutParams, "dark_rate"): NON_NEGATIVE,
    (ReadoutParams, "gate_window"): NON_NEGATIVE,
    (ReadoutParams, "pulse_period"): POSITIVE,
    (BathParams, "odmr_sigma"): NON_NEGATIVE,
    (BathParams, "t1_spin"): POSITIVE,
    (BathParams, "t2_echo"): POSITIVE,
    (BathParams, "echo_exponent"): POSITIVE,
}


class TestFieldRanges:
    """Each numeric field of the five parameter types rejects NaN, +-inf
    and the first values past its interval, naming itself, and accepts
    its closed ends."""

    def test_table_covers_every_numeric_field(self):
        numeric = {(cls, spec.name) for cls in VALID for spec in fields(cls)
                   if spec.type == "float"}
        assert numeric == set(RANGES)

    @pytest.mark.parametrize("cls,name", list(RANGES),
                             ids=[f"{cls.__name__}.{name}" for cls, name in RANGES])
    def test_field_interval(self, cls, name):
        low, high, open_low, open_high = RANGES[cls, name]
        outside = [math.nan, math.inf, -math.inf,
                   low if open_low else math.nextafter(low, -math.inf)]
        if high < math.inf:
            outside.append(high if open_high else math.nextafter(high, math.inf))
        for value in outside:
            with pytest.raises(InvalidConfigError,
                               match=rf"^{name} must be finite and in "):
                cls(**{**VALID[cls], name: value})
        closed_ends = [end for end, is_open in ((low, open_low), (high, open_high))
                       if not is_open and math.isfinite(end)]
        for value in closed_ends:
            assert getattr(cls(**{**VALID[cls], name: value}), name) == value


class TestRejectedConstructions:
    """Constructions that used to pass and fail later, or not at all."""

    @pytest.mark.parametrize("build,name", [
        (lambda: EmitterConfig(194954.05, 0.857, 1.2, bulk_lifetime_us=math.nan),
         "bulk_lifetime_us"),
        (lambda: EmitterConfig(-1.0, 0.857, 1.2, 142.0), "zero_field_frequency_ghz"),
        (lambda: ZeemanConfig(math.nan), "magnetic_field_t"),
        (lambda: CavityConfig(194954.05, quality_factor=math.inf,
                              purcell_on_resonance=177.0), "quality_factor"),
        # a T1 curve of zeros
        (lambda: BathParams(t1_spin=math.nan), "t1_spin"),
        # numpy's "Probabilities contain NaN" at the first ODMR draw
        (lambda: BathParams(odmr_weights=(math.nan,) * 3), "odmr_weights"),
        # a ZeroDivisionError in effective_lifetime
        (lambda: CavityConfig(194954.05, 82000.0, purcell_on_resonance=0),
         "purcell_on_resonance"),
    ], ids=["emitter-nan-lifetime", "emitter-negative-frequency", "zeeman-nan-field",
            "cavity-inf-q", "bath-nan-t1", "bath-nan-weights", "cavity-zero-purcell"])
    def test_fails_naming_the_field(self, build, name):
        with pytest.raises(InvalidConfigError, match=rf"^{name} must "):
            build()


# one call per count argument, with the count in the place of ``v``; each
# runs at a small size so that the valid count 3 stays fast
READOUT = ReadoutParams(71, 0.78, 0.1, 0.5 / 131, 0.5 / 131, dark_rate=10.0)
ODMR_X = np.linspace(-6.0, 6.0, 49)
ODMR_Y = sum(w * np.exp(-0.5 * ((ODMR_X - c) / 1.0) ** 2)
             for c, w in ((-3.3, 0.25), (0.0, 0.5), (3.3, 0.25)))
COUNT_CALLS = {
    "n_pulses": lambda v: ReadoutParams(v, 0.78, 0.1, 0.004, 0.004),
    "readout_fidelity": lambda v: readout_fidelity(
        count_distribution(READOUT, "bright"), count_distribution(READOUT, "dark"), v),
    "dark_count_penalty": lambda v: dark_count_penalty(READOUT, v),
    "fidelity_reports": lambda v: fidelity_reports(READOUT, [0.004], [0.003], threshold=v),
    "readout_report": lambda v: readout_report(READOUT, v),
    "calibrate_flip_asymmetry": lambda v: calibrate_flip_asymmetry(READOUT, 131.0, 0.75, v),
    "simulate_readout_shots": lambda v: simulate_readout_shots(READOUT, "bright", v, 1),
    "run_protocol": lambda v: run_protocol("odmr", [0.0, 1.0], BathParams(), shots=v),
    "g2_pulsed": lambda v: g2_pulsed(PhotonRecords(
        np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1.0, 12.0, 11.0]),
        np.zeros(3, dtype=np.int8), 2, 71), v),
    "n_range_low": lambda v: optimize_readout(READOUT, (v, 5)),
    "n_range_high": lambda v: optimize_readout(READOUT, (1, v)),
    "n_components": lambda v: fit_model("gaussian_sum", ODMR_X, ODMR_Y, n_components=v),
}
COUNT_NAMES = {"readout_fidelity": "threshold", "dark_count_penalty": "threshold",
               "fidelity_reports": "threshold", "readout_report": "threshold",
               "calibrate_flip_asymmetry": "threshold",
               "simulate_readout_shots": "shots", "run_protocol": "shots",
               "g2_pulsed": "n_lags", "n_range_low": "n_range[0]",
               "n_range_high": "n_range[1]"}


def plain(result):
    """``result`` with its dataclasses turned into dicts, for np.testing."""
    if isinstance(result, list):
        return [plain(item) for item in result]
    return dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result


class TestCountArguments:
    """Every count argument goes through check_count: a value below 1, or
    one that is not an integer, is an InvalidConfigError that names it,
    and a numpy integer counts as the int it equals."""

    @pytest.mark.parametrize("call", list(COUNT_CALLS))
    @pytest.mark.parametrize("value", [0, -1, 2.5, np.float64(3.0), -10**5000],
                             ids=["0", "-1", "2.5", "float64-3", "huge-negative"])
    def test_rejected(self, call, value):
        name = re.escape(COUNT_NAMES.get(call, call))
        with pytest.raises(InvalidConfigError, match=rf"^{name} must be (>= 1|an integer)"):
            COUNT_CALLS[call](value)

    @pytest.mark.parametrize("call", list(COUNT_CALLS))
    def test_numpy_integer(self, call):
        np.testing.assert_equal(plain(COUNT_CALLS[call](np.int64(3))),
                                plain(COUNT_CALLS[call](3)))

    def test_check_count_low(self):
        assert check_count("n", 5, low=5) == 5
        assert type(check_count("n", np.int64(5))) is int
        with pytest.raises(InvalidConfigError, match=r"^n must be >= 6, got 5$"):
            check_count("n", 5, low=6)

    def test_check_count_high(self):
        assert check_count("n", 5, high=5) == 5
        with pytest.raises(InvalidConfigError, match=r"^n must be <= 5, got 6$"):
            check_count("n", 6, high=5)

    @pytest.mark.parametrize("value,bound", [(-10**5000, ">= 1"), (10**5000, "<= 9")],
                             ids=["negative", "positive"])
    def test_check_count_huge(self, value, bound):
        # Python refuses to print an int of over 4300 digits
        with pytest.raises(InvalidConfigError,
                           match=rf"^n must be {bound}, got an int past the float range$"):
            check_count("n", value, high=9)

    def test_n_pulses_bounded_by_int64(self):
        assert ReadoutParams(sys.maxsize, 0.78, 0.1, 0.004, 0.004).n_pulses == sys.maxsize
        with pytest.raises(InvalidConfigError,
                           match=rf"^n_pulses must be <= {sys.maxsize}, got {sys.maxsize + 1}$"):
            ReadoutParams(sys.maxsize + 1, 0.78, 0.1, 0.004, 0.004)
        # an OverflowError naming nothing, from the dark-count mean, before
        with pytest.raises(InvalidConfigError, match=rf"^n_pulses must be <= {sys.maxsize}, "
                           "got an int past the float range$"):
            ReadoutParams(10**400, 0.78, 0.1, 0.004, 0.004)

    def test_threshold_checked_before_any_dp_pass(self, chain_passes):
        with pytest.raises(InvalidConfigError, match=r"^threshold must be >= 1, got 0$"):
            calibrate_flip_asymmetry(READOUT, 131.0, 0.75, 0)
        assert chain_passes == []


class TestBathLists:
    """BathParams checks its ODMR lists on construction: each center is
    finite and within +-MAX_SPIN_FREQUENCY_MHZ, each weight finite and
    >= 0, naming the field and the value."""

    @pytest.mark.parametrize("value,shown", [(math.nan, "nan"), (math.inf, "inf"),
                                             (-math.inf, "-inf"), (1e300, "1e+300"),
                                             (2e6, "2e+06")])
    def test_center_rejected(self, value, shown):
        with pytest.raises(InvalidConfigError, match=rf"^odmr_centers must be finite "
                           rf"and in \[-1e\+06, 1e\+06\], got {re.escape(shown)}$"):
            BathParams(odmr_centers=(-3.3, value, 3.3))

    @pytest.mark.parametrize("value,shown", [(math.nan, "nan"), (math.inf, "inf"),
                                             (-0.1, "-0.1")])
    def test_weight_rejected(self, value, shown):
        with pytest.raises(InvalidConfigError, match=rf"^odmr_weights must be finite "
                           rf"and in \[0, inf\), got {re.escape(shown)}$"):
            BathParams(odmr_weights=(0.25, value, 0.25))

    @pytest.mark.parametrize("weights,got", [
        ((0.5, 0.5), "2 summing to 1"),
        ((1e308, 1e308, 1e308), "3 summing to inf"),
        ((0.25, 0.25, 0.25), "3 summing to 0.75"),
    ], ids=["too-few", "sum-overflows", "sum-below-1"])
    def test_weight_list_rejected(self, weights, got):
        with pytest.raises(InvalidConfigError,
                           match=rf"^odmr_weights must be 3 weights summing to 1, got {got}$"):
            BathParams(odmr_weights=weights)

    def test_extreme_centers_accepted(self):
        bath = BathParams(odmr_centers=(-MAX_SPIN_FREQUENCY_MHZ, 0.0, MAX_SPIN_FREQUENCY_MHZ))
        assert bath.odmr_centers[2] == MAX_SPIN_FREQUENCY_MHZ


class TestIntPastTheFloatRange:
    """A Python int too large for a float is out of every interval, and
    the error still names the field (math.isfinite and the message's
    float format both overflow on it)."""

    @pytest.mark.parametrize("build,name", [
        (lambda: EmitterConfig(**{**VALID[EmitterConfig], "g_ground": 10**400}), "g_ground"),
        (lambda: CavityConfig(**{**VALID[CavityConfig], "quality_factor": 10**400}),
         "quality_factor"),
        (lambda: ZeemanConfig(10**400), "magnetic_field_t"),
        (lambda: ReadoutParams(71, 0.78, 0.1, 0.004, 0.004, dark_rate=10**400), "dark_rate"),
        (lambda: BathParams(t2_echo=10**400), "t2_echo"),
        (lambda: BathParams(odmr_centers=(0.0, 10**400, 1.0)), "odmr_centers"),
        (lambda: run_protocol("t1", [0.0], BathParams(), shots=3, mw_rabi_khz=10**400),
         "mw_rabi_khz"),
    ], ids=["emitter", "cavity", "zeeman", "readout", "bath", "bath-centers",
            "run-protocol"])
    def test_names_the_field(self, build, name):
        with pytest.raises(InvalidConfigError, match=rf"^{name} must be finite and in "
                           r".*, got an int past the float range$"):
            build()
