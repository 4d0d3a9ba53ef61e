import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinshot.physics import (GHZ_PER_G_TESLA, CavityConfig,
                              CyclicityDivergenceError, EmitterConfig,
                              InvalidConfigError, ZeemanConfig,
                              cavity_linewidth, detection_efficiency_budget,
                              effective_lifetime, lorentzian_suppression,
                              predicted_cyclicity, purcell_factor,
                              zeeman_transitions)
from spinshot.montecarlo import BathParams
from spinshot.readout import ReadoutParams

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
