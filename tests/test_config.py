import re

import pytest

from spinshot import cli
from spinshot.config import (KEYS, Config, ConfigError, bath_params,
                             cavity_config, emitter_config, load_config,
                             microwave_settings, parse_config, readout_params,
                             relaxation_constant, resolve_config_path,
                             zeeman_config)

GOOD = """\
; full-line comment
[emitter]
frequency_ghz = 194954.05   # inline comment
g_ground = 0.857
g_excited = 1.2
bulk_lifetime_us = 142
spectral_diffusion_fwhm_mhz = 13.5

[bath]
odmr_centers_mhz = -3.3, 0, 3.3
label = mixed case Value
"""


class TestParser:
    def test_sections_and_values(self):
        cfg = parse_config(GOOD, origin="inline")
        assert cfg.number("emitter", "frequency_ghz") == 194954.05
        assert cfg.number("emitter", "bulk_lifetime_us") == 142.0
        assert cfg.numbers("bath", "odmr_centers_mhz") == (-3.3, 0.0, 3.3)
        assert cfg.string("bath", "label") == "mixed case Value"

    def test_defaults(self):
        cfg = parse_config(GOOD, origin="inline")
        assert cfg.number("emitter", "missing", 7.5) == 7.5
        assert cfg.number("emitter", "missing", None) is None
        assert cfg.integer("emitter", "missing", 3) == 3

    def test_missing_key_raises(self):
        cfg = parse_config(GOOD, origin="inline")
        with pytest.raises(ConfigError):
            cfg.number("emitter", "missing")
        with pytest.raises(ConfigError):
            cfg.number("nosection", "frequency_ghz")

    def test_duplicate_key(self):
        text = "[a]\nx = 1\nx = 2\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text, origin="dup.cfg")
        assert "dup.cfg:3" in str(exc.value)
        assert "duplicate" in str(exc.value)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("x = 1\n", origin="o.cfg")
        assert "o.cfg:1" in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[a]\nnot a key value\n", origin="m.cfg")
        assert "m.cfg:2" in str(exc.value)

    def test_integer_accessor_rejects_fractional(self):
        cfg = parse_config("[a]\nn = 2.5\nm = 4\n", origin="i.cfg")
        assert cfg.integer("a", "m") == 4
        with pytest.raises(ConfigError):
            cfg.integer("a", "n")


    # accessor, default, key holding a value of another type, message
    @pytest.mark.parametrize("accessor,default,wrong_key,wrong", [
        ("number", 7.5, "word", "must be a number, got 'text'"),
        ("integer", 3, "num", "must be an integer, got 2.5"),
        ("numbers", (1.0, 2.0), "word", "must be a number list, got 'text'"),
        ("string", "(100)", "num", "must be a string, got 2.5"),
    ])
    @pytest.mark.parametrize("case", ["section absent", "key absent",
                                      "wrong type"])
    @pytest.mark.parametrize("with_default", [False, True])
    def test_accessor_fallbacks(self, accessor, default, wrong_key, wrong, case,
                                with_default):
        cfg = parse_config("[a]\nnum = 2.5\nword = text\n", origin="o.cfg")
        section, key, error = {
            "section absent": ("b", "num", "o.cfg: missing section [b]"),
            "key absent": ("a", "other", "o.cfg: missing key 'other' in [a]"),
            "wrong type": ("a", wrong_key, f"o.cfg: [a] {wrong_key} {wrong}"),
        }[case]
        read = getattr(cfg, accessor)
        if with_default and case != "wrong type":
            value = read(section, key, default)
            assert value == default and type(value) is type(default)
            assert read(section, key, None) is None
            return
        with pytest.raises(ConfigError) as exc:
            read(section, key, *((default,) if with_default else ()))
        assert str(exc.value) == error


class TestResolution:
    def test_packaged_preset(self):
        path = resolve_config_path("paper.cfg")
        assert path.endswith("paper.cfg")

    def test_explicit_path(self, tmp_path):
        p = tmp_path / "own.cfg"
        p.write_text("[field]\nmagnetic_field_t = 0.2\n")
        assert resolve_config_path(str(p)) == str(p)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            resolve_config_path("no-such-preset.cfg")


class TestBuilders:
    def test_paper_preset_builders(self, paper_cfg):
        em = emitter_config(paper_cfg)
        assert em.zero_field_frequency_ghz == 194954.05
        assert em.bulk_lifetime_us == 142.0
        cav = cavity_config(paper_cfg)
        assert cav.quality_factor == 82000.0
        assert cav.purcell_on_resonance == 177.0
        assert cav.eta_waveguide == 0.40
        z = zeeman_config(paper_cfg)
        assert z.magnetic_field_t == 0.3
        bath = bath_params(paper_cfg)
        assert bath.t1_spin == pytest.approx(0.44)
        assert bath.t2_echo == pytest.approx(48.0)
        mw = microwave_settings(paper_cfg)
        assert mw["mw_rabi_khz"] == pytest.approx(217.4)

    def test_readout_params_from_relaxation(self, paper_cfg):
        p = readout_params(paper_cfg)
        assert p.n_pulses == 71
        assert p.p_excite == 0.78
        # symmetric split of the relaxation constant: a = b = 0.5/131
        assert p.flip_bright == pytest.approx(0.5 / 131)
        assert p.flip_dark == pytest.approx(0.5 / 131)
        assert p.flip_bright + p.flip_dark == pytest.approx(1 / 131, rel=1e-12)

    def test_readout_params_override_n(self, paper_cfg):
        assert readout_params(paper_cfg, n_pulses=150).n_pulses == 150

    def test_readout_params_explicit_flips(self, tmp_path):
        p = tmp_path / "r.cfg"
        p.write_text(
            "[readout]\n"
            "n_pulses = 10\np_excite = 0.5\neta_detect = 0.2\n"
            "flip_bright = 0.01\nflip_dark = 0.002\n")
        params = readout_params(load_config(str(p)))
        assert params.flip_bright == 0.01
        assert params.flip_dark == 0.002

    @pytest.mark.parametrize("keys", [
        "flip_bright = 0.02", "flip_dark = 0.02",
        "flip_bright = 0.02\nflip_dark = 0.01",   # beside flip_asymmetry
    ])
    def test_lone_flip_key_or_one_beside_asymmetry_fails(self, keys, tmp_path, capsys):
        with open(resolve_config_path("paper.cfg"), encoding="utf-8") as fh:
            text = fh.read().replace("[readout]\n", f"[readout]\n{keys}\n")
        path = tmp_path / "flips.cfg"
        path.write_text(text)
        code = cli.main(["readout-optimize", "--config", str(path),
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [readout] flip_bright and flip_dark must be set "
            "together and without flip_asymmetry\n")

    def test_invalid_values_become_config_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(
            "[readout]\n"
            "n_pulses = 10\np_excite = 1.5\neta_detect = 0.2\n"
            "flip_bright = 0.01\nflip_dark = 0.002\n")
        with pytest.raises(ConfigError):
            readout_params(load_config(str(p)))

    def test_missing_key_names_origin_once(self, tmp_path):
        p = tmp_path / "r.cfg"
        p.write_text("[readout]\nn_pulses = 10\neta_detect = 0.2\n"
                     "flip_bright = 0.01\nflip_dark = 0.002\n")
        with pytest.raises(ConfigError) as exc:
            readout_params(load_config(str(p)))
        assert str(exc.value) == f"{p}: missing key 'p_excite' in [readout]"

    def test_removed_cavity_keys_still_load(self, tmp_path):
        # mode_volume and flip_dipole_projection were never read; configs
        # that still set them load unchanged
        path = tmp_path / "retired.cfg"
        path.write_text(
            "[cavity]\nresonance_frequency_ghz = 194954.05\n"
            "quality_factor = 82000\npurcell_on_resonance = 177\n"
            "mode_volume = 0.83\nflip_dipole_projection = 1.0\n")
        assert cavity_config(load_config(str(path))).quality_factor == 82000.0

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.cfg")


def paper_text():
    with open(resolve_config_path("paper.cfg"), encoding="utf-8") as fh:
        return fh.read()


class TestKnownKeys:
    BUILDERS = (emitter_config, cavity_config, zeeman_config, readout_params,
                relaxation_constant, bath_params, microwave_settings)

    def test_table_is_what_the_builders_read(self, tmp_path, monkeypatch):
        read = set()
        fetch = Config._fetch

        def recording_fetch(self, section, key, *default):
            read.add((section, key))
            return fetch(self, section, key, *default)

        monkeypatch.setattr(Config, "_fetch", recording_fetch)
        explicit = tmp_path / "flips.cfg"
        explicit.write_text(paper_text().replace(
            "flip_asymmetry = 0.5", "flip_bright = 0.004\nflip_dark = 0.003"))
        for path in ("paper.cfg", str(explicit)):
            cfg = load_config(path)
            for build in self.BUILDERS:
                build(cfg)
        # calibrate reads target_fidelity itself, and only without
        # --target-f; the retired [cavity] keys are accepted and never read
        read |= {("readout", "target_fidelity"), ("cavity", "mode_volume"),
                 ("cavity", "flip_dipole_projection")}
        assert read == {(section, key) for section, keys in KEYS.items()
                        for key in keys}

    @pytest.mark.parametrize("edit,named", [
        (("dark_rate_hz = 10", "dark_rate = 1000"), "unknown key [detection] "
                                                    "dark_rate; keys are "),
        (("[bath]", "[baths]"), "unknown section [baths]; sections are "),
        (("drive_jitter = 0", "drive_jitter = 0\n\n[notes]"),
         "unknown section [notes]; sections are "),
    ], ids=["misspelt-key", "misspelt-section", "empty-section"])
    def test_unknown_key_fails_naming_it(self, edit, named, tmp_path, capsys):
        text = paper_text()
        assert text.count(edit[0]) == 1
        path = tmp_path / "typo.cfg"
        path.write_text(text.replace(*edit))
        code = cli.main(["calibrate", "--config", str(path),
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {named}")
        assert not (tmp_path / "o").exists()


class TestReadoutKeyRanges:
    """Every [readout]/[detection] number calibrate reads is checked as
    finite and in range, so NaN cannot slip past a `x < 0` test and the
    message names the key, not a derived quantity."""

    @pytest.mark.parametrize("section,key,value", [
        (section, key, value)
        for section, key in (("detection", "dark_rate_hz"),
                             ("detection", "gate_window_us"),
                             ("readout", "pulse_period_us"),
                             ("readout", "relaxation_constant"),
                             ("readout", "flip_asymmetry"),
                             ("readout", "target_fidelity"))
        for value in ("nan", "inf")
    ] + [("readout", "target_fidelity", "0"),
         ("readout", "target_fidelity", "1.5"),
         ("readout", "relaxation_constant", "1"),
         ("readout", "pulse_period_us", "0"),
         ("detection", "dark_rate_hz", "-1")])
    def test_calibrate_rejects_key(self, section, key, value, tmp_path,
                                   capsys):
        with open(resolve_config_path("paper.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        text, hits = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert hits == 1
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        code = cli.main(["calibrate", "--config", str(path),
                         "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: [{section}] {key} must be "
                              "finite and in ")
