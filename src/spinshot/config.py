"""Structured-text configuration: `[section]` headers and `key = value`
pairs, `#` comments, comma-separated number lists.

Parse errors carry the origin and line number.  Builders below turn
sections into the typed parameter objects of the other modules; a
config name that does not exist on disk falls back to the packaged
presets (so `--config paper.cfg` works from any directory).  A loaded
file may hold only the keys of KEYS, so a misspelt key fails instead
of leaving its default in place.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from importlib import resources

from .estimators import gaussian_fwhm_to_sigma
from .montecarlo import MW_DEFAULTS, BathParams
from .physics import CavityConfig, EmitterConfig, ZeemanConfig
from .readout import (CAPACITY_PULSES, CapacityError, ReadoutParams,
                      flip_probabilities)

__all__ = [
    "ConfigError",
    "Config",
    "parse_config",
    "load_config",
    "resolve_config_path",
    "emitter_config",
    "cavity_config",
    "zeeman_config",
    "readout_params",
    "relaxation_constant",
    "bath_params",
    "microwave_settings",
]

# Ceiling of the [bath] and [microwave] frequency scales: 1 THz, far past
# any spin transition, and low enough that every rotation angle 2*pi*f*t
# the protocols build stays finite.
MAX_SPIN_FREQUENCY_MHZ = 1e6

# Every key a builder below reads, per section, plus [readout]
# target_fidelity, which calibrate reads; load_config rejects any other.
# [cavity] mode_volume and flip_dipole_projection were never read and are
# still accepted.
KEYS = {
    "emitter": ("frequency_ghz", "g_ground", "g_excited", "bulk_lifetime_us",
                "spectral_diffusion_fwhm_mhz"),
    "cavity": ("resonance_frequency_ghz", "quality_factor",
               "purcell_on_resonance", "mode_volume", "flip_dipole_projection"),
    "field": ("magnetic_field_t", "axis"),
    "detection": ("eta_waveguide", "eta_offchip", "eta_switch", "eta_detector",
                  "dark_rate_hz", "gate_window_us"),
    "readout": ("n_pulses", "p_excite", "eta_detect", "flip_bright", "flip_dark",
                "relaxation_constant", "flip_asymmetry", "pulse_period_us",
                "target_fidelity"),
    "bath": ("odmr_centers_mhz", "odmr_weights", "odmr_fwhm_mhz", "t1_spin_s",
             "t2_echo_us", "echo_exponent"),
    "microwave": ("rabi_khz", "detuning_sigma_khz", "drive_jitter"),
}

_MISSING = object()
_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """Parsed sections.  An accessor's ``default`` stands in for an absent
    section or key and is checked and converted like a value; None is
    returned as is."""
    sections: dict
    origin: str
    text: str

    def _fetch(self, section: str, key: str, default=_MISSING):
        """The raw value of [section] key; ``default``, if given, when the
        section or the key is absent."""
        sec = self.sections.get(section, {})
        if key in sec or default is not _MISSING:
            return sec.get(key, default)
        if section not in self.sections:
            raise ConfigError(f"{self.origin}: missing section [{section}]")
        raise ConfigError(f"{self.origin}: missing key {key!r} in [{section}]")

    def number(self, section: str, key: str, default=_MISSING):
        value = self._fetch(section, key, default)
        if value is not None and not isinstance(value, (int, float)):
            raise ConfigError(f"{self.origin}: [{section}] {key} must be a "
                              f"number, got {value!r}")
        return value if value is None else float(value)

    def bounded(self, section: str, key: str, low: float, high: float = math.inf,
                default=_MISSING, open_low: bool = False, open_high: bool = True):
        """number() that must be finite and inside the interval from low to
        high, each end closed unless open_low/open_high."""
        value = self.number(section, key, default)
        inside = ((low < value if open_low else low <= value)
                  and (value < high if open_high else value <= high))
        if not (math.isfinite(value) and inside):
            interval = (f"{'(' if open_low else '['}{low:g}, "
                        f"{high:g}{')' if open_high else ']'}")
            raise ConfigError(f"{self.origin}: [{section}] {key} must be "
                              f"finite and in {interval}, got {value:g}")
        return value

    def integer(self, section: str, key: str, default=_MISSING):
        value = self._fetch(section, key, default)
        if value is not None and not (isinstance(value, (int, float))
                                      and math.isfinite(value)
                                      and value == int(value)):
            raise ConfigError(f"{self.origin}: [{section}] {key} must be an "
                              f"integer, got {value!r}")
        return value if value is None else int(value)

    def numbers(self, section: str, key: str, default=_MISSING):
        value = self._fetch(section, key, default)
        if isinstance(value, (int, float)):
            return (float(value),)
        if value is not None and not isinstance(value, tuple):
            raise ConfigError(f"{self.origin}: [{section}] {key} must be a "
                              f"number list, got {value!r}")
        return value

    def string(self, section: str, key: str, default=_MISSING):
        value = self._fetch(section, key, default)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{self.origin}: [{section}] {key} must be a "
                              f"string, got {value!r}")
        return value


def _parse_value(raw: str):
    parts = [p.strip() for p in raw.split(",")]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        return raw
    return values if len(values) > 1 else values[0]


def parse_config(text: str, origin: str = "<config>") -> Config:
    sections: dict = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("["):
            match = _SECTION_RE.match(line)
            if not match:
                raise ConfigError(f"{origin}:{line_no}: malformed section "
                                  f"header {line!r}")
            current = match.group(1)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{line_no}: expected 'key = value', "
                              f"got {line!r}")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{origin}:{line_no}: invalid key {key!r}")
        if current is None:
            raise ConfigError(f"{origin}:{line_no}: key {key!r} outside any "
                              f"[section]")
        if not raw_value:
            raise ConfigError(f"{origin}:{line_no}: empty value for {key!r}")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{line_no}: duplicate key {key!r} "
                              f"in [{current}]")
        sections[current][key] = _parse_value(raw_value)
    return Config(sections=sections, origin=origin, text=text)


def resolve_config_path(path: str) -> str:
    """Return ``path`` if it exists, else look it up in the packaged presets."""
    if os.path.exists(path):
        return path
    if os.path.basename(path) == path:
        preset = resources.files("spinshot").joinpath("presets", path)
        if preset.is_file():
            return str(preset)
    raise ConfigError(f"config file not found: {path}")


def load_config(path: str) -> Config:
    """Parse a config file or preset; a section or key outside KEYS is a
    ConfigError naming it."""
    resolved = resolve_config_path(path)
    with open(resolved, "r", encoding="utf-8", newline="") as fh:
        cfg = parse_config(fh.read(), origin=path)
    for section, values in cfg.sections.items():
        if section not in KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]; sections "
                              f"are {', '.join(f'[{s}]' for s in KEYS)}")
        for key in values:
            if key not in KEYS[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}; keys "
                                  f"are {', '.join(KEYS[section])}")
    return cfg


# ---------------------------------------------------------------------------
# typed builders
# ---------------------------------------------------------------------------

def emitter_config(cfg: Config) -> EmitterConfig:
    section = "emitter"
    return EmitterConfig(
        zero_field_frequency_ghz=cfg.bounded(section, "frequency_ghz", 0.0,
                                             open_low=True),
        g_ground=cfg.bounded(section, "g_ground", 0.0, open_low=True),
        g_excited=cfg.bounded(section, "g_excited", 0.0, open_low=True),
        bulk_lifetime_us=cfg.bounded(section, "bulk_lifetime_us", 0.0,
                                     open_low=True),
        spectral_diffusion_fwhm_mhz=cfg.bounded(
            section, "spectral_diffusion_fwhm_mhz", 0.0,
            default=EmitterConfig.spectral_diffusion_fwhm_mhz),
    )


def cavity_config(cfg: Config) -> CavityConfig:
    """[cavity] plus the collection efficiencies of [detection].  The
    cavity adds (purcell_on_resonance - 1) times the bulk decay rate, so
    that key is at least 1."""
    eta = {key: cfg.bounded("detection", key, 0.0, 1.0,
                            default=getattr(CavityConfig, key), open_high=False)
           for key in ("eta_waveguide", "eta_offchip", "eta_switch", "eta_detector")}
    return CavityConfig(
        resonance_frequency_ghz=cfg.bounded("cavity", "resonance_frequency_ghz",
                                            0.0, open_low=True),
        quality_factor=cfg.bounded("cavity", "quality_factor", 0.0, open_low=True),
        purcell_on_resonance=cfg.bounded("cavity", "purcell_on_resonance", 1.0),
        **eta,
    )


def zeeman_config(cfg: Config) -> ZeemanConfig:
    return ZeemanConfig(
        magnetic_field_t=cfg.bounded("field", "magnetic_field_t", 0.0),
        field_axis=cfg.string("field", "axis", ZeemanConfig.field_axis),
    )


def readout_params(cfg: Config, n_pulses: int | None = None,
                   gate_window: float | None = None) -> ReadoutParams:
    """Readout chain parameters from [readout] plus detector noise from
    [detection].  ``n_pulses`` overrides [readout] n_pulses, which must lie
    in 1..CAPACITY_PULSES, the exact DP's capacity, and ``gate_window``
    overrides [detection] gate_window_us.

    Flip probabilities come either from both explicit flip_bright/flip_dark
    keys or from (relaxation_constant, flip_asymmetry) by
    :func:`readout.flip_probabilities`, which pins the chain's relaxation
    constant to R pulses.  A lone flip key, or flip_asymmetry beside
    both, is a ConfigError.
    """
    section = "readout"
    too_high_for = ""   # names the pulse count when it comes from the config
    if n_pulses is None:
        cfg.bounded(section, "n_pulses", 1.0, CAPACITY_PULSES, open_high=False)
        n_pulses = cfg.integer(section, "n_pulses")
        too_high_for = f" for [readout] n_pulses = {n_pulses:g}"
    flip_bright = cfg.number(section, "flip_bright", None)
    flip_dark = cfg.number(section, "flip_dark", None)
    if (flip_bright is None) != (flip_dark is None) or (
            flip_bright is not None and "flip_asymmetry" in cfg.sections[section]):
        raise ConfigError(f"{cfg.origin}: [{section}] flip_bright and flip_dark "
                          "must be set together and without flip_asymmetry")
    if flip_bright is None:
        flip_bright, flip_dark = flip_probabilities(
            relaxation_constant(cfg),
            cfg.bounded(section, "flip_asymmetry", 0.0, 1.0, 0.5, open_high=False))
    fields = dict(
        n_pulses=n_pulses,
        p_excite=cfg.number(section, "p_excite"),
        eta_detect=cfg.number(section, "eta_detect"),
        flip_bright=flip_bright,
        flip_dark=flip_dark,
        dark_rate=cfg.bounded("detection", "dark_rate_hz", 0.0,
                              default=ReadoutParams.dark_rate),
        gate_window=(cfg.bounded("detection", "gate_window_us", 0.0,
                                 default=ReadoutParams.gate_window)
                     if gate_window is None else gate_window),
        pulse_period=cfg.bounded(section, "pulse_period_us", 0.0, open_low=True,
                                 default=ReadoutParams.pulse_period),
    )
    try:
        return ReadoutParams(**fields)
    except CapacityError as exc:
        raise ConfigError(f"{cfg.origin}: [detection] dark_rate_hz = "
                          f"{fields['dark_rate']:g} at gate_window_us = "
                          f"{fields['gate_window']:g} is too high{too_high_for}: "
                          f"{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{cfg.origin}: [readout] {exc}") from exc


def relaxation_constant(cfg: Config) -> float:
    """[readout] relaxation_constant: the two-state chain's 1/e constant,
    in pulses, which must exceed 1 pulse."""
    return cfg.bounded("readout", "relaxation_constant", 1.0, open_low=True)


def bath_params(cfg: Config) -> BathParams:
    """[bath]: one finite ODMR weight per center, centers and linewidth
    within MAX_SPIN_FREQUENCY_MHZ (linewidth >= 0), and finite lifetimes
    and echo exponent > 0."""
    section = "bath"
    centers = cfg.numbers(section, "odmr_centers_mhz", BathParams.odmr_centers)
    weights = cfg.numbers(section, "odmr_weights", BathParams.odmr_weights)
    for key, values, limit in (("odmr_centers_mhz", centers, MAX_SPIN_FREQUENCY_MHZ),
                               ("odmr_weights", weights, math.inf)):
        if len(values) != len(centers) or not all(
                math.isfinite(v) and abs(v) <= limit for v in values):
            within = f" in [-{limit:g}, {limit:g}]" if limit < math.inf else ""
            raise ConfigError(
                f"{cfg.origin}: [{section}] {key} must be {len(centers)} finite "
                f"numbers{within}, one per odmr_centers_mhz value, got "
                f"{', '.join(f'{v:g}' for v in values)}")
    # BathParams holds the sigma: an absent linewidth leaves its default
    fields = {} if cfg.number(section, "odmr_fwhm_mhz", None) is None else {
        "odmr_sigma": gaussian_fwhm_to_sigma(cfg.bounded(
            section, "odmr_fwhm_mhz", 0.0, MAX_SPIN_FREQUENCY_MHZ, open_high=False))}
    for name, key in (("t1_spin", "t1_spin_s"), ("t2_echo", "t2_echo_us"),
                      ("echo_exponent", "echo_exponent")):
        fields[name] = cfg.bounded(section, key, 0.0, open_low=True,
                                   default=getattr(BathParams, name))
    try:
        return BathParams(odmr_centers=centers, odmr_weights=weights, **fields)
    except ValueError as exc:
        raise ConfigError(f"{cfg.origin}: [{section}] {exc}") from exc


def microwave_settings(cfg: Config) -> dict:
    """[microwave]: Rabi frequency and detuning spread within
    MAX_SPIN_FREQUENCY_MHZ, and a fractional drive jitter of at most 1."""
    section = "microwave"
    max_khz = 1e3 * MAX_SPIN_FREQUENCY_MHZ
    return {
        "mw_rabi_khz": cfg.bounded(section, "rabi_khz", 0.0, max_khz, open_low=True,
                                   open_high=False, default=MW_DEFAULTS["mw_rabi_khz"]),
        "detuning_sigma_khz": cfg.bounded(section, "detuning_sigma_khz", 0.0, max_khz,
                                          open_high=False,
                                          default=MW_DEFAULTS["detuning_sigma_khz"]),
        "drive_jitter": cfg.bounded(section, "drive_jitter", 0.0, 1.0, open_high=False,
                                    default=MW_DEFAULTS["drive_jitter"]),
    }
