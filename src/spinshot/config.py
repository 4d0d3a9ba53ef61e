"""Structured-text configuration: `[section]` headers and `key = value`
pairs, `#` comments, comma-separated number lists.

Parse errors carry the origin and line number.  Builders below turn
sections into the typed parameter objects of the other modules; a
config name that does not exist on disk falls back to the packaged
presets (so `--config paper.cfg` works from any directory).  A loaded
file may hold only the keys of KEYS, so a misspelt key fails instead
of leaving its default in place.  A key that sets a field of a
parameter type reads its interval and its default from that field
(:func:`_field`), and the [microwave] keys read theirs from
montecarlo.MW_RANGES and MW_DEFAULTS, so this module restates no range
that the types or engines own; :func:`physics.check_range` checks them.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, fields
from importlib import resources

from .estimators import gaussian_fwhm_to_sigma
from .montecarlo import MW_DEFAULTS, MW_RANGES, BathParams
from .physics import (MAX_SPIN_FREQUENCY_MHZ, CavityConfig, EmitterConfig,
                      InvalidConfigError, ZeemanConfig, check_range)
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
                open_low: bool = False, open_high: bool = True, default=_MISSING):
        """number() that must be finite and inside the interval from low to
        high, each end closed unless open_low/open_high
        (:func:`physics.check_range`)."""
        value = self.number(section, key, default)
        try:
            return check_range(f"[{section}] {key}", value, low, high,
                               open_low, open_high)
        except InvalidConfigError as exc:
            raise ConfigError(f"{self.origin}: {exc}") from None

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

# the config key of each field or MW drive keyword whose name differs
_KEY_OF = {"zero_field_frequency_ghz": "frequency_ghz", "field_axis": "axis",
           "dark_rate": "dark_rate_hz", "gate_window": "gate_window_us",
           "pulse_period": "pulse_period_us", "t1_spin": "t1_spin_s",
           "t2_echo": "t2_echo_us", "mw_rabi_khz": "rabi_khz"}


def _field(cfg: Config, section: str, spec):
    """The [section] key that sets the dataclass field ``spec``: a string
    for an unranged field, else a number in the field's interval; the
    field's default, if it has one, stands in for an absent key."""
    key = _KEY_OF.get(spec.name, spec.name)
    default = _MISSING if spec.default is MISSING else spec.default
    if "range" not in spec.metadata:
        return cfg.string(section, key, default)
    return cfg.bounded(section, key, *spec.metadata["range"], default=default)


def _fields(cfg: Config, section: str, specs) -> dict:
    return {spec.name: _field(cfg, section, spec) for spec in specs}


def emitter_config(cfg: Config) -> EmitterConfig:
    return EmitterConfig(**_fields(cfg, "emitter", fields(EmitterConfig)))


def cavity_config(cfg: Config) -> CavityConfig:
    """[cavity] plus the collection efficiencies of [detection], which are
    read first."""
    specs = fields(CavityConfig)
    eta = _fields(cfg, "detection", specs[3:])     # the four eta_* fields
    return CavityConfig(**_fields(cfg, "cavity", specs[:3]), **eta)


def zeeman_config(cfg: Config) -> ZeemanConfig:
    return ZeemanConfig(**_fields(cfg, "field", fields(ZeemanConfig)))


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
            cfg.bounded(section, "flip_asymmetry", 0.0, 1.0, open_high=False,
                        default=0.5))
    spec = {field.name: field for field in fields(ReadoutParams)}
    values = dict(
        n_pulses=n_pulses,
        p_excite=_field(cfg, section, spec["p_excite"]),
        eta_detect=_field(cfg, section, spec["eta_detect"]),
        flip_bright=flip_bright,
        flip_dark=flip_dark,
        dark_rate=_field(cfg, "detection", spec["dark_rate"]),
        gate_window=(_field(cfg, "detection", spec["gate_window"])
                     if gate_window is None else gate_window),
        pulse_period=_field(cfg, section, spec["pulse_period"]),
    )
    try:
        return ReadoutParams(**values)
    except CapacityError as exc:
        raise ConfigError(f"{cfg.origin}: [detection] dark_rate_hz = "
                          f"{values['dark_rate']:g} at gate_window_us = "
                          f"{values['gate_window']:g} is too high{too_high_for}: "
                          f"{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{cfg.origin}: [readout] {exc}") from exc


def relaxation_constant(cfg: Config) -> float:
    """[readout] relaxation_constant: the two-state chain's 1/e constant,
    in pulses, which must exceed 1 pulse."""
    return cfg.bounded("readout", "relaxation_constant", 1.0, open_low=True)


def bath_params(cfg: Config) -> BathParams:
    """[bath]: one finite ODMR weight per center, and centers and linewidth
    within MAX_SPIN_FREQUENCY_MHZ (linewidth >= 0); the lifetimes and echo
    exponent are read as BathParams' fields."""
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
    sigma = {} if cfg.number(section, "odmr_fwhm_mhz", None) is None else {
        "odmr_sigma": gaussian_fwhm_to_sigma(cfg.bounded(
            section, "odmr_fwhm_mhz", 0.0, MAX_SPIN_FREQUENCY_MHZ, open_high=False))}
    rest = _fields(cfg, section, fields(BathParams)[3:])   # the lifetimes, echo exponent
    try:
        return BathParams(odmr_centers=centers, odmr_weights=weights, **sigma, **rest)
    except ValueError as exc:
        raise ConfigError(f"{cfg.origin}: [{section}] {exc}") from exc


def microwave_settings(cfg: Config) -> dict:
    """[microwave]: the keywords of run_protocol's drive, each in its
    montecarlo.MW_RANGES interval and MW_DEFAULTS' value if absent."""
    return {name: cfg.bounded("microwave", _KEY_OF.get(name, name), *interval,
                              default=MW_DEFAULTS[name])
            for name, interval in MW_RANGES.items()}
