"""Level structure, cavity enhancement and detection-budget formulas.

Everything in here is a pure function over immutable configs: no state,
no randomness, safe to call concurrently.

Each float field of the parameter types (these three, ReadoutParams and
BathParams) states its interval once, as :func:`ranged`; the types check
it on construction and config reads it from the field a key sets.
:func:`check_range` is the package's one check of a finite interval.

Unit conventions (fixed throughout the package):
    optical frequencies  GHz
    splittings           GHz
    lifetimes            us
    magnetic field       T
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

# Zeeman splitting in GHz per (g-factor * tesla): mu_B / h, CODATA 2018
GHZ_PER_G_TESLA = 9.2740100783e-24 / 6.62607015e-34 / 1e9

# Ceiling of the spin frequency scales ([bath] ODMR centers and linewidth,
# the MW drive): 1 THz, far past any spin transition, and low enough that
# every rotation angle 2*pi*f*t the protocols build stays finite.
MAX_SPIN_FREQUENCY_MHZ = 1e6


class InvalidConfigError(ValueError):
    """A config violates one of its documented invariants."""


class CyclicityDivergenceError(ZeroDivisionError):
    """Flip branching is zero: infinite cyclicity."""


def check_range(name, value, low, high, open_low, open_high):
    """``value`` if it is finite and inside the interval from low to high,
    each end open if open_low/open_high; else an InvalidConfigError that
    names it."""
    inside = ((low < value if open_low else low <= value)
              and (value < high if open_high else value <= high))
    if not (math.isfinite(value) and inside):
        interval = (f"{'(' if open_low else '['}{low:g}, "
                    f"{high:g}{')' if open_high else ']'}")
        raise InvalidConfigError(f"{name} must be finite and in {interval}, "
                                 f"got {value:g}")
    return value


def ranged(low, high=math.inf, open_low=False, open_high=True, **kwargs):
    """A dataclass field (``kwargs`` as for dataclasses.field) whose value
    :func:`check_fields` checks against the interval from low to high."""
    return field(metadata={"range": (low, high, open_low, open_high)}, **kwargs)


def check_fields(obj) -> None:
    """Check each :func:`ranged` field of the dataclass instance ``obj``."""
    for spec in fields(obj):
        if "range" in spec.metadata:
            check_range(spec.name, getattr(obj, spec.name), *spec.metadata["range"])


@dataclass(frozen=True)
class EmitterConfig:
    """Single-emitter level structure and optical properties; each field
    is checked against its interval on construction."""

    zero_field_frequency_ghz: float = ranged(0.0, open_low=True)
    g_ground: float = ranged(0.0, open_low=True)
    g_excited: float = ranged(0.0, open_low=True)
    bulk_lifetime_us: float = ranged(0.0, open_low=True)
    # MHz, low end of the measured range
    spectral_diffusion_fwhm_mhz: float = ranged(0.0, default=13.5)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class CavityConfig:
    """Resonator properties plus the photon collection chain.  The cavity
    adds (F_P - 1) times the bulk decay rate, so F_P is at least 1."""

    resonance_frequency_ghz: float = ranged(0.0, open_low=True)
    quality_factor: float = ranged(0.0, open_low=True)
    purcell_on_resonance: float = ranged(1.0)
    eta_waveguide: float = ranged(0.0, 1.0, open_high=False, default=1.0)
    eta_offchip: float = ranged(0.0, 1.0, open_high=False, default=1.0)
    eta_switch: float = ranged(0.0, 1.0, open_high=False, default=1.0)
    eta_detector: float = ranged(0.0, 1.0, open_high=False, default=1.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ZeemanConfig:
    """External magnetic field, finite and >= 0; the axis label is
    informational only."""

    magnetic_field_t: float = ranged(0.0)
    field_axis: str = "(100)"

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TransitionSet:
    """The four optical transitions of the effective spin-1/2 pair.

    Labeling convention: A is the spin-preserving transition of the
    bright branch; D is the spin-flip transition sharing its upper level
    with A, so ``|freq_a - freq_d| == ground_splitting``.  B preserves
    spin in the dark branch, C is the remaining spin-flip line.
    """

    freq_a_ghz: float
    freq_b_ghz: float
    freq_c_ghz: float
    freq_d_ghz: float
    ground_splitting_ghz: float
    excited_splitting_ghz: float

    def by_label(self) -> dict[str, float]:
        return {
            "A": self.freq_a_ghz,
            "B": self.freq_b_ghz,
            "C": self.freq_c_ghz,
            "D": self.freq_d_ghz,
        }


def cavity_linewidth(cfg: CavityConfig) -> float:
    """FWHM linewidth in GHz, resonance frequency over quality factor."""
    return cfg.resonance_frequency_ghz / cfg.quality_factor


def zeeman_transitions(em: EmitterConfig, z: ZeemanConfig) -> TransitionSet:
    """Transition frequencies of the four optical lines at field B.

    Linear effective spin-1/2 Zeeman effect: the ground (excited)
    manifold splits by g_ground (g_excited) * mu_B * B / h.  The bright
    ground state is taken as the lower Zeeman level.
    """
    delta_g = em.g_ground * GHZ_PER_G_TESLA * z.magnetic_field_t
    delta_e = em.g_excited * GHZ_PER_G_TESLA * z.magnetic_field_t
    f0 = em.zero_field_frequency_ghz
    return TransitionSet(
        freq_a_ghz=f0 + (delta_g - delta_e) / 2.0,
        freq_b_ghz=f0 + (delta_e - delta_g) / 2.0,
        freq_c_ghz=f0 + (delta_g + delta_e) / 2.0,
        freq_d_ghz=f0 - (delta_g + delta_e) / 2.0,
        ground_splitting_ghz=delta_g,
        excited_splitting_ghz=delta_e,
    )


def purcell_factor(tau_bulk_us: float, tau_cavity_us: float) -> float:
    """Total-decay-rate ratio tau_bulk / tau_cavity."""
    if tau_bulk_us <= 0 or tau_cavity_us <= 0:
        raise InvalidConfigError("lifetimes must be > 0")
    return tau_bulk_us / tau_cavity_us


def lorentzian_suppression(detuning_ghz: float, linewidth_fwhm_ghz: float) -> float:
    """Amplitude-Lorentzian weight 1 / (1 + (2 delta / kappa)^2) in (0, 1]."""
    if linewidth_fwhm_ghz <= 0:
        raise InvalidConfigError("linewidth_fwhm_ghz must be > 0")
    x = 2.0 * detuning_ghz / linewidth_fwhm_ghz
    return 1.0 / (1.0 + x * x)


def effective_lifetime(em: EmitterConfig, cav: CavityConfig, detuning_ghz: float) -> float:
    """Lifetime in us under cavity enhancement at the given detuning.

    The cavity channel adds (F_P - 1) times the bulk rate on resonance
    and rolls off with the amplitude Lorentzian of the cavity linewidth,
    so the total rate is Gamma_bulk * (1 + (F_P - 1) * L(detuning)).
    """
    kappa = cavity_linewidth(cav)
    boost = 1.0 + (cav.purcell_on_resonance - 1.0) * lorentzian_suppression(
        detuning_ghz, kappa
    )
    return em.bulk_lifetime_us / boost


def detection_efficiency_budget(cav: CavityConfig) -> float:
    """End-to-end photon detection probability of the collection chain."""
    return cav.eta_waveguide * cav.eta_offchip * cav.eta_switch * cav.eta_detector


def predicted_cyclicity(branching_enhanced: float, branching_flip: float) -> float:
    """Mean photons on the readout transition per spin flip.

    Pure optical-branching limit: the ratio of the decay rate on the
    collected (cavity-enhanced) transition to the rate on the spin-flip
    transition.
    """
    if branching_enhanced < 0 or branching_flip < 0:
        raise InvalidConfigError("branching rates must be >= 0")
    if branching_flip == 0:
        raise CyclicityDivergenceError(
            "flip branching is zero: infinite cyclicity"
        )
    return branching_enhanced / branching_flip
