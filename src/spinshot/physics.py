"""Level structure, cavity enhancement and detection-budget formulas.

Everything in here is a pure function over immutable configs: no state,
no randomness, safe to call concurrently.

Unit conventions (fixed throughout the package):
    optical frequencies  GHz
    splittings           GHz
    lifetimes            us
    magnetic field       T
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .constants import GHZ_PER_G_TESLA


class InvalidConfigError(ValueError):
    """A config violates one of its documented invariants."""


class CyclicityDivergenceError(ZeroDivisionError):
    """Flip branching is zero: infinite cyclicity."""


@dataclass(frozen=True)
class EmitterConfig:
    """Single-emitter level structure and optical properties."""

    zero_field_frequency_ghz: float
    g_ground: float
    g_excited: float
    bulk_lifetime_us: float
    spectral_diffusion_fwhm_mhz: float = 13.5   # MHz, low end of the measured range

    def __post_init__(self):
        if self.bulk_lifetime_us <= 0:
            raise InvalidConfigError("bulk_lifetime_us must be > 0")
        if self.g_ground <= 0 or self.g_excited <= 0:
            raise InvalidConfigError("effective g-factors must be > 0")
        if self.spectral_diffusion_fwhm_mhz < 0:
            raise InvalidConfigError("spectral_diffusion_fwhm_mhz must be >= 0")


@dataclass(frozen=True)
class CavityConfig:
    """Resonator properties plus the photon collection chain."""

    resonance_frequency_ghz: float
    quality_factor: float
    purcell_on_resonance: float
    eta_waveguide: float = 1.0
    eta_offchip: float = 1.0
    eta_switch: float = 1.0
    eta_detector: float = 1.0

    def __post_init__(self):
        if self.quality_factor <= 0:
            raise InvalidConfigError("quality_factor must be > 0")
        if self.resonance_frequency_ghz <= 0:
            raise InvalidConfigError("resonance_frequency_ghz must be > 0")
        for name in ("eta_waveguide", "eta_offchip", "eta_switch", "eta_detector"):
            eta = getattr(self, name)
            if not 0.0 <= eta <= 1.0:
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {eta}")


@dataclass(frozen=True)
class ZeemanConfig:
    """External magnetic field; the axis label is informational only."""

    magnetic_field_t: float
    field_axis: str = "(100)"

    def __post_init__(self):
        if self.magnetic_field_t < 0:
            raise InvalidConfigError("magnetic_field_t must be >= 0")


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
    if cfg.quality_factor <= 0:
        raise InvalidConfigError("quality_factor must be > 0")
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
