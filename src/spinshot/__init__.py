"""spinshot: desk-scale simulator for cavity-enhanced single-spin readout.

Modules:
    physics     static cavity/emitter/Zeeman relations
    readout     exact pulse-counting statistics, fidelity optimization and
                empirical fidelity of measured counts
    montecarlo  stochastic shot engine, spin-control protocols, timelines
    sequence    pulse-sequence DSL (parser, compiler, timing reports)
    estimators  curve fitting, photon autocorrelation, series/CSV I/O
    config      INI-style config files and packaged presets
    cli         command-line front end (`spinshot <command>`)
"""

__version__ = "0.1.0"

from .config import Config, ConfigError, load_config, resolve_config_path
from .estimators import (FitError, FitResult, NormalizationError, fit_model,
                         g2_pulsed)
from .montecarlo import (BathParams, PhotonRecords, pulse_area_scan,
                         run_protocol, run_timeline, simulate_readout_shots)
from .physics import (CavityConfig, EmitterConfig, InvalidConfigError,
                      TransitionSet, ZeemanConfig, cavity_linewidth,
                      detection_efficiency_budget, effective_lifetime,
                      lorentzian_suppression, purcell_factor,
                      predicted_cyclicity, zeeman_transitions)
from .readout import (CalibrationError, CapacityError, CountDistribution,
                      FidelityReport, ReadoutParams, calibrate_flip_asymmetry,
                      count_distribution, cyclicity, dark_count_penalty,
                      empirical_fidelity, expected_trace, fit_decay_constant,
                      optimize_readout, readout_fidelity, readout_report)
from .sequence import (CompileError, ParseError, Timeline, TimelineCapacityError,
                       compile_sequence, duration_report, format_sequence,
                       parse_sequence)

__all__ = [
    "__version__",
    "Config", "ConfigError", "load_config", "resolve_config_path",
    "FitError", "FitResult", "NormalizationError", "fit_model", "g2_pulsed",
    "BathParams", "PhotonRecords", "pulse_area_scan", "run_protocol",
    "run_timeline", "simulate_readout_shots",
    "CavityConfig", "EmitterConfig", "InvalidConfigError", "TransitionSet",
    "ZeemanConfig", "cavity_linewidth", "detection_efficiency_budget",
    "effective_lifetime", "lorentzian_suppression", "purcell_factor",
    "predicted_cyclicity", "zeeman_transitions",
    "CalibrationError", "CapacityError", "CountDistribution", "FidelityReport",
    "ReadoutParams", "calibrate_flip_asymmetry", "count_distribution",
    "cyclicity", "dark_count_penalty", "empirical_fidelity", "expected_trace",
    "fit_decay_constant", "optimize_readout", "readout_fidelity",
    "readout_report",
    "CompileError", "ParseError", "Timeline", "TimelineCapacityError",
    "compile_sequence", "duration_report", "format_sequence", "parse_sequence",
]
