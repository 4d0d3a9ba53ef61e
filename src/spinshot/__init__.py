"""spinshot: desk-scale simulator for cavity-enhanced single-spin readout.

Modules:
    physics     static cavity/emitter/Zeeman relations
    readout     exact pulse-counting statistics, fidelity optimization and
                empirical fidelity of measured counts
    montecarlo  stochastic shot engine, spin-control protocols, timelines
    sequence    pulse-sequence DSL (parser, compiler, timing reports)
    estimators  curve fitting, photon records and autocorrelation,
                series/CSV I/O
    config      INI-style config files and packaged presets
    cli         command-line front end (`spinshot <command>`)

Each public name below is imported from its module on first access
(PEP 562), so ``import spinshot`` loads no submodule and a command
pays only for the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("Config", "ConfigError", "load_config", "resolve_config_path"),
    "estimators": ("FitError", "FitResult", "NormalizationError", "PhotonRecords",
                   "fit_model", "g2_pulsed"),
    "montecarlo": ("BathParams", "pulse_area_scan", "run_protocol",
                   "run_timeline", "simulate_readout_shots"),
    "physics": ("CavityConfig", "EmitterConfig", "InvalidConfigError",
                "TransitionSet", "ZeemanConfig", "cavity_linewidth",
                "detection_efficiency_budget", "effective_lifetime",
                "lorentzian_suppression", "purcell_factor",
                "predicted_cyclicity", "zeeman_transitions"),
    "readout": ("CalibrationError", "CapacityError", "CountDistribution",
                "FidelityReport", "ReadoutParams", "calibrate_flip_asymmetry",
                "count_distribution", "cyclicity", "dark_count_penalty",
                "empirical_fidelity", "expected_trace", "fit_decay_constant",
                "optimize_readout", "readout_fidelity", "readout_report"),
    "sequence": ("CompileError", "ParseError", "Timeline", "TimelineCapacityError",
                 "compile_sequence", "duration_report", "format_sequence",
                 "parse_sequence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
