"""The result types that hold numpy arrays compare by identity.

A generated dataclass ``__eq__`` would compare the arrays element-wise and
then ask for the truth of the resulting array, which raises ValueError for
any two separate instances; so these types take ``eq=False``.
"""
import numpy as np
import pytest

from spinshot import montecarlo
from spinshot.estimators import PhotonRecords, g2_pulsed
from spinshot.montecarlo import (BathParams, pulse_area_scan, run_protocol, run_timeline,
                                 simulate_readout_shots)
from spinshot.readout import CountDistribution, ReadoutParams, optimize_readout
from spinshot.sequence import compile_sequence, parse_sequence

PARAMS = ReadoutParams(n_pulses=5, p_excite=0.78, eta_detect=0.1,
                       flip_bright=0.004, flip_dark=0.004)
BATH = BathParams()
TIMELINE_PARAMS = ReadoutParams(n_pulses=1, p_excite=0.78, eta_detect=0.1,
                                flip_bright=0.004, flip_dark=0.004, gate_window=0.0)
TIMELINE = compile_sequence(parse_sequence(
    "repeat 4 {\n  pulse optical A 0.02us 1pi\n  detect 3us\n  wait 6.98us\n}\n"))


def _records():
    return PhotonRecords(np.array([0, 0, 1]), np.array([0, 1, 1]),
                         np.array([1.5, 12.5, 11.5]), np.array([0, 1, 0]), 2, 3)


# each builds a fresh instance, equal in value to the last one it built
BUILDERS = {
    "CountDistribution": lambda: CountDistribution(np.array([0.25, 0.75]), "bright", 1),
    "OptimizeResult": lambda: optimize_readout(PARAMS, (1, 4)),
    "PhotonRecords": _records,
    "G2Result": lambda: g2_pulsed(_records(), n_lags=2),
    "ReadoutSimResult": lambda: simulate_readout_shots(PARAMS, "bright", shots=20, seed=1),
    "ProtocolCurve": lambda: run_protocol("t1", [0.0, 0.5, 1.0], BATH, shots=20, seed=1),
    "AreaScanResult": lambda: pulse_area_scan([0.5, 1.0], PARAMS, shots=50, seed=1),
    "TimelineRun": lambda: run_timeline(TIMELINE, TIMELINE_PARAMS, BATH, shots=5, seed=1),
    # a plan's first field, the timeline, compares by identity: both share it
    "_TimelinePlan": lambda: montecarlo._plan_timeline(TIMELINE, TIMELINE_PARAMS, 13.5),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_array_holder_compares_by_identity(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name
    assert a == a
    assert (a == b) is False
    assert a != b
    assert type(a).__eq__ is object.__eq__
