import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import spinshot
from spinshot import readout
from spinshot.config import load_config
from spinshot.physics import CavityConfig, EmitterConfig, ZeemanConfig
from spinshot.readout import ReadoutParams

settings.register_profile(
    "ci", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Subprocesses started by tests import the spinshot pytest imported."""
    src = os.path.dirname(os.path.dirname(spinshot.__file__))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def nominal_emitter():
    return EmitterConfig(
        zero_field_frequency_ghz=194954.05,
        g_ground=0.857,
        g_excited=1.2,
        bulk_lifetime_us=142.0,
        spectral_diffusion_fwhm_mhz=13.5,
    )


@pytest.fixture(scope="session")
def nominal_cavity():
    return CavityConfig(
        resonance_frequency_ghz=194954.05,
        quality_factor=82000.0,
        purcell_on_resonance=177.0,
        eta_waveguide=0.40,
        eta_offchip=0.50,
        eta_switch=0.78,
        eta_detector=0.80,
    )


@pytest.fixture(scope="session")
def nominal_field():
    return ZeemanConfig(magnetic_field_t=0.3)


@pytest.fixture(scope="session")
def nominal_params():
    # 71 pulses at 10 us; d = 0.78 * 0.10; symmetric flips a = b = 0.5/131
    return ReadoutParams(
        n_pulses=71,
        p_excite=0.78,
        eta_detect=0.10,
        flip_bright=0.5 / 131,
        flip_dark=0.5 / 131,
        dark_rate=10.0,
        gate_window=3.0,
        pulse_period=10.0,
    )


@pytest.fixture(scope="session")
def paper_cfg():
    return load_config("paper.cfg")


@pytest.fixture
def chain_passes(monkeypatch):
    """The readout._chain passes of the test's calls, one tuple of
    arguments per pass."""
    passes, chain = [], readout._chain

    def counting(*args):
        passes.append(args)
        return chain(*args)

    monkeypatch.setattr(readout, "_chain", counting)
    return passes


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
