import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from notchlab.device import load_paper_device

# the same examples on every run, no stored failures, no per-example timing
settings.register_profile("notchlab", database=None, derandomize=True,
                          deadline=None)
settings.load_profile("notchlab")


def pytest_configure(config):
    # hypothesis caches the constants it mines from the source at collection,
    # example database or not: keep that cache out of the checkout
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    config.hypothesis_home.cleanup()


@pytest.fixture(scope="session")
def paper_device():
    return load_paper_device()


@pytest.fixture(scope="session")
def mtl_geom(paper_device):
    """Table-design MTL pair (readout/filter of the first qubit)."""
    return paper_device.pair("Q1")


@pytest.fixture(scope="session")
def cap_geom(paper_device):
    """Capacitively coupled reference pair."""
    return paper_device.pair("Cap")


@pytest.fixture(scope="session")
def mux_net(paper_device):
    return paper_device.mux_network()


# Published values the golden tests pin against.
TABLE_MODES = {
    # channel: (f_r_g, f_p_g, k_r_g, k_r_e, k_p_g, chi_r, chi_p) in MHz
    "Q1": (10221.0, 10284.0, 42.0, 30.0, 42.0, -5.9, -3.5),
    "Q2": (10360.0, 10438.0, 34.0, 25.0, 63.0, -7.8, -2.3),
    "Q3": (10520.0, 10582.0, 24.0, 14.0, 55.0, -8.4, -2.3),
    "Q4": (10652.0, 10701.0, 19.0, 11.0, 59.0, -7.2, -1.1),
}

QUBIT_TABLE = {
    # channel: (f_q MHz, g MHz, n_crit, T1 us, T2echo us, SNR, drive MHz)
    "Q1": (8032.0, 420.0, 7.0, 45.0, 61.0, 6.3, 10224.0),
    "Q2": (8189.0, 423.0, 6.7, 26.0, 55.0, 8.4, 10357.0),
    "Q3": (9046.0, 280.0, 7.1, 38.0, 152.0, 6.0, 10515.0),
    "Q4": (8980.0, 275.0, 9.4, 34.0, 77.0, 6.7, 10646.0),
}

NOISE_PHOTON_BOUNDS = {"Q1": 3.1e-4, "Q2": 3.2e-4, "Q3": 1.0e-4, "Q4": 2.4e-4}
