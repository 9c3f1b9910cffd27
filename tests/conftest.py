import numpy as np
import pytest

from combhom.config import preset_config
from combhom.engine import Engine


@pytest.fixture(scope="session")
def preset_traces():
    """Normalized traces for every preset on the default grid, computed once."""
    traces = {}
    for name in ("fig3a", "fig3b", "fig3c", "hom"):
        cfg = preset_config(name)
        traces[name] = (cfg, Engine(cfg.setup, cfg.grid).sweep(cfg.sweep))
    return traces


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
