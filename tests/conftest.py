import numpy as np
import pytest

from combhom import spectral
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


def _midpoint_cross_integral(setup, grid, tau):
    """Plain 2-D midpoint sum: (baseline, complex cross integral at each delay).

    Uses only the element functions of ``combhom.spectral``; the axis, the
    joint amplitude, the cross integrand and the delay phases are formed here,
    not taken from the engine, so the engine's collapse onto u = nu_s - nu_i
    keeps an independent check.
    """
    n, span = grid.points_per_axis, grid.span
    spacing = 2.0 * span / n
    nu = (np.arange(n) - 0.5 * (n - 1)) * spacing
    s = nu[:, None] + nu[None, :]
    d = nu[:, None] - nu[None, :]
    phi = spectral.pump_envelope(s, setup.pump) * spectral.phase_matching(s, d, setup.phase_matching)
    phi = phi / np.abs(phi).max()
    f2 = spectral.filter_amplitude(nu, setup.filter) ** 2
    fe = spectral.etalon_transfer(nu, setup.etalon, setup.center_frequency)
    weight = 0.25 * spacing**2
    offset = 0.5 * setup.etalon.round_trip_time if setup.etalon.enabled else 0.0
    baseline = weight * float((f2 * np.abs(fe) ** 2) @ (np.abs(phi) ** 2) @ f2)
    # Row k: the integrand's s-factor at delay tau[k]; the i-factor is its conjugate.
    a = f2 * fe * np.exp(-1j * np.outer(np.asarray(tau) + offset, nu))
    integral = weight * np.sum((a @ (phi * np.conj(phi.T))) * np.conj(a), axis=1)
    return baseline, integral


@pytest.fixture(scope="session")
def midpoint_reference():
    """midpoint_reference(setup, grid, tau) -> (baseline, complex cross integral)."""
    return _midpoint_cross_integral
