"""Run configuration: presets and the flat key = value config format.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments.  Unknown keys are hard errors so typos never pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .engine import DEFAULT_SPAN_SIGMAS, DelaySweep, FrequencyGrid, default_grid
from .errors import ConfigError
from .spectral import (FilterSpec, OpticalSetup, PhaseMatchingModel, PhaseMatchingSpec,
                       PumpSpec, etalon_from_geometry)

DEFAULT_SWEEP = DelaySweep(start=-0.5, end=3.5, steps=600)

ENGINE_CHOICES = ("direct", "fft", "both")
FORMAT_CHOICES = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Everything one sweep run needs, validated up front."""

    setup: OpticalSetup
    grid: FrequencyGrid
    sweep: DelaySweep
    engine: str = "fft"
    out_path: str | None = None
    out_format: str = "csv"
    preset: str | None = None

    def __post_init__(self):
        if self.engine not in ENGINE_CHOICES:
            raise ConfigError(f"engine must be one of {ENGINE_CHOICES}, got {self.engine!r}")
        if self.out_format not in FORMAT_CHOICES:
            raise ConfigError(f"format must be one of {FORMAT_CHOICES}, got {self.out_format!r}")


def _fig3_setup(tune_phase: float, etalon_enabled: bool = True) -> OpticalSetup:
    return OpticalSetup(
        pump=PumpSpec(duration_fwhm=1.4),
        phase_matching=PhaseMatchingSpec(model=PhaseMatchingModel.FLAT),
        filter=FilterSpec(center_wavelength=786.0, fwhm=10.0),
        etalon=etalon_from_geometry(spacing_um=100.0, incidence_angle=0.0,
                                    reflectivity=0.90, tune_phase=tune_phase,
                                    enabled=etalon_enabled),
        spdc_center_wavelength=786.0,
    )


def preset_config(name: str) -> RunConfig:
    """Named experiment presets; fig3a/b/c differ only in the inter-pulse phase."""
    phases = {"fig3a": 0.0, "fig3b": math.pi, "fig3c": 0.5 * math.pi}
    if name in phases:
        setup = _fig3_setup(phases[name])
    elif name == "hom":
        setup = _fig3_setup(0.0, etalon_enabled=False)
    else:
        raise ConfigError(f"unknown preset {name!r} (choose from fig3a, fig3b, fig3c, hom)")
    return RunConfig(setup=setup, grid=default_grid(setup), sweep=DEFAULT_SWEEP, preset=name)


PRESET_NAMES = ("fig3a", "fig3b", "fig3c", "hom")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> parser for its value.  A key named <spec>.<field> sets that field of
# the preset's pump, phase_matching, filter, etalon or sweep; build_config
# handles the others by name.
KEYS = {
    "preset": str,
    "spdc_center_wavelength": float,   # nm; also the filter centre
    "pump.duration_fwhm": float,
    "phase_matching.model": PhaseMatchingModel,
    "phase_matching.crystal_length": float,
    "phase_matching.sum_coefficient": float,
    "phase_matching.difference_coefficient": float,
    "filter.fwhm": float,
    "etalon.enabled": _parse_bool,
    "etalon.reflectivity": float,
    "etalon.spacing": float,           # um; alternative to round_trip_time
    "etalon.round_trip_time": float,   # ps
    "etalon.tune_phase": float,        # rad
    "grid.points": int,
    "grid.span_sigma": float,
    "sweep.start": float,
    "sweep.end": float,
    "sweep.steps": int,
    "engine": str,
    "output.path": str,
    "output.format": str,
}


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines into typed values; errors name the line."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if not values:
        raise ConfigError("config is empty")
    return values


def config_from_text(text: str) -> RunConfig:
    """Parse and validate a flat config, optionally layered over a preset."""
    return build_config(parse_config(text))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def build_config(values: dict) -> RunConfig:
    """Lay typed config values over their preset (fig3a if none) and validate the run.

    The one path from config text, config files and ``combhom sweep`` flags
    to a RunConfig.  The filter is centred on ``spdc_center_wavelength``.
    """
    unknown = sorted(set(values) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}")
    preset = values.get("preset")
    base = preset_config("fig3a" if preset is None else preset)
    specs = {"pump": base.setup.pump, "phase_matching": base.setup.phase_matching,
             "filter": base.setup.filter, "etalon": base.setup.etalon, "sweep": base.sweep}
    fields: dict[str, dict] = {name: {} for name in specs}
    for key, value in values.items():
        name, _, field = key.partition(".")
        if name in fields:
            fields[name][field] = value

    etalon = fields["etalon"]
    if "spacing" in etalon:
        if "round_trip_time" in etalon:
            raise ConfigError("give either etalon.spacing or etalon.round_trip_time, not both")
        etalon["round_trip_time"] = etalon_from_geometry(etalon.pop("spacing")).round_trip_time
    spdc = values.get("spdc_center_wavelength", base.setup.spdc_center_wavelength)
    fields["filter"]["center_wavelength"] = spdc
    built = {name: replace(spec, **fields[name]) for name, spec in specs.items()}
    sweep = built.pop("sweep")
    setup = OpticalSetup(**built, spdc_center_wavelength=spdc)

    grid = FrequencyGrid(
        points_per_axis=values.get("grid.points", base.grid.points_per_axis),
        span=values.get("grid.span_sigma", DEFAULT_SPAN_SIGMAS) * setup.filter.intensity_sigma)
    return RunConfig(setup=setup, grid=grid, sweep=sweep,
                     engine=values.get("engine", base.engine),
                     out_path=values.get("output.path"),
                     out_format=values.get("output.format", base.out_format),
                     preset=preset)
