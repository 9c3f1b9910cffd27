"""Run configuration: presets and the flat key = value config format.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments.  Unknown keys are hard errors so typos never pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import DEFAULT_SPAN_SIGMAS, DelaySweep, FrequencyGrid, default_grid
from .errors import ConfigError
from .spectral import (EtalonSpec, FilterSpec, OpticalSetup, PhaseMatchingModel,
                       PhaseMatchingSpec, PumpSpec, etalon_from_geometry)

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
        pump=PumpSpec(center_wavelength=393.0, duration_fwhm=1.4),
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


# key -> parser for its value
_KEYS = {
    "preset": str,
    "spdc_center_wavelength": float,
    "pump.center_wavelength": float,
    "pump.duration_fwhm": float,
    "phase_matching.model": str,
    "phase_matching.crystal_length": float,
    "phase_matching.sum_coefficient": float,
    "phase_matching.difference_coefficient": float,
    "filter.center_wavelength": float,
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


def _parse_flat(text: str) -> dict:
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if not values:
        raise ConfigError("config is empty")
    return values


def config_from_text(text: str) -> RunConfig:
    """Parse and validate a flat config, optionally layered over a preset."""
    values = _parse_flat(text)
    return _build_config(values)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def _build_config(values: dict) -> RunConfig:
    preset = values.get("preset")
    if preset is not None:
        base = preset_config(preset)
        setup, grid, sweep = base.setup, base.grid, base.sweep
        engine, out_format = base.engine, base.out_format
    else:
        setup = _fig3_setup(0.0)
        grid, sweep = default_grid(setup), DEFAULT_SWEEP
        engine, out_format = "fft", "csv"

    spdc = values.get("spdc_center_wavelength", setup.spdc_center_wavelength)
    pump = PumpSpec(
        center_wavelength=values.get("pump.center_wavelength", 0.5 * spdc),
        duration_fwhm=values.get("pump.duration_fwhm", setup.pump.duration_fwhm))
    model_name = values.get("phase_matching.model", setup.phase_matching.model.value)
    try:
        model = PhaseMatchingModel(model_name)
    except ValueError:
        raise ConfigError(f"phase_matching.model must be 'flat' or 'sinc', got {model_name!r}")
    pm = PhaseMatchingSpec(
        model=model,
        crystal_length=values.get("phase_matching.crystal_length",
                                  setup.phase_matching.crystal_length),
        sum_coefficient=values.get("phase_matching.sum_coefficient",
                                   setup.phase_matching.sum_coefficient),
        difference_coefficient=values.get("phase_matching.difference_coefficient",
                                          setup.phase_matching.difference_coefficient))
    filt = FilterSpec(
        center_wavelength=values.get("filter.center_wavelength", setup.filter.center_wavelength),
        fwhm=values.get("filter.fwhm", setup.filter.fwhm))
    if "etalon.spacing" in values and "etalon.round_trip_time" in values:
        raise ConfigError("give either etalon.spacing or etalon.round_trip_time, not both")
    if "etalon.spacing" in values:
        etalon = etalon_from_geometry(
            spacing_um=values["etalon.spacing"],
            reflectivity=values.get("etalon.reflectivity", setup.etalon.reflectivity),
            tune_phase=values.get("etalon.tune_phase", setup.etalon.tune_phase),
            enabled=values.get("etalon.enabled", setup.etalon.enabled))
    else:
        etalon = EtalonSpec(
            enabled=values.get("etalon.enabled", setup.etalon.enabled),
            reflectivity=values.get("etalon.reflectivity", setup.etalon.reflectivity),
            round_trip_time=values.get("etalon.round_trip_time", setup.etalon.round_trip_time),
            tune_phase=values.get("etalon.tune_phase", setup.etalon.tune_phase))
    setup = OpticalSetup(pump=pump, phase_matching=pm, filter=filt, etalon=etalon,
                         spdc_center_wavelength=spdc)

    grid = FrequencyGrid(
        points_per_axis=values.get("grid.points", grid.points_per_axis),
        span=values.get("grid.span_sigma", DEFAULT_SPAN_SIGMAS) * filt.intensity_sigma)
    sweep = DelaySweep(start=values.get("sweep.start", sweep.start),
                       end=values.get("sweep.end", sweep.end),
                       steps=values.get("sweep.steps", sweep.steps))
    return RunConfig(setup=setup, grid=grid, sweep=sweep,
                     engine=values.get("engine", engine),
                     out_path=values.get("output.path"),
                     out_format=values.get("output.format", out_format),
                     preset=preset)
