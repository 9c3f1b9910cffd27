import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import combhom.engine as engine
from combhom import checks, cli
from combhom.config import config_from_text, load_config, preset_config
from combhom.errors import ConfigError
from combhom.spectral import FilterSpec, etalon_transfer, phase_matching

FULL_CHECKS = [
    "fsr_from_geometry", "anti_resonance_magnitude", "parseval_mean_intensity",
    "feynman_brute_force", "hom_closed_form", "engine_feynman_signs",
    "fft_vs_direct_fig3a", "fft_vs_direct_fig3b", "fft_vs_direct_fig3c",
    "fft_vs_direct_hom", "convergence_fig3a", "convergence_fig3b",
    "convergence_fig3c", "convergence_hom"]
QUICK_CHECKS = [name for name, _ in checks.registry(quick=True)]
# each sweep flag, a value for it, and the config key it sets
FLAG_KEYS = [("--preset", "fig3b", "preset"), ("--tau-start", "-0.25", "sweep.start"),
             ("--tau-end", "2.5", "sweep.end"), ("--steps", "33", "sweep.steps"),
             ("--grid", "256", "grid.points"), ("--span-sigma", "6.5", "grid.span_sigma"),
             ("--engine", "both", "engine"), ("--out", "x.csv", "output.path"),
             ("--format", "json", "output.format")]


class TestPresets:
    def test_fig3a_values(self):
        cfg = preset_config("fig3a")
        assert cfg.setup.etalon.tune_phase == 0.0
        assert cfg.setup.etalon.reflectivity == pytest.approx(0.90)
        assert 1.0 / cfg.setup.etalon.round_trip_time == pytest.approx(1.5, rel=5e-3)
        assert cfg.setup.filter.fwhm == pytest.approx(10.0)
        assert cfg.setup.pump.duration_fwhm == pytest.approx(1.4)
        assert cfg.setup.spdc_center_wavelength == pytest.approx(786.0)
        assert cfg.sweep.steps == 600

    def test_phases(self):
        assert preset_config("fig3b").setup.etalon.tune_phase == pytest.approx(math.pi)
        assert preset_config("fig3c").setup.etalon.tune_phase == pytest.approx(math.pi / 2)
        assert not preset_config("hom").setup.etalon.enabled

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig9z")


class TestConfigParsing:
    def test_round_trip_with_overrides(self):
        cfg = config_from_text("""
            # comment
            preset = fig3a
            etalon.reflectivity = 0.5   # inline comment
            sweep.steps = 33
        """)
        assert cfg.setup.etalon.reflectivity == pytest.approx(0.5)
        assert cfg.sweep.steps == 33
        assert cfg.preset == "fig3a"

    def test_standalone_config(self):
        cfg = config_from_text("""
            spdc_center_wavelength = 786
            pump.duration_fwhm = 1.4
            filter.fwhm = 10
            etalon.spacing = 100
            etalon.tune_phase = 3.14159
            grid.points = 512
            sweep.start = -1
            sweep.end = 2
            sweep.steps = 100
            engine = both
        """)
        assert cfg.setup.filter.center_wavelength == pytest.approx(786.0)
        assert cfg.setup.etalon.round_trip_time == pytest.approx(0.667, abs=5e-4)
        assert cfg.grid.points_per_axis == 512
        assert cfg.engine == "both"

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            config_from_text("# only a comment\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_text("etalon.reflectivty = 0.9\n")

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            config_from_text("preset = hom\nnot a key value pair\n")

    def test_boundary_reflectivity_names_spec(self):
        with pytest.raises(ConfigError, match="EtalonSpec"):
            config_from_text("preset = fig3a\netalon.reflectivity = 1.0\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = hom\nsweep.steps = 12\n")
        assert load_config(str(path)).sweep.steps == 12

    @pytest.mark.parametrize("line", ["filter.center_wavelength = 790",
                                      "pump.center_wavelength = 400"])
    def test_centre_off_spdc_rejected(self, line):
        # the engine centres filter and pump on the SPDC centre, so only that is a key
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_text(f"preset = hom\n{line}\n")
        with pytest.raises(ConfigError, match="OpticalSetup"):
            replace(preset_config("hom").setup, filter=FilterSpec(center_wavelength=790.0, fwhm=10.0))

    def test_spdc_centre_sets_filter_centre(self):
        cfg = config_from_text("preset = hom\nspdc_center_wavelength = 800\n")
        assert cfg.setup.spdc_center_wavelength == 800.0
        assert cfg.setup.filter.center_wavelength == 800.0


class TestSweepCommand:
    def test_writes_csv_and_metadata(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = cli.main(["sweep", "--preset", "fig3a", "--grid", "512", "--steps", "40",
                       "--out", str(out), "--no-convergence"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_ps,rate,normalized_rate"
        assert len(lines) == 41
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["preset"] == "fig3a"
        assert meta["points_per_axis"] == 512
        assert meta["convergence"] == "skipped"

    def test_json_format_embeds_metadata(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = cli.main(["sweep", "--preset", "hom", "--grid", "256", "--steps", "20",
                       "--format", "json", "--out", str(out), "--no-convergence"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["preset"] == "hom"
        assert len(payload["tau_ps"]) == 20
        assert len(payload["normalized_rate"]) == 20

    def test_engine_both_records_delta(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = cli.main(["sweep", "--preset", "hom", "--grid", "256", "--steps", "20",
                       "--engine", "both", "--out", str(out), "--no-convergence"])
        assert rc == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["direct_fft_sup_delta"] < 1e-6

    def test_convergence_summary_recorded(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = cli.main(["sweep", "--preset", "hom", "--grid", "256", "--steps", "10",
                       "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert set(meta["convergence"]) >= {"delta_points", "delta_span", "passed"}

    def test_missing_source_is_config_error(self):
        assert cli.main(["sweep", "--steps", "10"]) == 1

    def test_unwritable_output_is_io_error(self, tmp_path):
        rc = cli.main(["sweep", "--preset", "hom", "--grid", "256", "--steps", "10",
                       "--out", str(tmp_path / "missing" / "trace.csv"),
                       "--no-convergence"])
        assert rc == 3

    @pytest.mark.parametrize("line,code", [
        ("pump.duration_fwhm = inf", 1),
        ("sweep.end = inf", 1),
        ("etalon.tune_phase = inf", 1),
        ("grid.span_sigma = 1e-300", 2),
        ("phase_matching.model = sinc\nphase_matching.sum_coefficient = inf", 1),
        ("phase_matching.model = sinc\nphase_matching.crystal_length = inf", 1),
        ("phase_matching.sum_coefficient = nan", 1),
        ("filter.fwhm = inf", 1)])
    def test_non_finite_output_refused(self, tmp_path, line, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset = fig3a\ngrid.points = 256\nsweep.steps = 20\n{line}\n")
        out = tmp_path / "trace.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--no-convergence"]) == code
        assert not out.exists()

    @pytest.mark.parametrize("engine_choice", ["fft", "both"])
    def test_base_grid_built_once(self, monkeypatch, engine_choice):
        cfg = config_from_text(f"preset = hom\ngrid.points = 256\nsweep.steps = 20\n"
                               f"engine = {engine_choice}\n")
        grids = []
        build = engine.Engine.__init__

        def counting(self, setup, grid):
            grids.append(grid)
            build(self, setup, grid)

        monkeypatch.setattr(engine.Engine, "__init__", counting)
        cli.run_sweep(cfg)
        assert grids.count(cfg.grid) == 1
        assert len(grids) == 3  # the base grid, then the refined and the widened one

    @pytest.mark.parametrize("source", ["preset", "config"])
    @pytest.mark.parametrize("flag,value,key", FLAG_KEYS)
    def test_flag_sets_its_key(self, tmp_path, flag, value, key, source):
        path = tmp_path / "run.cfg"
        path.write_text("preset = hom\n")
        given = ["--preset", "hom"] if source == "preset" else ["--config", str(path)]
        args = cli._build_parser().parse_args(["sweep", *given, flag, value])
        assert cli._config_from_args(args) == config_from_text(f"preset = hom\n{key} = {value}\n")

    def test_preset_flag_overrides_config_file(self, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "trace.csv"
        cfg.write_text("preset = fig3b\ngrid.points = 256\nsweep.steps = 10\n")
        assert cli.main(["sweep", "--preset", "hom", "--config", str(cfg), "--out", str(out),
                         "--no-convergence"]) == 0
        assert json.loads((tmp_path / "trace.csv.meta.json").read_text())["preset"] == "hom"

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--preset", "fig3a", "--grid", "512", "--steps", "60",
                "--no-convergence"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPredictCommand:
    def test_table(self):
        out = io.StringIO()
        preds = cli.run_predict(math.pi, 0.9, math.inf, 3, 0.667, True, out=out)
        text = out.getvalue()
        assert [p.classification.value for p in preds] == ["dip", "peak", "dip", "peak"]
        assert "relative_rate" in text
        assert text.count("\n") == 5

    def test_domain_error_exit_code(self):
        assert cli.main(["predict", "--delta-phi", "0", "--reflectivity", "1.5"]) == 1


@pytest.fixture(scope="module")
def quick_verify():
    """Exit code and output of `combhom verify --quick`, run once."""
    stream = io.StringIO()
    return cli.run_verify(quick=True, out=stream), stream.getvalue()


class TestVerify:
    def test_quick_suite_passes(self, quick_verify):
        code, out = quick_verify
        assert code == 0
        assert "FAIL" not in out
        assert "hom_closed_form" in out
        assert "engine_feynman_signs" in out

    @pytest.mark.parametrize("name", QUICK_CHECKS)
    def test_quick_check_passes(self, quick_verify, name):
        assert f"PASS {name}: " in quick_verify[1]

    def test_full_registry_names(self):
        assert [name for name, _ in checks.registry(quick=False)] == FULL_CHECKS
        assert QUICK_CHECKS == FULL_CHECKS[:7]

    def test_cross_sign_mutation_caught_by_hom_check(self, monkeypatch):
        def exchange_odd(sum_detuning, diff_detuning, pm):
            # diff_detuning is nu_s - nu_i, so the factor is sign(nu_s - nu_i)
            return phase_matching(sum_detuning, diff_detuning, pm) * np.sign(diff_detuning)

        monkeypatch.setattr(engine, "phase_matching", exchange_odd)
        passed, _ = dict(checks.registry(quick=True))["hom_closed_form"]()
        assert not passed

    def test_tune_phase_mutation_caught_by_sign_check(self, monkeypatch):
        def ignore_tune_phase(detuning, etalon, center_frequency):
            return etalon_transfer(detuning, replace(etalon, tune_phase=0.0),
                                   center_frequency)

        monkeypatch.setattr(engine, "etalon_transfer", ignore_tune_phase)
        passed, detail = dict(checks.registry(quick=True))["engine_feynman_signs"]()
        assert not passed
        assert "j=1" in detail
