"""CLI pipelines: artifacts, manifests, exit codes, deterministic rendering."""

import json
import os

import numpy as np
import pytest

from stlcp import cli
from stlcp.report import (
    MARGIN,
    PLOT_H,
    PLOT_W,
    render_empty_svg,
    render_histogram_svg,
    render_overlay_svg,
)


def run(*argv):
    return cli.main(list(argv))


def write_config(path, **kw):
    with open(path, "w") as fh:
        json.dump(kw, fh)
    return str(path)


SMALL_TEMP = dict(scenario="temperature", sizes=[30, 50, 40])
SMALL_ROBOT = dict(scenario="robot", sizes=[15, 30, 15], seed=11)


class TestConfig:
    def test_delta_out_of_range(self, tmp_path, capsys):
        assert run("calibrate", "--delta", "1.5", "--out", str(tmp_path)) == 2
        assert "delta: must be inside (0, 1)" in capsys.readouterr().err

    def test_errors_carry_field_paths(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", scenario="marine", sizes=[10, -2, 5], overrides={"warp": 9}
        )
        assert run("gen-data", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "scenario: unknown scenario 'marine'" in err
        assert "sizes[1]: must be a positive integer" in err
        assert "overrides.warp: unknown scenario constant" in err

    def test_missing_referenced_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", dataset=str(tmp_path / "absent.json"))
        assert run("calibrate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "dataset: file not found" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", scenario="temperature", horizon=9)
        assert run("gen-data", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_scenario_rejecting_an_override_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", scenario="temperature", overrides={"t_heater": 10.0})
        out = tmp_path / "o"
        assert run("gen-data", "--config", cfg, "--out", str(out)) == 2
        assert "config error: heater temperature must exceed the state box" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value, label", [
        ("gen-data", "seed", 1.5, "seed:"),
        ("gen-data", "seed", True, "seed:"),
        ("gen-data", "sizes", [20.0, 30, 30], "sizes[0]:"),
        ("validate-coverage", "trials", 2.5, "trials:"),
        ("validate-coverage", "n_cal", 2.5, "n_cal:"),
        ("validate-coverage", "n_test", 2.5, "n_test:"),
        ("synth-open", "test_index", 1.5, "test_index:"),
    ])
    def test_non_integer_counts_are_config_errors(self, tmp_path, capsys, command, field, value, label):
        cfg = write_config(tmp_path / "c.json", **{"scenario": "temperature", "sizes": [20, 30, 30], field: value})
        out = tmp_path / "o"
        assert run(command, "--config", cfg, "--out", str(out)) == 2
        assert f"config error: {label} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run("frobnicate")
        assert e.value.code != 0


class TestPipeline:
    def test_gen_data_reproducible_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_TEMP)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--config", cfg, "--seed", "5", "--out", str(a)) == 0
        assert run("gen-data", "--config", cfg, "--seed", "5", "--out", str(b)) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()

    def test_calibrate_reports_quantiles_and_rank(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_TEMP)
        out = tmp_path / "o"
        assert run("calibrate", "--config", cfg, "--seed", "2", "--out", str(out)) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert set(doc) >= {"C_OL", "C_CL", "p"}
        assert doc["p"] == 44  # ceil(51 * 0.85) on K=50
        assert doc["C_OL"] > 0 and doc["C_CL"] > 0
        assert (out / "open_radii.csv").exists()
        assert (out / "closed_radii.csv").exists()

    def test_validate_coverage_gate_and_histogram(self, tmp_path):
        out = tmp_path / "o"
        assert run("validate-coverage", "--seed", "0", "--delta", "0.15", "--out", str(out)) == 0
        doc = json.loads((out / "coverage.json").read_text())
        assert doc["mean"] >= 0.85 - cli.COVERAGE_TOL
        rows = (out / "histogram.csv").read_text().strip().splitlines()
        assert rows[0] == "bin_lo,bin_hi,count"
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == doc["trials"]

    def test_fit_writes_predictor_spec(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_TEMP, predictor="ar")
        out = tmp_path / "o"
        assert run("fit", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads((out / "predictor.json").read_text())
        assert doc["kind"] == "ar"
        assert len(doc["coeffs"]) == 2  # one entry per room

    def test_fit_mean_path_writes_table(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_ROBOT)
        out = tmp_path / "o"
        assert run("fit", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads((out / "predictor.json").read_text())
        assert doc == {"kind": "mean-path", "table": "predictions.json"}
        assert (out / "predictions.json").exists()

    def test_synth_open_artifacts_and_radius_passthrough(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_TEMP)
        out = tmp_path / "o"
        assert run("synth-open", "--config", cfg, "--seed", "3", "--out", str(out)) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["status"] == "optimal"
        assert doc["satisfied"] is True
        # overlay radii are the calibrated open-loop radii, bit for bit
        from stlcp.casestudies import TemperatureScenario, gen_temperature_dataset
        from stlcp.conformal import calibrate, compute_normalizers
        from stlcp.prediction import fit_predictor

        sc = TemperatureScenario()
        ds = gen_temperature_dataset(120, 3, scenario=sc, sizes=(30, 50, 40))
        pred = fit_predictor(ds.subset("train"), "cv")
        sigma = compute_normalizers(ds.subset("train"), pred, sc.t_phi)
        radii = calibrate(ds.subset("cal"), pred, sigma, sc.delta)
        rows = (out / "overlay.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            tau, agent, _center, radius, _realized = row.split(",")
            assert float(radius) == radii.open_radius(int(tau), int(agent))

    def test_synth_closed_robot_with_lp_export(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_ROBOT)
        out = tmp_path / "o"
        assert run("synth-closed", "--config", cfg, "--out", str(out), "--export-lp") == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["status"] == "optimal"
        assert doc["steps"] == 20
        assert (out / "trace.csv").exists()
        assert (out / "steps.jsonl").exists()
        lp = (out / "model.lp").read_text()
        assert lp.startswith("\\ step0")
        assert "Binaries" in lp
        entries = json.loads((out / "manifest.json").read_text())["entries"]
        assert entries["dataset.json"]["command"] == entries["dataset.csv"]["command"] == "synth-closed"

    def test_manifest_traces_every_artifact(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_TEMP, trials=200, n_cal=40, n_test=30)
        out = tmp_path / "o"
        assert run("calibrate", "--config", cfg, "--seed", "2", "--out", str(out)) == 0
        assert run("validate-coverage", "--config", cfg, "--seed", "2", "--out", str(out)) == 0
        assert run("report", "--config", cfg, "--out", str(out)) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["tool"].startswith("stlcp ")
        files = {f for f in os.listdir(out) if f != "manifest.json"}
        assert files == set(man["entries"])
        for entry in man["entries"].values():
            assert entry["config_hash"]
            assert "seed" in entry and "sha256" in entry

    def test_dataset_roundtrip_through_explicit_path(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **SMALL_TEMP)
        gen_out = tmp_path / "g"
        assert run("gen-data", "--config", cfg, "--seed", "4", "--out", str(gen_out)) == 0
        cfg2 = write_config(
            tmp_path / "c2.json", **SMALL_TEMP, dataset=str(gen_out / "dataset.json")
        )
        out = tmp_path / "o"
        assert run("calibrate", "--config", cfg2, "--seed", "4", "--out", str(out)) == 0
        # the provided dataset is used, not regenerated into out/
        assert not (out / "dataset.json").exists()


class TestReportRendering:
    def test_empty_trials_render_axes_only(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "trials.csv").write_text("trial,ratio\n")
        (out / "histogram.csv").write_text("bin_lo,bin_hi,count\n")
        assert run("report", "--out", str(out)) == 0
        svg = (out / "histogram.svg").read_text()
        assert svg.count("<line") == 2  # the two axes
        assert "no data" in svg
        assert "<rect" in svg  # background

    def test_three_bin_histogram_golden_geometry(self):
        """Bar rectangles follow the documented pixel arithmetic: bar width
        PLOT_W/3, height PLOT_H * count/max, anchored to the x axis."""
        svg = render_histogram_svg([0.0, 1.0, 2.0, 3.0], [2, 5, 3])
        assert PLOT_W == 380 and PLOT_H == 220 and MARGIN == 50
        assert '<rect x="50.00" y="182.00" width="126.67" height="88.00"' in svg
        assert '<rect x="176.67" y="50.00" width="126.67" height="220.00"' in svg
        assert '<rect x="303.33" y="138.00" width="126.67" height="132.00"' in svg

    def test_histogram_deterministic(self):
        a = render_histogram_svg([0, 1, 2, 3], [2, 5, 3], band=(0.8, 0.9))
        b = render_histogram_svg([0, 1, 2, 3], [2, 5, 3], band=(0.8, 0.9))
        assert a == b

    def test_overlay_circle_radii_scale_passthrough(self):
        balls = [(2.0, 2.0, 0.5), (5.0, 5.0, 1.25)]
        svg = render_overlay_svg([], [], balls, (0.0, 10.0, 0.0, 10.0))
        scale = min(PLOT_W / 10.0, PLOT_H / 10.0)
        for _, _, r in balls:
            assert f'r="{r * scale:.2f}"' in svg

    def test_empty_svg_has_axes(self):
        svg = render_empty_svg()
        assert svg.count("<line") == 2
        assert svg.endswith("</svg>\n")
