"""Experiment pipelines behind one command-line entry point.

Subcommands cover the full loop: generate agent data, fit a predictor,
calibrate prediction regions, validate their coverage, synthesize open- or
closed-loop plans, and render reports.  Every subcommand writes its
artifacts plus a manifest entry (content hash, config hash, seed, tool
version) into the output directory, so a result can always be traced back
to the exact configuration that produced it.  Exit codes: 0 success, 1
infeasibility or a failed validation gate, 2 bad usage or config.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .casestudies import (
    RobotScenario,
    TemperatureScenario,
    build_robot_specs,
    build_temperature_spec,
    gen_robot_leader_dataset,
    gen_temperature_dataset,
    mean_path_predictor,
    robot_system,
    temperature_reformulate,
)
from .casestudies.robot import follower_hint
from .conformal import calibrate, compute_normalizers, validate_coverage
from .milp import write_lp
from .prediction import (
    ArPredictor,
    FilePredictor,
    fit_predictor,
    load_dataset,
    load_prediction_table,
    prediction_table,
    save_dataset,
    save_prediction_table,
    export_dataset_csv,
)
from .report import (
    read_csv_rows,
    render_empty_svg,
    render_histogram_svg,
    render_overlay_svg,
    render_series_svg,
    write_csv_rows,
)
from .stl import JointTrajectory, eval_boolean, eval_robustness
from .synthesis import build_step_model, run_closed_loop, synthesize_open_loop, write_trajectory_csv

try:
    from importlib.metadata import version as _dist_version

    TOOL_VERSION = _dist_version("stlcp")
except Exception:  # pragma: no cover - metadata missing in odd installs
    TOOL_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    scenario: str = "temperature"
    delta: float | None = None  # scenario default when unset
    sizes: tuple[int, int, int] | None = None
    predictor: str | None = None  # cv | ar | mean-path, scenario default when unset
    mode: str = "qual"
    loop: str = "open"
    seed: int = 0
    out: str = "stlcp-out"
    trials: int = 1000
    n_cal: int = 50
    n_test: int = 50
    test_index: int = 0
    dataset: str | None = None  # optional path to an existing dataset file
    predictions: str | None = None  # optional path to a prediction table file
    overrides: dict = field(default_factory=dict)  # scenario constant overrides
    export_lp: bool = False

    def resolved_sizes(self) -> tuple[int, int, int]:
        if self.sizes is not None:
            return tuple(self.sizes)
        return (100, 300, 300) if self.scenario == "temperature" else (50, 100, 300)

    def resolved_predictor(self) -> str:
        if self.predictor is not None:
            return self.predictor
        return "cv" if self.scenario == "temperature" else "mean-path"


_SCENARIOS = ("temperature", "robot")
_PREDICTORS = ("cv", "constant-velocity", "ar", "mean-path")


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """One message per problem, each prefixed with the offending field path."""
    errs = []
    if cfg.scenario not in _SCENARIOS:
        errs.append(f"scenario: unknown scenario {cfg.scenario!r}, expected one of {_SCENARIOS}")
    if cfg.delta is not None and not 0.0 < cfg.delta < 1.0:
        errs.append(f"delta: must be inside (0, 1), got {cfg.delta}")
    if cfg.sizes is not None:
        if len(cfg.sizes) != 3:
            errs.append(f"sizes: need exactly (train, cal, test), got {len(cfg.sizes)} entries")
        else:
            for i, s in enumerate(cfg.sizes):
                if isinstance(s, bool) or not isinstance(s, int) or s <= 0:  # 20.0 is rejected too
                    errs.append(f"sizes[{i}]: must be a positive integer, got {s!r}")
    if cfg.predictor is not None and cfg.predictor not in _PREDICTORS:
        errs.append(f"predictor: unknown kind {cfg.predictor!r}, expected one of {_PREDICTORS}")
    if cfg.mode not in ("qual", "quant"):
        errs.append(f"mode: must be 'qual' or 'quant', got {cfg.mode!r}")
    if cfg.loop not in ("open", "closed"):
        errs.append(f"loop: must be 'open' or 'closed', got {cfg.loop!r}")
    for name, least in (("seed", 0), ("trials", 1), ("n_cal", 1), ("n_test", 1), ("test_index", 0)):
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            errs.append(f"{name}: must be an integer >= {least}, got {v!r}")
    for name in ("dataset", "predictions"):
        path = getattr(cfg, name)
        if path is not None and not os.path.exists(path):
            errs.append(f"{name}: file not found: {path}")
    if cfg.overrides:
        cls = TemperatureScenario if cfg.scenario == "temperature" else RobotScenario
        known = {f.name for f in dataclasses.fields(cls)}
        for key in cfg.overrides:
            if key not in known:
                errs.append(f"overrides.{key}: unknown scenario constant for {cfg.scenario!r}")
    return errs


def load_config(path: str | None, args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the JSON config file, then explicit flags on top."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
    if "sizes" in data and data["sizes"] is not None:
        data["sizes"] = tuple(data["sizes"])
    cfg = ExperimentConfig(**data)
    for name in ("seed", "delta", "mode", "out"):
        v = getattr(args, name.replace("-", "_"), None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "export_lp", False):
        cfg.export_lp = True
    return cfg


def _deep_tuple(v):
    return tuple(_deep_tuple(x) for x in v) if isinstance(v, (list, tuple)) else v


def make_scenario(cfg: ExperimentConfig):
    cls = TemperatureScenario if cfg.scenario == "temperature" else RobotScenario
    overrides = {k: _deep_tuple(v) for k, v in cfg.overrides.items()}
    sc = cls(**overrides) if overrides else cls()
    if cfg.delta is None:
        cfg.delta = sc.delta
    return sc


# ---------------------------------------------------------------------------
# manifest


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    doc = dataclasses.asdict(cfg)
    blob = json.dumps(doc, sort_keys=True, default=list).encode()
    return hashlib.sha256(blob).hexdigest()


def record_artifacts(
    cfg: ExperimentConfig, command: str, paths: list[str], inputs: dict[str, str] | None = None
) -> None:
    """Merge entries for the given artifact files into out/manifest.json."""
    man_path = os.path.join(cfg.out, "manifest.json")
    manifest = {"tool": f"stlcp {TOOL_VERSION}", "schema": 1, "entries": {}}
    if os.path.exists(man_path):
        with open(man_path) as fh:
            manifest = json.load(fh)
    manifest["tool"] = f"stlcp {TOOL_VERSION}"
    for p in paths:
        manifest["entries"][os.path.basename(p)] = {
            "sha256": _sha256_file(p),
            "command": command,
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "tool": f"stlcp {TOOL_VERSION}",
            "inputs": inputs or {},
        }
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _out(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _gen_dataset(cfg: ExperimentConfig, sc):
    sizes = cfg.resolved_sizes()
    n = sum(sizes)
    if cfg.scenario == "temperature":
        return gen_temperature_dataset(n, cfg.seed, scenario=sc, sizes=sizes)
    return gen_robot_leader_dataset(n, cfg.seed, scenario=sc, sizes=sizes)


def _load_or_gen_dataset(cfg: ExperimentConfig, sc, command: str):
    """Explicit dataset path, else a previously generated one in out/, else
    generate and persist so later stages of the pipeline can reuse it."""
    if cfg.dataset is not None:
        return load_dataset(cfg.dataset), cfg.dataset
    default = _out(cfg, "dataset.json")
    if os.path.exists(default):
        return load_dataset(default), default
    ds = _gen_dataset(cfg, sc)
    save_dataset(ds, default)
    export_dataset_csv(ds, _out(cfg, "dataset.csv"))
    record_artifacts(cfg, command, [default, _out(cfg, "dataset.csv")])
    return ds, default


def _t_phi(cfg: ExperimentConfig, sc) -> int:
    return sc.t_phi if cfg.scenario == "temperature" else sc.horizon


def _make_predictor(cfg: ExperimentConfig, ds, t_phi: int):
    if cfg.predictions is not None:
        return FilePredictor(load_prediction_table(cfg.predictions))
    kind = cfg.resolved_predictor()
    train = ds.subset("train")
    if kind == "mean-path":
        return mean_path_predictor(train, t_phi)
    return fit_predictor(train, kind)


def _system_and_spec(cfg: ExperimentConfig, sc):
    if cfg.scenario == "temperature":
        return temperature_reformulate(sc), build_temperature_spec(sc.horizon, sc.comfort_gap), None
    return robot_system(sc), build_robot_specs(sc)[0], follower_hint(sc)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    sc = make_scenario(cfg)
    ds = _gen_dataset(cfg, sc)
    paths = [_out(cfg, "dataset.json"), _out(cfg, "dataset.csv")]
    save_dataset(ds, paths[0])
    export_dataset_csv(ds, paths[1])
    record_artifacts(cfg, "gen-data", paths)
    print(f"wrote {paths[0]} ({len(ds.trajectories)} trajectories, splits {ds.counts()})")
    return 0


def cmd_fit(cfg: ExperimentConfig) -> int:
    sc = make_scenario(cfg)
    ds, ds_path = _load_or_gen_dataset(cfg, sc, "fit")
    t_phi = _t_phi(cfg, sc)
    predictor = _make_predictor(cfg, ds, t_phi)
    spec_path = _out(cfg, "predictor.json")
    paths = [spec_path]
    if isinstance(predictor, FilePredictor):
        table_path = _out(cfg, "predictions.json")
        save_prediction_table(predictor.table, table_path)
        paths.append(table_path)
        doc = {"kind": "mean-path", "table": os.path.basename(table_path)}
    elif isinstance(predictor, ArPredictor):
        doc = {
            "kind": "ar",
            "order": predictor.order,
            "coeffs": [[list(map(float, cd)) for cd in ci] for ci in predictor.coeffs],
        }
    else:
        doc = {"kind": "constant-velocity"}
    with open(spec_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    record_artifacts(cfg, "fit", paths, inputs={"dataset": _sha256_file(ds_path)})
    print(f"wrote {spec_path} (kind {doc['kind']})")
    return 0


def _fit_and_calibrate(cfg: ExperimentConfig, sc, ds):
    t_phi = _t_phi(cfg, sc)
    predictor = _make_predictor(cfg, ds, t_phi)
    sigma = compute_normalizers(ds.subset("train"), predictor, t_phi)
    radii = calibrate(ds.subset("cal"), predictor, sigma, cfg.delta)
    return predictor, sigma, radii


def cmd_calibrate(cfg: ExperimentConfig) -> int:
    sc = make_scenario(cfg)
    ds, ds_path = _load_or_gen_dataset(cfg, sc, "calibrate")
    t_phi = _t_phi(cfg, sc)
    predictor, sigma, radii = _fit_and_calibrate(cfg, sc, ds)
    cal_path = _out(cfg, "calibration.json")
    doc = {
        "scenario": cfg.scenario,
        "delta": cfg.delta,
        "n_cal": radii.n_cal,
        "p": radii.rank,
        "C_OL": radii.c_ol if np.isfinite(radii.c_ol) else None,
        "C_CL": radii.c_cl if np.isfinite(radii.c_cl) else None,
        "finite": radii.finite,
    }
    with open(cal_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    n_agents = sigma.n_agents
    open_rows = [
        (tau, i, float(sigma.get(0, tau, i)), float(radii.open_radius(tau, i)))
        for tau in range(1, t_phi + 1)
        for i in range(n_agents)
    ]
    write_csv_rows(_out(cfg, "open_radii.csv"), ["tau", "agent", "sigma", "radius"], open_rows)
    closed_rows = [
        (k, tau, i, float(radii.closed_radius(k, tau, i)))
        for k in range(t_phi)
        for tau in range(k + 1, t_phi + 1)
        for i in range(n_agents)
    ]
    write_csv_rows(_out(cfg, "closed_radii.csv"), ["k", "tau", "agent", "radius"], closed_rows)
    paths = [cal_path, _out(cfg, "open_radii.csv"), _out(cfg, "closed_radii.csv")]
    record_artifacts(cfg, "calibrate", paths, inputs={"dataset": _sha256_file(ds_path)})
    print(
        f"calibrated {cfg.scenario}: p={radii.rank}/{radii.n_cal} "
        f"C_OL={radii.c_ol:.6g} C_CL={radii.c_cl:.6g}"
    )
    if not radii.finite:
        print("calibration insufficient: infinite radius (K too small for delta)", file=sys.stderr)
        return 1
    return 0


COVERAGE_TOL = 0.03


def cmd_validate_coverage(cfg: ExperimentConfig) -> int:
    sc = make_scenario(cfg)
    ds, ds_path = _load_or_gen_dataset(cfg, sc, "validate-coverage")
    t_phi = _t_phi(cfg, sc)
    predictor = _make_predictor(cfg, ds, t_phi)
    sigma = compute_normalizers(ds.subset("train"), predictor, t_phi)
    rep = validate_coverage(
        ds, predictor, sigma, cfg.delta, mode=cfg.loop,
        trials=cfg.trials, n_cal=cfg.n_cal, n_test=cfg.n_test, seed=cfg.seed,
    )
    cov_path = _out(cfg, "coverage.json")
    with open(cov_path, "w") as fh:
        fh.write(rep.to_json())
        fh.write("\n")
    write_csv_rows(
        _out(cfg, "trials.csv"), ["trial", "ratio"],
        [(t, float(r)) for t, r in enumerate(rep.ratios)],
    )
    counts, edges = rep.histogram()
    write_csv_rows(
        _out(cfg, "histogram.csv"), ["bin_lo", "bin_hi", "count"],
        [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)],
    )
    paths = [cov_path, _out(cfg, "trials.csv"), _out(cfg, "histogram.csv")]
    record_artifacts(cfg, "validate-coverage", paths, inputs={"dataset": _sha256_file(ds_path)})
    lo, hi = rep.band()
    ok = lo - COVERAGE_TOL <= rep.mean <= hi + COVERAGE_TOL
    print(
        f"coverage mean {rep.mean:.4f} vs band [{lo:.4f}, {hi:.4f}] "
        f"+-{COVERAGE_TOL}: {'ok' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


def _synth_common(cfg: ExperimentConfig, command: str):
    sc = make_scenario(cfg)
    ds, ds_path = _load_or_gen_dataset(cfg, sc, command)
    t_phi = _t_phi(cfg, sc)
    predictor, sigma, radii = _fit_and_calibrate(cfg, sc, ds)
    test = ds.subset("test")
    if cfg.test_index >= len(test):
        raise ValueError(f"test_index: only {len(test)} test trajectories available")
    tr = test[cfg.test_index]
    sys_model, spec, hint = _system_and_spec(cfg, sc)
    pt = prediction_table(predictor, tr, t_phi)
    return ds_path, t_phi, radii, tr, sys_model, spec, hint, pt


def _overlay_rows(t_phi: int, tr, pt, radius_fn) -> tuple[list[str], list[tuple]]:
    dims = tr.dims
    if max(dims) >= 2:
        header = ["tau", "agent", "center_x", "center_y", "radius", "realized_x", "realized_y"]
        rows = [
            (tau, i, float(pt.get(0, tau, i)[0]), float(pt.get(0, tau, i)[1]),
             float(radius_fn(tau, i)), float(tr.ys[i][tau][0]), float(tr.ys[i][tau][1]))
            for tau in range(1, t_phi + 1)
            for i in range(tr.n_agents)
        ]
    else:
        header = ["tau", "agent", "center", "radius", "realized"]
        rows = [
            (tau, i, float(pt.get(0, tau, i)[0]), float(radius_fn(tau, i)), float(tr.ys[i][tau][0]))
            for tau in range(1, t_phi + 1)
            for i in range(tr.n_agents)
        ]
    return header, rows


def _export_step_lp(cfg, sys_model, spec, tr, pt, radii) -> str:
    ys_obs = {(0, i): tr.ys[i][0] for i in range(tr.n_agents)}
    sm = build_step_model(
        sys_model, spec, 0, {0: sys_model.x0}, ys_obs, pt.row(0),
        lambda tau, i: radii.open_radius(tau, i), mode=cfg.mode,
    )
    lp_path = _out(cfg, "model.lp")
    with open(lp_path, "w") as fh:
        fh.write(write_lp(sm.model))
    return lp_path


def cmd_synth_open(cfg: ExperimentConfig) -> int:
    ds_path, t_phi, radii, tr, sys_model, spec, hint, pt = _synth_common(cfg, "synth-open")
    agents_now = {i: tr.ys[i][0] for i in range(tr.n_agents)}
    res = synthesize_open_loop(
        sys_model, spec, agents_now, pt.row(0),
        lambda tau, i: radii.open_radius(tau, i), mode=cfg.mode, hint_xs=hint,
    )
    paths = []
    doc = {
        "command": "synth-open",
        "scenario": cfg.scenario,
        "mode": cfg.mode,
        "delta": cfg.delta,
        "test_index": cfg.test_index,
        "status": res.status,
        "objective": res.objective,
        "root_value": res.root_value,
        "nodes": res.nodes,
        "iterations": res.iterations,
    }
    if res.feasible:
        trimmed = tuple(np.asarray(y)[: t_phi + 1] for y in tr.ys)
        traj = JointTrajectory(res.xs, trimmed)
        doc["satisfied"] = bool(eval_boolean(spec, traj, 0))
        doc["realized_robustness"] = float(eval_robustness(spec, traj, 0))
        plan_path = _out(cfg, "plan.csv")
        write_trajectory_csv(plan_path, res.xs, res.us, trimmed)
        header, rows = _overlay_rows(t_phi, tr, pt, radii.open_radius)
        write_csv_rows(_out(cfg, "overlay.csv"), header, rows)
        paths += [plan_path, _out(cfg, "overlay.csv")]
    res_path = _out(cfg, "result.json")
    with open(res_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    paths.append(res_path)
    if cfg.export_lp:
        paths.append(_export_step_lp(cfg, sys_model, spec, tr, pt, radii))
    record_artifacts(cfg, "synth-open", paths, inputs={"dataset": _sha256_file(ds_path)})
    print(f"synth-open {cfg.scenario}[{cfg.test_index}]: {res.status}"
          + (f", satisfied={doc.get('satisfied')}" if res.feasible else ""))
    return 0 if res.feasible else 1


def cmd_synth_closed(cfg: ExperimentConfig) -> int:
    ds_path, t_phi, radii, tr, sys_model, spec, hint, pt = _synth_common(cfg, "synth-closed")
    log_path = _out(cfg, "steps.jsonl")
    res = run_closed_loop(
        sys_model, spec, tr.ys, lambda k: pt.row(k),
        lambda k, tau, i: radii.closed_radius(k, tau, i),
        mode=cfg.mode, hint_xs=hint, log_path=log_path,
    )
    paths = [log_path]
    doc = {
        "command": "synth-closed",
        "scenario": cfg.scenario,
        "mode": cfg.mode,
        "delta": cfg.delta,
        "test_index": cfg.test_index,
        "status": res.status,
        "satisfied": res.satisfied,
        "realized_robustness": res.realized_robustness,
        "steps": len(res.records),
        "nodes": res.nodes,
        "iterations": res.iterations,
        "solved_by": {
            kind: sum(1 for r in res.records if r.solved_by == kind)
            for kind in ("reuse", "dive", "search")
        },
    }
    trace_path = _out(cfg, "trace.csv")
    trimmed = tuple(np.asarray(y)[: t_phi + 1] for y in tr.ys)
    write_trajectory_csv(trace_path, res.xs, res.us, trimmed if res.feasible else ())
    paths.append(trace_path)
    res_path = _out(cfg, "result.json")
    with open(res_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    paths.append(res_path)
    if cfg.export_lp:
        paths.append(_export_step_lp(cfg, sys_model, spec, tr, pt, radii))
    record_artifacts(cfg, "synth-closed", paths, inputs={"dataset": _sha256_file(ds_path)})
    print(f"synth-closed {cfg.scenario}[{cfg.test_index}]: {res.status}, satisfied={res.satisfied}")
    return 0 if res.feasible else 1


def cmd_report(cfg: ExperimentConfig) -> int:
    """Render SVGs for whatever CSV artifacts the out directory holds."""
    written = []
    hist_csv = _out(cfg, "histogram.csv")
    trials_csv = _out(cfg, "trials.csv")
    if os.path.exists(hist_csv) or os.path.exists(trials_csv):
        svg_path = _out(cfg, "histogram.svg")
        band = None
        cov_path = _out(cfg, "coverage.json")
        if os.path.exists(cov_path):
            with open(cov_path) as fh:
                cov = json.load(fh)
            band = tuple(cov.get("band", ())) or None
        counts, edges = [], []
        if os.path.exists(hist_csv):
            _, rows = read_csv_rows(hist_csv)
            if rows:
                counts = [int(r[2]) for r in rows]
                edges = [float(r[0]) for r in rows] + [float(rows[-1][1])]
        svg = (
            render_histogram_svg(edges, counts, title="coverage per trial", band=band)
            if counts and max(counts) > 0
            else render_empty_svg("coverage per trial")
        )
        with open(svg_path, "w") as fh:
            fh.write(svg)
        written.append(svg_path)
    overlay_csv = _out(cfg, "overlay.csv")
    if os.path.exists(overlay_csv):
        header, rows = read_csv_rows(overlay_csv)
        svg_path = _out(cfg, "overlay.svg")
        with open(svg_path, "w") as fh:
            fh.write(_render_overlay(cfg, header, rows))
        written.append(svg_path)
    trace_csv = _out(cfg, "trace.csv")
    if os.path.exists(trace_csv):
        header, rows = read_csv_rows(trace_csv)
        svg_path = _out(cfg, "trace.svg")
        with open(svg_path, "w") as fh:
            fh.write(_render_trace(cfg, header, rows))
        written.append(svg_path)
    summary = _out(cfg, "report.json")
    with open(summary, "w") as fh:
        json.dump({"artifacts": sorted(os.path.basename(p) for p in written)}, fh, sort_keys=True)
        fh.write("\n")
    written.append(summary)
    record_artifacts(cfg, "report", written)
    print(f"report: {len(written)} artifacts in {cfg.out}")
    return 0


def _render_overlay(cfg: ExperimentConfig, header: list[str], rows: list[list[str]]) -> str:
    if not rows:
        return render_empty_svg("prediction overlay")
    if "center_y" in header:
        balls = [(float(r[2]), float(r[3]), float(r[4])) for r in rows]
        realized = [(float(r[5]), float(r[6])) for r in rows]
        plan = []
        plan_csv = _out(cfg, "plan.csv")
        if os.path.exists(plan_csv):
            ph, plan_rows = read_csv_rows(plan_csv)
            ix, iy = ph.index("x0"), ph.index("x2")
            plan = [(float(r[ix]), float(r[iy])) for r in plan_rows]
        return render_overlay_svg(plan, realized, balls, (0.0, 10.0, 0.0, 10.0),
                                  title="plan and prediction balls")
    intervals = [
        (int(r[0]), float(r[2]) - float(r[3]), float(r[2]) + float(r[3]))
        for r in rows
        if int(r[1]) == 0
    ]
    series = {}
    for i in sorted({int(r[1]) for r in rows}):
        series[f"agent{i}"] = [float(r[2]) for r in rows if int(r[1]) == i]
    plan_csv = _out(cfg, "plan.csv")
    if os.path.exists(plan_csv):
        ph, plan_rows = read_csv_rows(plan_csv)
        series["plan"] = [float(r[ph.index("x0")]) for r in plan_rows]
    return render_series_svg(series, intervals, title="plan and prediction intervals")


def _render_trace(cfg: ExperimentConfig, header: list[str], rows: list[list[str]]) -> str:
    if not rows:
        return render_empty_svg("closed-loop trace")
    if cfg.scenario == "robot" and "x2" in header:
        ix, iy = header.index("x0"), header.index("x2")
        plan = [(float(r[ix]), float(r[iy])) for r in rows]
        realized = []
        if "y0_0" in header:
            jx, jy = header.index("y0_0"), header.index("y0_1")
            realized = [(float(r[jx]), float(r[jy])) for r in rows if r[jx] != ""]
        return render_overlay_svg(plan, realized, [], (0.0, 10.0, 0.0, 10.0), title="closed-loop trace")
    series = {"x": [float(r[header.index("x0")]) for r in rows]}
    for name in header:
        if name.startswith("y") and "_" in name:
            series[name] = [float(r[header.index(name)]) for r in rows if r[header.index(name)] != ""]
    return render_series_svg(series, title="closed-loop trace")


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "fit": cmd_fit,
    "calibrate": cmd_calibrate,
    "validate-coverage": cmd_validate_coverage,
    "synth-open": cmd_synth_open,
    "synth-closed": cmd_synth_closed,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlcp",
        description="Control synthesis under STL tasks with conformal prediction regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--mode", choices=("qual", "quant"), default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--export-lp", action="store_true", help="also write the step-0 model as LP")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        errors = validate_config(cfg)
        if not errors:
            make_scenario(cfg)  # rejects bad overrides; resolves delta before hashing configs
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as e:
        errors = [e]
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    os.makedirs(cfg.out, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
