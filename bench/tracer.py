"""In-memory span tracer for the stlcp layers.

Every public function of a layer module is replaced by a wrapper that
records one span (name, layer, start, end, parent) per call.  The wrapper
is installed at every module that binds the function's name, because the
package imports functions by name (``from .milp import solve_bb``), so
patching only the defining module would miss most calls.  A call that
re-enters the function it is already inside (recursion) is not recorded
again.  Spans stay in memory; ``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "stl": "stlcp.stl",
    "prediction": "stlcp.prediction",
    "conformal": "stlcp.conformal",
    "encoding": "stlcp.encoding",
    "milp": "stlcp.milp",
    "synthesis": "stlcp.synthesis",
    "robot": "stlcp.casestudies.robot",
    "temperature": "stlcp.casestudies.temperature",
}

# public methods traced besides module-level functions
METHODS = {"milp": [("MilpModel", "check_solution")]}


def _solution_attrs(sol):
    return {"status": sol.status, "nodes": sol.nodes, "pivots": sol.iterations}


def _step_model_attrs(sm):
    return {
        "k": sm.k,
        "vars": sm.model.n_vars,
        "rows": len(sm.model.rows),
        "binaries": len(sm.model.binary_ids()),
    }


def _closed_loop_attrs(res):
    tally = defaultdict(int)
    for rec in res.records:
        tally[rec.solved_by] += 1
    return {"solved_by": dict(tally)}


def _leader_attrs(out):
    if isinstance(out, tuple):
        return {"stats": out[1].as_dict()}
    return None


ATTRS = {
    "milp.solve_bb": _solution_attrs,
    "milp.dive_solve": _solution_attrs,
    "milp.solve_lp": _solution_attrs,
    "synthesis.build_step_model": _step_model_attrs,
    "synthesis.run_closed_loop": _closed_loop_attrs,
    "robot.gen_robot_leader_dataset": _leader_attrs,
}


class Tracer:
    def __init__(self):
        # [name, layer, start, end, parent, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if attrs_of is not None:
                spans[idx][5] = attrs_of(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        replace = {}
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                replace[id(obj)] = (obj, self._wrap(layer, f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._originals.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(layer, f"{layer}.{meth}", orig))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("stlcp"):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")

    # -- aggregation -------------------------------------------------------

    def summary(self, lo: int, hi: int) -> dict:
        """Per-function call counts and times, per-layer self time, and the
        span attributes, over spans lo..hi-1."""
        spans = self.spans
        child_time = defaultdict(float)
        for idx in range(lo, hi):
            parent = spans[idx][4]
            if parent >= 0:
                child_time[parent] += spans[idx][3] - spans[idx][2]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        attrs = defaultdict(list)
        for idx in range(lo, hi):
            name, layer, start, end, _, at = spans[idx]
            calls[name] += 1
            total[name] += end - start
            self_time[layer] += end - start - child_time[idx]
            if at is not None:
                attrs[name].append(at)
        return {"calls": calls, "total": total, "self": self_time, "attrs": attrs}


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer(tracer: Tracer, mark: int, rounds: int, expected_layers) -> tuple[dict, list[str]]:
    """Per-layer metrics.  Call metrics of the set-up layers (robot,
    conformal, predictor fit) are taken over the set-up; those of the other
    layers over one round of the timed window (window spans divided by the
    number of identical rounds), so set-up solves such as leader replanning
    do not mix with the measured operations.  Self time is set-up plus one
    round.  Returns the metrics and the expected layers with no span."""
    s = tracer.summary(0, mark)
    w = tracer.summary(mark, len(tracer.spans))
    for key in ("calls", "total"):
        w[key] = defaultdict(float, {n: v / rounds for n, v in w[key].items()})

    def src(name):
        return s if name.split(".")[0] in ("robot", "conformal") or name == "prediction.fit_predictor" else w

    def calls(name):
        return src(name)["calls"][name]

    def total(*names):
        return sum(src(n)["total"][n] for n in names)

    def mean(scale, *names):
        n = sum(calls(x) for x in names)
        return scale * total(*names) / n if n else 0.0

    def self_s(layer):
        return s["self"][layer] + w["self"][layer] / rounds

    def attr_sum(name, fn):
        scale = 1.0 if src(name) is s else 1.0 / rounds
        return scale * sum(fn(a) for a in src(name)["attrs"][name])

    solves = ("milp.solve_bb", "milp.dive_solve", "milp.solve_lp")
    nodes = sum(attr_sum(n, lambda a: a["nodes"]) for n in solves)
    pivots = sum(attr_sum(n, lambda a: a["pivots"]) for n in solves)
    dives = calls("milp.dive_solve")
    dive_hits = attr_sum("milp.dive_solve", lambda a: a["status"] == "optimal")
    tally = {kind: attr_sum("synthesis.run_closed_loop", lambda a, kind=kind: a["solved_by"].get(kind, 0))
             for kind in ("reuse", "dive", "search")}
    step0 = [a for a in w["attrs"]["synthesis.build_step_model"] if a["k"] == 0]
    biggest = max(step0, key=lambda a: (a["rows"], a["vars"]), default={"vars": 0, "rows": 0, "binaries": 0})
    kept = attr_sum("robot.gen_robot_leader_dataset", lambda a: a["stats"]["kept"])
    checks = attr_sum("robot.gen_robot_leader_dataset", lambda a: a["stats"]["checks"])
    replans = attr_sum("robot.gen_robot_leader_dataset", lambda a: a["stats"]["dives"])
    bb_s = total("milp.solve_bb")
    lp_s = total(*solves)

    values = {
        "synthesis.build_ms": (mean(1e3, "synthesis.build_step_model"), "ms"),
        "synthesis.build_calls": (calls("synthesis.build_step_model"), "count"),
        "synthesis.self_s": (self_s("synthesis"), "s"),
        "synthesis.steps_reuse": (tally["reuse"], "count"),
        "synthesis.steps_dive": (tally["dive"], "count"),
        "synthesis.steps_search": (tally["search"], "count"),
        "encoding.encode_ms": (mean(1e3, "encoding.encode"), "ms"),
        "encoding.suggest_ms": (mean(1e3, "encoding.candidate_values"), "ms"),
        "encoding.self_s": (self_s("encoding"), "s"),
        "encoding.vars": (biggest["vars"], "count"),
        "encoding.rows": (biggest["rows"], "count"),
        "encoding.binaries": (biggest["binaries"], "count"),
        "milp.nodes": (nodes, "count"),
        "milp.pivots": (pivots, "count"),
        "milp.nodes_per_s": (nodes / bb_s if bb_s else 0.0, "1/s"),
        "milp.pivots_per_s": (pivots / lp_s if lp_s else 0.0, "1/s"),
        "milp.bb_ms": (mean(1e3, "milp.solve_bb"), "ms"),
        "milp.dive_ms": (mean(1e3, "milp.dive_solve"), "ms"),
        "milp.dive_hit_ratio": (dive_hits / dives if dives else 0.0, "ratio"),
        "milp.dives": (dives, "count"),
        "milp.check_ms": (mean(1e3, "milp.check_solution"), "ms"),
        "milp.self_s": (self_s("milp"), "s"),
        "stl.eval_us": (mean(1e6, "stl.eval_boolean", "stl.eval_robustness"), "us"),
        "stl.eval_calls": (calls("stl.eval_boolean") + calls("stl.eval_robustness"), "count"),
        "stl.self_s": (self_s("stl"), "s"),
        "robot.leadergen_ms": (1e3 * total("robot.gen_robot_leader_dataset") / kept if kept else 0.0, "ms"),
        "robot.replay_hit_ratio": ((checks - replans) / checks if checks else 0.0, "ratio"),
        "robot.replay_checks": (checks, "count"),
        "robot.self_s": (self_s("robot"), "s"),
        "conformal.calibrate_ms": (mean(1e3, "conformal.calibrate"), "ms"),
        "conformal.coverage_ms": (mean(1e3, "conformal.validate_coverage"), "ms"),
        "conformal.self_s": (self_s("conformal"), "s"),
        "prediction.fit_ms": (mean(1e3, "prediction.fit_predictor"), "ms"),
        "prediction.table_ms": (mean(1e3, "prediction.prediction_table"), "ms"),
        "prediction.self_s": (self_s("prediction"), "s"),
        "temperature.self_s": (self_s("temperature"), "s"),
    }
    seen = {sp[1] for sp in tracer.spans}
    missing = [layer for layer in expected_layers if layer not in seen]
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}, missing
