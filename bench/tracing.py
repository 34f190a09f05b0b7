"""Tracing from outside the package, and the per-layer metrics built on it.

`Tracer.install` replaces each traced public function by a wrapper under
the same name in every robinbec module that looks it up (for example
`build_spectrum` in both `robinbec.thermo` and `robinbec.cli`, and
`constrained_partition` inside `robinbec.gibbs_oracle` itself).  Each call
records a span (name, start, end, parent, op id) plus counts read from the
call's arguments and result.  Spans stay in memory until `dump`.

`layer_metrics` turns the spans of a whole number of decks into per-op
metrics; it needs no robinbec import.
"""

from __future__ import annotations

import json
import os
import time

# (defining module, function) pairs that are traced.  Only functions called
# a handful of times per op are wrapped, so tracing cost stays small
# (per-mode helpers such as solve_mode or eigenfunction_eval are not).
TRACED = (
    ("spectrum", "build_spectrum"),
    ("spectrum", "bound_state_gap"),
    ("spectrum", "write_spectrum_csv"),
    ("thermo", "solve_mu"),
    ("thermo", "suggest_k_max"),
    ("thermo", "critical_density"),
    ("thermo", "equal_distribution_gap"),
    ("thermo", "mu_asymptotics_check"),
    ("thermo", "write_sweep_csv"),
    ("gibbs_oracle", "run_check"),
    ("gibbs_oracle", "make_truncation"),
    ("gibbs_oracle", "constrained_partition"),
    ("gibbs_oracle", "grand_expectation"),
    ("profile", "density_profile"),
    ("profile", "localization_radius"),
    ("profile", "write_profile_csv"),
    ("cli", "main"),
)
LAYERS = ("spectrum", "thermo", "gibbs_oracle", "profile", "cli")
WRITERS = ("spectrum.write_spectrum_csv", "thermo.write_sweep_csv", "profile.write_profile_csv")


def conv_cells(caps) -> int:
    """Operation count of one DP pass over the k >= 2 modes: the sum over
    modes of (cap_k + 1) times the length of the running vector it is
    convolved into (1 + the caps before it)."""
    cells, running = 0, 1
    for cap in caps[2:]:
        cells += (cap + 1) * running
        running += cap
    return cells


def _reaches_dp(obs) -> bool:
    # grand_expectation returns before touching z unless the observable
    # has a k >= 2 factor or an Ntil polynomial
    return any(k >= 2 for k, _ in obs.factors) or obs.ntilde_poly is not None


def _has_excited_factor(obs) -> bool:
    return any(k >= 2 for k, _ in obs.factors)


def _observe(name, args, kwargs, result, info, tracer):
    """Counts read at the boundary of one traced call."""
    if name == "spectrum.build_spectrum":
        info["modes"] = len(result.modes)
        info["key"] = [result.params.sigma, result.params.L, result.k_max]
    elif name == "thermo.solve_mu":
        inp = args[0]
        info["modes"] = len(result.epsilons)
        info["residual_rel"] = result.density_residual / inp.rho
    elif name == "gibbs_oracle.constrained_partition":
        info["cells"] = conv_cells(args[0].caps)
        info["dp_len"] = sum(args[0].caps[2:]) + 1
        tracer.z_spans[id(result)] = (result, info)
        info["z_used"] = False
    elif name == "gibbs_oracle.grand_expectation":
        obs, spec = args[0], args[1]
        z = kwargs.get("z", args[3] if len(args) > 3 else None)
        info["dp_pass"] = _has_excited_factor(obs)
        if info["dp_pass"]:
            info["cells"] = conv_cells(spec.caps)
        if _reaches_dp(obs):
            if z is not None and id(z) in tracer.z_spans:
                tracer.z_spans[id(z)][1]["z_used"] = True
            for child in tracer.spans[info["id"] + 1:]:  # z built inside this call
                if child["parent"] == info["id"] and child["name"] == "gibbs_oracle.constrained_partition":
                    child["z_used"] = True
    elif name == "gibbs_oracle.run_check":
        info["check"] = args[0]
    elif name == "profile.density_profile":
        info["mode_points"] = len(args[1].occ) * int(args[2])
    elif name in WRITERS:
        info["bytes"] = os.path.getsize(args[1])


class Tracer:
    """Collects spans of traced calls; one instance per traced run."""

    def __init__(self, package):
        self.package = package
        self.restore = []
        self.spans = []
        self.stack = []
        self.op = -1
        self.z_spans = {}  # id(z) -> (z, info); z is held so its id stays unique

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self.z_spans.clear()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            info = {"name": name, "op": tracer.op, "parent": parent["id"] if parent else None,
                    "id": len(tracer.spans)}
            tracer.spans.append(info)
            tracer.stack.append(info)
            info["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                info["end"] = time.perf_counter()
                tracer.stack.pop()
            _observe(name, args, kwargs, result, info, tracer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every TRACED function under its name in each module of the
        package that looks it up."""
        modules = [getattr(self.package, name) for name in LAYERS]
        for home, fname in TRACED:
            original = getattr(getattr(self.package, home), fname)
            wrapper = self._wrap(f"{home}.{fname}", original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self.restore.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self.restore):
            setattr(mod, fname, original)
        self.restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> dict:
    """span id -> duration minus the time covered by its direct children."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER_UNITS = {
    "spectrum.build_spectrum.calls": "calls/op",
    "spectrum.build_spectrum.busy_s": "s/op",
    "spectrum.modes_built": "modes/op",
    "spectrum.us_per_mode": "us/mode",
    "spectrum.useful_build_ratio": "ratio",
    "spectrum.bound_state_gap.calls": "calls/op",
    "spectrum.bound_state_gap.busy_s": "s/op",
    "thermo.solve_mu.calls": "calls/op",
    "thermo.solve_mu.self_s": "s/op",
    "thermo.modes_per_solve": "modes/call",
    "thermo.suggest_k_max.busy_s": "s/op",
    "thermo.critical_density.calls": "calls/op",
    "thermo.critical_density.busy_s": "s/op",
    "thermo.equal_distribution_gap.calls": "calls/op",
    "thermo.equal_distribution_gap.busy_s": "s/op",
    "thermo.mu_asymptotics_check.busy_s": "s/op",
    "thermo.max_density_residual_rel": "rel",
    "gibbs_oracle.run_check.calls": "calls/op",
    "gibbs_oracle.run_check.busy_s": "s/op",
    "gibbs_oracle.make_truncation.busy_s": "s/op",
    "gibbs_oracle.constrained_partition.calls": "calls/op",
    "gibbs_oracle.grand_expectation.calls": "calls/op",
    "gibbs_oracle.grand_expectation.self_s": "s/op",
    "gibbs_oracle.dp_len": "entries",
    "gibbs_oracle.dp_passes": "passes/op",
    "gibbs_oracle.conv_cells": "cells/op",
    "gibbs_oracle.useful_pass_ratio": "ratio",
    "profile.density_profile.calls": "calls/op",
    "profile.density_profile.busy_s": "s/op",
    "profile.mode_points": "points/op",
    "profile.ns_per_mode_point": "ns/point",
    "profile.localization_radius.busy_s": "s/op",
    "cli.writers.busy_s": "s/op",
    "cli.bytes_written": "bytes/op",
    "cli.ns_per_byte_written": "ns/byte",
    "cli.main.self_s": "s/op",
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def dp_passes(spans) -> tuple[int, int]:
    """(DP passes, passes whose result is used).  A pass is a
    constrained_partition call or a grand_expectation call with a k >= 2
    factor; the latter always uses its own convolution."""
    passes = useful = 0
    for s in spans:
        if s["name"] == "gibbs_oracle.constrained_partition":
            passes += 1
            useful += bool(s.get("z_used"))
        elif s["name"] == "gibbs_oracle.grand_expectation" and s.get("dp_pass"):
            passes += 1
            useful += 1
    return passes, useful


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics (name -> value) from the spans of `n_ops` traced ops.

    Counts and times are per op; ratios are ratios of totals and read 0
    on a workload where the layer does not run.
    """
    self_t = self_times(spans)
    calls, busy, selfs = {}, {}, {}
    for s in spans:
        n = s["name"]
        calls[n] = calls.get(n, 0) + 1
        busy[n] = busy.get(n, 0.0) + s["end"] - s["start"]
        selfs[n] = selfs.get(n, 0.0) + self_t[s["id"]]

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    def total(key, name):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    builds_by_op = {}
    for s in spans:
        if s["name"] == "spectrum.build_spectrum":
            builds_by_op.setdefault(s["op"], []).append(tuple(s["key"]))
    unique_builds = sum(len(set(v)) for v in builds_by_op.values())
    n_builds = calls.get("spectrum.build_spectrum", 0)
    modes = total("modes", "spectrum.build_spectrum")
    solves = calls.get("thermo.solve_mu", 0)
    passes, useful = dp_passes(spans)
    cells = sum(s.get("cells", 0) for s in spans if s["name"].startswith("gibbs_oracle."))
    checks = calls.get("gibbs_oracle.run_check", 0)
    mode_points = total("mode_points", "profile.density_profile")
    writer_busy = sum(busy.get(w, 0.0) for w in WRITERS)
    written = sum(total("bytes", w) for w in WRITERS)
    residuals = [s["residual_rel"] for s in spans if s["name"] == "thermo.solve_mu"]
    return {
        "spectrum.build_spectrum.calls": n_builds / n_ops,
        "spectrum.build_spectrum.busy_s": per_op(busy, "spectrum.build_spectrum"),
        "spectrum.modes_built": modes / n_ops,
        "spectrum.us_per_mode": 1e6 * _ratio(busy.get("spectrum.build_spectrum", 0.0), modes),
        "spectrum.useful_build_ratio": _ratio(unique_builds, n_builds),
        "spectrum.bound_state_gap.calls": per_op(calls, "spectrum.bound_state_gap"),
        "spectrum.bound_state_gap.busy_s": per_op(busy, "spectrum.bound_state_gap"),
        "thermo.solve_mu.calls": solves / n_ops,
        "thermo.solve_mu.self_s": per_op(selfs, "thermo.solve_mu"),
        "thermo.modes_per_solve": _ratio(total("modes", "thermo.solve_mu"), solves),
        "thermo.suggest_k_max.busy_s": per_op(busy, "thermo.suggest_k_max"),
        "thermo.critical_density.calls": per_op(calls, "thermo.critical_density"),
        "thermo.critical_density.busy_s": per_op(busy, "thermo.critical_density"),
        "thermo.equal_distribution_gap.calls": per_op(calls, "thermo.equal_distribution_gap"),
        "thermo.equal_distribution_gap.busy_s": per_op(busy, "thermo.equal_distribution_gap"),
        "thermo.mu_asymptotics_check.busy_s": per_op(busy, "thermo.mu_asymptotics_check"),
        "thermo.max_density_residual_rel": max(residuals, default=0.0),
        "gibbs_oracle.run_check.calls": checks / n_ops,
        "gibbs_oracle.run_check.busy_s": per_op(busy, "gibbs_oracle.run_check"),
        "gibbs_oracle.make_truncation.busy_s": per_op(busy, "gibbs_oracle.make_truncation"),
        "gibbs_oracle.constrained_partition.calls": per_op(calls, "gibbs_oracle.constrained_partition"),
        "gibbs_oracle.grand_expectation.calls": per_op(calls, "gibbs_oracle.grand_expectation"),
        "gibbs_oracle.grand_expectation.self_s": per_op(selfs, "gibbs_oracle.grand_expectation"),
        "gibbs_oracle.dp_len": _ratio(total("dp_len", "gibbs_oracle.constrained_partition"),
                                      calls.get("gibbs_oracle.constrained_partition", 0)),
        "gibbs_oracle.dp_passes": passes / n_ops,
        "gibbs_oracle.conv_cells": cells / n_ops,
        "gibbs_oracle.useful_pass_ratio": _ratio(useful, passes),
        "profile.density_profile.calls": per_op(calls, "profile.density_profile"),
        "profile.density_profile.busy_s": per_op(busy, "profile.density_profile"),
        "profile.mode_points": mode_points / n_ops,
        "profile.ns_per_mode_point": 1e9 * _ratio(busy.get("profile.density_profile", 0.0), mode_points),
        "profile.localization_radius.busy_s": per_op(busy, "profile.localization_radius"),
        "cli.writers.busy_s": writer_busy / n_ops,
        "cli.bytes_written": written / n_ops,
        "cli.ns_per_byte_written": 1e9 * _ratio(writer_busy, written),
        "cli.main.self_s": per_op(selfs, "cli.main"),
    }
