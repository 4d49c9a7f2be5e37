"""Counters read at layer boundaries, and the per-layer metrics of a traced run.

Hooks see the arguments and result of one traced function and update the
tracer's counters, so each ratio is measured where its work happens.
``per_layer`` turns a finished trace into the metrics named in
BENCHMARK.json: the self-time share of every layer and of the functions an
optimization is likely to move, their calls per item, and the ratios below.
"""

import statistics

import numpy as np

from disacsim import estimator
from tracer import LAYERS


def _cpd_als(tracer, args, kwargs, result, elapsed):
    opts = kwargs.get("opts", args[2] if len(args) > 2 else None) or estimator.AlsOptions()
    sweeps = len(result.residual_history)
    tracer.count("als.sweeps_winner", sweeps)
    tracer.count("als.cap_hits", int(sweeps >= opts.max_sweeps))
    data = getattr(args[0], "data", args[0])
    norm = float(np.linalg.norm(data))
    tracer.sample("als.rel_residual", result.residual / norm if norm else 0.0)


def _estimate_paths(tracer, args, kwargs, result, elapsed):
    tracer.count("paths.estimated", len(result))
    tracer.count("paths.low_confidence", sum(p.low_confidence for p in result))


def _load_tensor(tracer, args, kwargs, result, elapsed):
    tracer.count("load.bytes", result.data.nbytes)


def _identify_los(tracer, args, kwargs, result, elapsed):
    tracer.count("los.picks")
    tracer.count("los.ambiguous", int(result[1]))


def _clutter_filter(tracer, args, kwargs, result, elapsed):
    tracer.count("clutter.paths", len(args[0]))
    tracer.count("clutter.kept", len(result))


def _build_associations(tracer, args, kwargs, result, elapsed):
    labels = result[1]
    tracer.count("assoc.points", len(labels))
    tracer.count("assoc.clustered", int(np.sum(labels != -1)))


def _build_joint_system(tracer, args, kwargs, result, elapsed):
    rows, unknowns = result.matrix.shape
    tracer.count("joint.systems")
    tracer.count("joint.rows", rows)
    tracer.count("joint.unknowns", unknowns)


def _run_trial(tracer, args, kwargs, result, elapsed):
    tracer.sample("harness.run_trial", elapsed)


HOOKS = {
    "estimator.cpd_als": _cpd_als,
    "estimator.estimate_paths": _estimate_paths,
    "waveform.load_tensor": _load_tensor,
    "pipeline.identify_los": _identify_los,
    "pipeline.clutter_filter": _clutter_filter,
    "pipeline.build_associations": _build_associations,
    "fusion.build_joint_system": _build_joint_system,
    "harness.run_trial": _run_trial,
}

# functions whose self-time share and calls per item are reported
FUNCTIONS = (
    "estimator.cpd_als",
    "estimator.select_model_order",
    "estimator.extract_angle",
    "estimator.estimate_paths",
    "waveform.path_beam_factors",
    "waveform.synthesize_tensor",
    "waveform.load_tensor",
    "cli.main",
    "scene.random_scene",
    "scene.generate_ground_truth_paths",
    "pipeline.unwrap_delays",
    "pipeline.identify_los",
    "pipeline.clutter_filter",
    "pipeline.localize_single",
    "pipeline.build_associations",
    "pipeline.dbscan",
    "fusion.run_fusion",
    "fusion.build_joint_system",
    "fusion.solve_wls",
    "harness.run_trial",
    "harness.run_montecarlo",
)
# one function reached from two layers, reported per call site
CALL_SITES = (("fusion.solve_wls", "pipeline"), ("fusion.solve_wls", "fusion"))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, item_seconds, loop_s, wrapper_cost_s):
    """Metrics of a traced run: name -> (value, unit), plus a seconds table.

    Shares are self time over the timed loop time, which holds every item
    and, on desk_mc, the Monte Carlo driver between trials.
    """
    total = loop_s
    n = len(item_seconds)
    funcs = tracer.by_function()
    layers = tracer.by_layer()
    c = tracer.counters
    calls = sum(s.calls for s in funcs.values())
    out = {
        "trace.item_s_p50": (statistics.median(item_seconds), "s"),
        "trace.overhead_share": (_ratio(calls * wrapper_cost_s, total), "ratio"),
        "trace.spans": (_ratio(calls, n), "1/item"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = (_ratio(layers[layer], total), "ratio")
    out["layer.bench.share"] = (_ratio(total - sum(layers.values()), total), "ratio")
    seconds = {}
    for key in FUNCTIONS:
        s = funcs.get(key)
        self_s, n_calls = (s.self_s, s.calls) if s else (0.0, 0)
        out[f"{key}.share"] = (_ratio(self_s, total), "ratio")
        out[f"{key}.calls"] = (_ratio(n_calls, n), "1/item")
        seconds[key] = (_ratio(self_s, n), _ratio(s.total_s, n) if s else 0.0, n_calls)
    for key, site in CALL_SITES:
        s = tracer.stats.get((key, site))
        out[f"{key}.from_{site}.share"] = (_ratio(s.self_s if s else 0.0, total), "ratio")
    als_calls = funcs["estimator.cpd_als"].calls if "estimator.cpd_als" in funcs else 0
    residuals = tracer.samples.get("als.rel_residual", [])
    out.update({
        "estimator.cpd_als.sweeps_winner": (_ratio(c.get("als.sweeps_winner", 0), n), "1/item"),
        "estimator.cpd_als.cap_share": (_ratio(c.get("als.cap_hits", 0), als_calls), "ratio"),
        "estimator.cpd_als.rel_residual_p50": (
            statistics.median(residuals) if residuals else 0.0, "ratio"),
        "estimator.low_confidence_share": (
            _ratio(c.get("paths.low_confidence", 0), c.get("paths.estimated", 0)), "ratio"),
        "waveform.load_tensor.bytes": (_ratio(c.get("load.bytes", 0), n), "B/item"),
        "pipeline.los_ambiguous": (_ratio(c.get("los.ambiguous", 0), c.get("los.picks", 0)), "ratio"),
        "pipeline.clutter_kept_share": (
            _ratio(c.get("clutter.kept", 0), c.get("clutter.paths", 0)), "ratio"),
        "pipeline.clustered_share": (
            _ratio(c.get("assoc.clustered", 0), c.get("assoc.points", 0)), "ratio"),
        "fusion.rows": (_ratio(c.get("joint.rows", 0), c.get("joint.systems", 0)), "count"),
        "fusion.unknowns": (_ratio(c.get("joint.unknowns", 0), c.get("joint.systems", 0)), "count"),
    })
    return out, seconds
