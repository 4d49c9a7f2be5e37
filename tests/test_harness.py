import csv
import json
import math
import multiprocessing
import os
import re
import shlex
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from disacsim import cli, harness, pipeline
from disacsim.estimator import AlsOptions, estimate_paths
from disacsim.fusion import SceneEstimate
from disacsim.geometry import BORESIGHT_ALONG_X
from disacsim.harness import (
    CSV_COLUMNS,
    ConfigError,
    Mode,
    ModeOutcome,
    MonteCarloResult,
    ScenarioConfig,
    TrialResult,
    default_scenario,
    load_config,
    match_targets,
    parse_mode,
    percentile,
    receiver_seed,
    run_montecarlo,
    run_trial,
    scenario_from_dict,
    wrap_timing_offset,
    write_csv,
    write_results,
    write_scene,
)
from disacsim.scene import (
    ClutterPoint,
    ExtendedTarget,
    ReceiverNode,
    Scene,
    TransmitterNode,
    UpaGeometry,
    random_scene,
)

SCHEMA = "disacsim-config/1"

MINI = {
    "schema": SCHEMA,
    "seed": 3,
    "trials": 2,
    "modes": ["disac", "isac:0"],
    "ofdm": {"num_subcarriers": 32, "bandwidth_hz": 50.0e6},
    "arrays": {"bs": {"n_x": 8, "n_y": 8}, "ue": {"n_x": 4, "n_y": 4}},
    "beams": {"bs_az": 4, "bs_el": {"num": 3, "first": -3}, "ue_az": 4, "ue_el": 4},
    "scene": {
        "num_receivers": 2,
        "num_targets": 1,
        "scatter_points_per_target": 2,
        "num_clutter": 1,
        "target_extent_m": 0.4,
    },
    "estimation": {"max_rank": 8, "restarts": 2},
}


def mini_config(**scene_overrides):
    raw = json.loads(json.dumps(MINI))
    raw["scene"].update(scene_overrides)
    return scenario_from_dict(raw)


def with_modes(cfg, *names):
    """``cfg`` running the modes ``names`` instead of its own."""
    return replace(cfg, modes=tuple(map(parse_mode, names)))


# ---------------------------------------------------------------------------
# Modes and configuration
# ---------------------------------------------------------------------------


def test_parse_mode():
    assert parse_mode("disac") == Mode(ue_id=None, weighting="wls")
    assert parse_mode("disac").kind == "disac"
    assert parse_mode("disac-ls").weighting == "ls"
    assert parse_mode("disac-ls").name == "disac-ls"
    m = parse_mode("isac:3")
    assert (m.kind, m.ue_id, m.name) == ("isac", 3, "isac:3")
    assert parse_mode("isac:2-ls").name == "isac:2-ls"
    with pytest.raises(ConfigError):
        parse_mode("isac:x")
    with pytest.raises(ConfigError):
        parse_mode("radar")


def test_default_scenario_values():
    cfg = default_scenario()
    assert cfg.ofdm.num_subcarriers == 64
    assert cfg.ofdm.subcarrier_spacing == pytest.approx(1.5625e6)
    assert (cfg.books.tx_geom.n_x, cfg.books.tx_geom.n_y) == (16, 16)
    assert (cfg.books.rx_geom.n_x, cfg.books.rx_geom.n_y) == (8, 8)
    assert cfg.books.tx_geom == cfg.scene.tx_array and cfg.books.rx_geom == cfg.scene.rx_array
    # 8 azimuth beams centred on broadside, 4 elevation beams from DFT beam 11
    assert cfg.books.tx_az.beam_indices == (12, 13, 14, 15, 0, 1, 2, 3)
    assert cfg.books.tx_el.beam_indices == (11, 12, 13, 14)
    assert cfg.books.beam_shape == (8, 8, 4, 8)
    assert cfg.eps_m == 2.0
    assert cfg.detection_radius_m == 5.0
    assert cfg.trials == 50
    assert [m.name for m in cfg.modes] == ["disac"]
    assert cfg.effective_snr_db == 20.0


def test_default_scenario_takes_the_als_defaults():
    assert default_scenario().als == AlsOptions()


def test_default_scenario_overrides():
    cfg = default_scenario(trials=7, estimation={"restarts": 1, "max_rank": 6})
    assert cfg.trials == 7 and cfg.als.restarts == 1 and cfg.max_rank == 6
    # null keeps the default, except that it switches SNR calibration off
    cfg = default_scenario(
        seed=None, ofdm={"num_subcarriers": None}, estimation={"effective_snr_db": None}
    )
    assert cfg.seed == 0 and cfg.ofdm.num_subcarriers == 64 and cfg.effective_snr_db is None
    # a partial field of interest keeps the stock other half
    foi = default_scenario(scene={"foi_az_deg": 45.0}).scene.foi
    assert foi.azimuth == pytest.approx(np.deg2rad(45.0))
    assert foi.elevation == default_scenario().scene.foi.elevation


def test_config_schema_gate():
    with pytest.raises(ConfigError, match="schema"):
        scenario_from_dict({})
    with pytest.raises(ConfigError, match="unsupported schema"):
        scenario_from_dict({"schema": "disacsim-config/9"})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({"schema": SCHEMA, "snr": 20})
    with pytest.raises(ConfigError, match="ofdm"):
        scenario_from_dict({"schema": SCHEMA, "ofdm": {"bandwidth": 1e8}})
    with pytest.raises(ConfigError, match="beams"):
        scenario_from_dict({"schema": SCHEMA, "beams": {"bs_az": {"count": 4}}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="seed"):
        scenario_from_dict({"schema": SCHEMA, "seed": -1})
    with pytest.raises(ConfigError, match="trials"):
        scenario_from_dict({"schema": SCHEMA, "trials": 0})
    with pytest.raises(ConfigError, match="modes"):
        scenario_from_dict({"schema": SCHEMA, "modes": "disac"})
    with pytest.raises(ConfigError):
        scenario_from_dict({"schema": SCHEMA, "modes": ["warp"]})
    with pytest.raises(ConfigError, match="isac:2"):  # the stock scenario has receivers 0 and 1
        scenario_from_dict({"schema": SCHEMA, "modes": ["isac:2"]})
    # a mode listed twice, under any spelling, would run and be written twice
    for modes, name in [(["disac", "disac"], "disac"), (["isac:1", "isac:01"], "isac:1")]:
        with pytest.raises(ConfigError, match=rf"^modes: mode '{name}' is listed twice$"):
            scenario_from_dict({"schema": SCHEMA, "modes": modes})
    with pytest.raises(ConfigError, match="arrays.bs"):
        scenario_from_dict({"schema": SCHEMA, "arrays": {"bs": {"n_x": 0}}})
    with pytest.raises(ConfigError, match="mapping"):
        scenario_from_dict({"schema": SCHEMA, "scene": [1, 2]})
    with pytest.raises(ConfigError, match="estimation.max_rank"):
        scenario_from_dict({"schema": SCHEMA, "estimation": {"max_rank": "abc"}})
    with pytest.raises(ConfigError, match="scene.num_targets"):
        scenario_from_dict({"schema": SCHEMA, "scene": {"num_targets": "two"}})
    with pytest.raises(ConfigError, match="beams.bs_az.num"):
        scenario_from_dict({"schema": SCHEMA, "beams": {"bs_az": {"num": "x"}}})
    # an integer with no lower bound names no bound
    with pytest.raises(ConfigError, match=r"^beams\.bs_az\.first: expected an integer, got 'x'$"):
        scenario_from_dict({"schema": SCHEMA, "beams": {"bs_az": {"first": "x"}}})
    with pytest.raises(ConfigError, match="scene.clutter_reflectivity_range"):
        scenario_from_dict(
            {"schema": SCHEMA, "scene": {"clutter_reflectivity_range": [0.1, 0.5, 0.9]}}
        )
    with pytest.raises(ConfigError, match="scene.ue_box"):
        scenario_from_dict({"schema": SCHEMA, "scene": {"ue_box": [1.0, 2.0]}})
    # a receiver drawn at or below ground would fail every trial at its scene
    for z_range in ([-1.0, -0.5], [0.0, 1.5]):
        with pytest.raises(ConfigError, match=r"^scene: ue_box z range must lie above ground"):
            scenario_from_dict(
                {"schema": SCHEMA, "scene": {"ue_box": [[15, 25], [-8, 8], z_range]}}
            )
    # more beams than the 16-element BS azimuth axis has
    with pytest.raises(ConfigError, match="beams.bs_az"):
        scenario_from_dict({"schema": SCHEMA, "beams": {"bs_az": 40}})
    # YAML booleans are not numbers, although bool is a subclass of int
    with pytest.raises(ConfigError, match=r"^trials: expected an integer >= 1, got True$"):
        scenario_from_dict({"schema": SCHEMA, "trials": True})
    with pytest.raises(ConfigError, match=r"^seed: expected an integer >= 0, got False$"):
        scenario_from_dict({"schema": SCHEMA, "seed": False})
    with pytest.raises(ConfigError, match=r"^scene\.num_targets: .* got True$"):
        scenario_from_dict({"schema": SCHEMA, "scene": {"num_targets": True}})
    with pytest.raises(ConfigError, match=r"^ofdm\.bandwidth_hz: expected a number, got True$"):
        scenario_from_dict({"schema": SCHEMA, "ofdm": {"bandwidth_hz": True}})
    # a clustering radius or detection radius of zero or less would spend the
    # whole estimation and then fail every mode, or silently detect nothing
    for section, key, value in [("clustering", "eps_m", 0), ("clustering", "eps_m", -2),
                                ("metrics", "detection_radius_m", -1),
                                ("metrics", "detection_radius_m", float("nan"))]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a number > 0"):
            scenario_from_dict({"schema": SCHEMA, section: {key: value}})
    # YAML's .nan and .inf are numbers, but no setting may be one: a NaN
    # spacing, power or SNR failed every trial at synthesis, a NaN
    # reflectivity every trial at scene sampling
    nan, inf = float("nan"), float("inf")
    for section, key, value in [("arrays", "spacing_wavelengths", nan),
                                ("ofdm", "tx_power_dbm", nan),
                                ("ofdm", "carrier_freq_hz", inf),
                                ("estimation", "effective_snr_db", nan),
                                ("estimation", "effective_snr_db", -inf),
                                ("estimation", "rel_tol", nan),
                                ("scene", "target_reflectivity_range", [nan, 1]),
                                ("clustering", "eps_m", inf)]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a finite number"):
            scenario_from_dict({"schema": SCHEMA, section: {key: value}})
    # scene settings that would fail every trial at scene sampling; clutter
    # reflectivity above 1 stays allowed
    for key, value, message in [
        ("target_reflectivity_range", [-1, -0.5], "0 <= lo <= hi"),
        ("clutter_reflectivity_range", [-0.1, 0.5], "0 <= lo <= hi"),
        ("target_reflectivity_range", [2.0, 1.0], "0 <= lo <= hi"),
        ("clutter_reflectivity_range", [0.9, 0.3], "0 <= lo <= hi"),
        ("target_extent_m", -0.1, r"lie in \[0, 3\.46\] m"),
        ("target_extent_m", 5.0, r"lie in \[0, 3\.46\] m"),
    ]:
        with pytest.raises(ConfigError, match=rf"^scene: {key} must .*{message}"):
            scenario_from_dict({"schema": SCHEMA, "scene": {key: value}})
    scene = scenario_from_dict(
        {"schema": SCHEMA, "scene": {"clutter_reflectivity_range": [0.5, 1.5],
                                     "target_extent_m": 3.4}}
    ).scene
    assert scene.clutter_reflectivity_range == (0.5, 1.5) and scene.target_extent_m == 3.4
    # a reflectivity range is a list of two numbers: the string "12" would
    # unpack into (1.0, 2.0), and three numbers into Python's unpacking error
    for value in ["12", [1, 2, 3], 0.5]:
        with pytest.raises(ConfigError, match=r"^scene\.target_reflectivity_range: expected "
                                              r"a list of two numbers, got "):
            scenario_from_dict({"schema": SCHEMA, "scene": {"target_reflectivity_range": value}})
    # a non-finite box entry passes the order check, then fails every trial at sampling
    for corner in [[15.0, nan], [15.0, inf], [-inf, 20.0]]:
        with pytest.raises(ConfigError, match=r"^scene\.ue_box: box entries must be finite"):
            scenario_from_dict(
                {"schema": SCHEMA, "scene": {"ue_box": [corner, [-8.0, 8.0], [1.2, 1.8]]}}
            )
    # a negative tolerance would silently switch the ALS tolerance stop off
    with pytest.raises(ConfigError, match=r"^estimation: rel_tol must be a number >= 0"):
        scenario_from_dict({"schema": SCHEMA, "estimation": {"rel_tol": -1}})
    # PyYAML reads 100e6 (no dot) as a string; it stays a valid number
    raw = yaml.safe_load(f"schema: {SCHEMA}\nofdm: {{bandwidth_hz: 100e6}}\n")
    assert raw["ofdm"]["bandwidth_hz"] == "100e6"
    assert scenario_from_dict(raw).ofdm.bandwidth == 100e6


def test_load_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(f"schema: {SCHEMA}\ntrials: 4\nmodes: [disac, disac-ls]\n")
    cfg = load_config(str(path))
    assert cfg.trials == 4 and [m.name for m in cfg.modes] == ["disac", "disac-ls"]
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("trials: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def test_percentile_validation():
    with pytest.raises(ValueError, match="empty"):
        percentile([], 0.5)
    with pytest.raises(ValueError, match="NaN"):
        percentile([1.0, float("nan")], 0.5)
    with pytest.raises(ValueError, match="NaN"):
        percentile(iter([float("nan")]), 0.5)
    with pytest.raises(ValueError, match="p must"):
        percentile([1.0, 2.0], 1.5)
    with pytest.raises(ValueError, match="p must"):
        percentile([1.0, 2.0], -0.1)
    with pytest.raises(ValueError, match="p must"):
        percentile([1.0, 2.0], float("nan"))


def test_percentile_single_sample():
    assert percentile([3.0], 0.0) == 3.0
    assert percentile([3.0], 0.2) == 3.0
    assert percentile([3.0], 1.0) == 3.0
    assert percentile((3.0,), 0.5) == 3.0


def test_quantile_hits_the_order_statistics():
    # the i-th order statistic sits at p = i/n; in between, the linear interpolant
    rng = np.random.default_rng(0)
    vals = rng.uniform(-5.0, 5.0, size=37)
    ordered = np.sort(vals)
    for i, x in enumerate(ordered, start=1):
        assert abs(percentile(vals, i / vals.size) - x) <= 1e-9
    p = 2.5 / vals.size
    assert percentile(vals, p) == pytest.approx(0.5 * (ordered[1] + ordered[2]))


def test_quantile_monotone_and_clamped():
    vals = [16.0, 1.0, 9.0, 4.0]
    grid = np.linspace(0.0, 1.0, 101)
    q = [percentile(vals, p) for p in grid]
    assert all(b >= a for a, b in zip(q, q[1:]))
    assert q[0] == 1.0 and q[-1] == 16.0
    # below 1/n the quantile clamps to the smallest sample
    assert percentile(vals, 0.2) == 1.0


def test_median_and_percentile():
    assert percentile([5.0], 0.5) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


def test_wrap_timing_offset():
    period = 640e-9
    assert wrap_timing_offset(0.9 * period, period) == pytest.approx(-0.1 * period)
    assert wrap_timing_offset(17e-9, period) == pytest.approx(17e-9)
    assert wrap_timing_offset(period / 2, period) == pytest.approx(period / 2)
    assert wrap_timing_offset(-period / 2, period) == pytest.approx(period / 2)
    v = 123e-9
    for k in (-2, -1, 1, 3):
        assert wrap_timing_offset(v + k * period, period) == pytest.approx(v)


# ---------------------------------------------------------------------------
# Target matching
# ---------------------------------------------------------------------------


def _match_scene(timing_offset=0.0):
    tx = TransmitterNode(position=[0.0, 0.0, 14.0], array=UpaGeometry(4, 4, 0.01, 0.02))
    rx = ReceiverNode(
        node_id=0, position=[40.0, 2.0, 1.4], orientation=BORESIGHT_ALONG_X.copy(),
        timing_offset=timing_offset, array=UpaGeometry(2, 2, 0.01, 0.02),
    )
    targets = [
        ExtendedTarget(0, np.array([[20.0, 0.0, 1.0]]), np.array([1.0])),
        ExtendedTarget(1, np.array([[30.0, 0.0, 1.0]]), np.array([1.0])),
    ]
    return Scene(tx=tx, receivers=[rx], targets=targets, clutter=[])


def _estimate_with_points(points):
    return SceneEstimate(
        ue_positions={}, ue_timing_offsets={},
        target_points={i: np.asarray(p, dtype=float) for i, p in enumerate(points)},
        excluded_targets={}, residual=0.0,
    )


def test_match_targets_greedy_and_false_alarms():
    scene = _match_scene()
    est = _estimate_with_points(
        [[20.5, 0.0, 1.0], [21.0, 0.0, 1.0], [100.0, 0.0, 1.0]]
    )
    detected, errors, false_alarms = match_targets(est, scene, detection_radius=5.0)
    assert detected == {0: True, 1: False}
    assert errors == {0: pytest.approx(0.5)}
    assert false_alarms == 2


def test_match_targets_one_to_one():
    scene = _match_scene()
    est = _estimate_with_points([[20.2, 0.0, 1.0], [29.0, 0.0, 1.0]])
    detected, errors, false_alarms = match_targets(est, scene, detection_radius=5.0)
    assert detected == {0: True, 1: True}
    assert errors[1] == pytest.approx(1.0)
    assert false_alarms == 0


def test_match_targets_radius_gate():
    scene = _match_scene()
    est = _estimate_with_points([[26.0, 0.0, 1.0]])
    detected, errors, false_alarms = match_targets(est, scene, detection_radius=5.0)
    # nearest target (id 1, distance 4) is matched; target 0 is 6 m away
    assert detected == {0: False, 1: True}
    assert false_alarms == 0
    detected, _, false_alarms = match_targets(est, scene, detection_radius=3.0)
    assert detected == {0: False, 1: False}
    assert false_alarms == 1


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def test_run_trial_deterministic():
    cfg = mini_config()
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    ja = json.dumps(a.canonical_dict(), sort_keys=True)
    jb = json.dumps(b.canonical_dict(), sort_keys=True)
    assert ja == jb
    assert "runtimes" not in a.canonical_dict()
    assert set(a.outcomes) == {"disac", "isac:0"}


def test_run_trial_noiseless_is_nearly_exact():
    raw = json.loads(json.dumps(MINI))
    raw["scene"]["scatter_points_per_target"] = 1
    raw["estimation"]["effective_snr_db"] = 180.0
    cfg = scenario_from_dict(raw)
    result = run_trial(with_modes(cfg, "disac"), 0)
    oc = result.outcomes["disac"]
    assert oc.failure is None
    assert oc.ue_errors and all(e < 1e-3 for e in oc.ue_errors.values())
    assert oc.to_errors and all(e < 1e-11 for e in oc.to_errors.values())
    assert all(oc.target_detected.values())
    assert all(e < 1e-3 for e in oc.target_errors.values())


def test_clock_offsets_are_compared_modulo_the_delay_period():
    # offsets beyond half the 640 ns period are estimated as their wrapped
    # representative; compared with the raw truth, they read about 640 ns off
    raw = json.loads(json.dumps(MINI))
    raw["seed"] = 5  # draws offsets of -529 and -481 ns
    raw["scene"].update(scatter_points_per_target=1, timing_offset_range_ns=600)
    raw["estimation"]["effective_snr_db"] = 180.0
    cfg = with_modes(scenario_from_dict(raw), "disac")
    period = cfg.ofdm.delay_period
    offsets = [rx.timing_offset for rx in random_scene(cfg.scene, cfg.seed).receivers]
    assert period == pytest.approx(640e-9) and min(map(abs, offsets)) > period / 2
    oc = run_trial(cfg, 0).outcomes["disac"]
    assert oc.failure is None and len(oc.to_errors) == 2
    assert all(e < 1e-11 for e in oc.to_errors.values())


def test_evaluate_mode_takes_the_offset_nearest_the_truth():
    period = 640e-9
    scene = _match_scene(timing_offset=319.5e-9)
    estimate = SceneEstimate(
        ue_positions={}, ue_timing_offsets={0: wrap_timing_offset(320.5e-9, period)},
        target_points={}, excluded_targets={}, residual=0.0,
    )
    mode = parse_mode("disac")
    assert estimate.ue_timing_offsets[0] == pytest.approx(-319.5e-9)
    out = harness._evaluate_mode(mode, estimate, scene, 5.0, 0, period)
    assert out.to_errors[0] == pytest.approx(1e-9, abs=1e-18)
    # without a period the offsets are compared as they are
    raw_error = harness._evaluate_mode(mode, estimate, scene, 5.0, 0).to_errors[0]
    assert raw_error == pytest.approx(639e-9, abs=1e-18)


def test_run_trial_skips_a_receiver_only_when_every_weighting_fails(monkeypatch):
    real = pipeline.localize_single
    failing = {"ls"}

    def flaky(*args, **kwargs):
        if kwargs["ue_id"] == 0 and kwargs["weighting"] in failing:
            raise RuntimeError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "localize_single", flaky)
    cfg = with_modes(mini_config(), "disac", "disac-ls")
    result = run_trial(cfg, 0)
    assert 0 not in result.skipped_receivers
    assert 0 in result.outcomes["disac"].ue_errors
    assert 0 not in (result.outcomes["disac-ls"].ue_errors or {})

    failing.add("wls")
    result = run_trial(cfg, 0)
    assert result.skipped_receivers[0] == "localization: forced failure"


def test_run_trial_without_modes_skips_no_receiver():
    result = run_trial(with_modes(mini_config()), 0)
    assert result.outcomes == {} and result.skipped_receivers == {}
    assert sorted(result.num_paths) == [0, 1]


def test_an_unsampleable_scene_fails_every_mode():
    cfg = mini_config(min_separation_m=1000.0)
    result = run_trial(cfg, 0)
    assert sorted(result.outcomes) == sorted(m.name for m in cfg.modes)
    for outcome in result.outcomes.values():
        assert outcome.failure.startswith("scene: could not place receiver after ")
    assert result.num_paths == {} and result.skipped_receivers == {}


def test_a_mode_whose_receivers_were_all_skipped_fails(monkeypatch):
    monkeypatch.setattr(
        harness, "process_receiver", lambda *args: ({}, "pipeline: forced failure")
    )
    cfg = mini_config()
    result = run_trial(cfg, 0)
    assert result.skipped_receivers == {0: "pipeline: forced failure", 1: "pipeline: forced failure"}
    assert {m: o.failure for m, o in result.outcomes.items()} == {
        m.name: "pipeline: no usable receivers for this mode" for m in cfg.modes
    }


# ---------------------------------------------------------------------------
# Concurrent receivers
# ---------------------------------------------------------------------------


@pytest.fixture
def four_cpus_one_blas_thread(monkeypatch):
    """Room for four receivers at once, whatever machine runs the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("receivers", [2, 3, 4])
def test_concurrent_receivers_give_the_serial_json(monkeypatch, four_cpus_one_blas_thread,
                                                   receivers):
    cfg = with_modes(mini_config(num_receivers=receivers), "disac", "disac-ls", "isac:1")
    assert harness._receiver_workers(receivers) == receivers
    concurrent = [run_trial(cfg, i).canonical_dict() for i in range(2)]
    monkeypatch.setattr(harness, "_receiver_workers", lambda receivers: 1)
    serial = [run_trial(cfg, i).canonical_dict() for i in range(2)]
    assert json.dumps(concurrent, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_a_failed_estimate_skips_only_its_receiver(monkeypatch, four_cpus_one_blas_thread):
    cfg = with_modes(mini_config(), "disac")
    real = harness.estimate_paths

    def flaky(tensor, **kwargs):
        if kwargs["opts"].seed == receiver_seed(cfg.seed, 1):
            raise RuntimeError("forced failure")
        return real(tensor, **kwargs)

    serial = run_trial(cfg, 0)
    monkeypatch.setattr(harness, "estimate_paths", flaky)
    result = run_trial(cfg, 0)
    assert result.skipped_receivers == {1: "estimation: forced failure"}
    assert result.num_paths == {0: serial.num_paths[0]}


def test_a_failed_synthesis_fails_every_mode(monkeypatch, four_cpus_one_blas_thread):
    cfg = mini_config()
    serial = run_trial(cfg, 0)
    real = ScenarioConfig.receiver_tensor

    def flaky(self, scene, rx_id, seed):
        if rx_id == 1:
            raise RuntimeError("forced failure")
        return real(self, scene, rx_id, seed)

    monkeypatch.setattr(ScenarioConfig, "receiver_tensor", flaky)
    result = run_trial(cfg, 0)
    assert {m: o.failure for m, o in result.outcomes.items()} == {
        m.name: "synthesis: forced failure" for m in cfg.modes
    }
    assert result.num_paths == {0: serial.num_paths[0]}
    assert result.skipped_receivers == {}


def test_run_montecarlo_leaves_no_thread_behind(four_cpus_one_blas_thread):
    before = threading.active_count()
    run_montecarlo(mini_config(), trials=3)
    assert threading.active_count() == before


def no_child_process_left():
    try:
        os.waitpid(-1, os.WNOHANG)  # (0, 0) while a child runs, its pid once it ended
    except ChildProcessError:
        return True
    return False


def test_run_montecarlo_leaves_no_child_process_behind(four_cpus_one_blas_thread):
    run_montecarlo(mini_config(), trials=3)
    assert no_child_process_left()


def test_a_trial_without_a_process_to_spare_runs_its_receivers_here(
        monkeypatch, four_cpus_one_blas_thread):
    # the flag outlives the trial; monkeypatch resets it so that later tests still fork
    monkeypatch.setattr(harness, "_no_process_to_spare", False)
    cfg = mini_config(num_receivers=3)
    serial = run_trial(cfg, 0).canonical_dict()

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    descriptors = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert run_trial(cfg, 0).canonical_dict() == serial
    # a failed fork leaks the 4 pipe descriptors multiprocessing opened for
    # it, so only the first trial may try one
    assert len(os.listdir("/proc/self/fd")) - descriptors <= 4
    assert no_child_process_left()


def test_a_daemonic_process_runs_its_receivers_itself(monkeypatch, four_cpus_one_blas_thread):
    # a pool worker is daemonic, and multiprocessing lets no daemonic process have children
    cfg = mini_config()
    serial = run_trial(cfg, 0).canonical_dict()
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert run_trial(cfg, 0).canonical_dict() == serial
    assert no_child_process_left()


class Interrupt(BaseException):
    pass


def test_an_interrupted_trial_leaves_no_child_process_behind(monkeypatch,
                                                             four_cpus_one_blas_thread):
    parent = os.getpid()
    real = harness.estimate_paths

    def interrupted_here(tensor, **kwargs):
        if os.getpid() == parent:
            raise Interrupt
        return real(tensor, **kwargs)

    monkeypatch.setattr(harness, "estimate_paths", interrupted_here)
    with pytest.raises(Interrupt):
        run_trial(with_modes(mini_config(), "disac"), 0)
    assert no_child_process_left()


def test_a_receiver_whose_process_dies_is_estimated_again(monkeypatch,
                                                          four_cpus_one_blas_thread):
    cfg = mini_config(num_receivers=3)
    serial = run_trial(cfg, 0).canonical_dict()
    parent = os.getpid()
    real = harness.estimate_paths

    def dies_in_a_child(tensor, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(tensor, **kwargs)

    monkeypatch.setattr(harness, "estimate_paths", dies_in_a_child)
    assert run_trial(cfg, 0).canonical_dict() == serial


class TwoPartError(RuntimeError):
    """Pickles, but cannot be rebuilt from its pickle (one arg, two wanted)."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


class LockedError(RuntimeError):
    """Cannot be pickled at all: it holds a lock."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")
        self.lock = threading.Lock()


@pytest.mark.parametrize("error", [TwoPartError, LockedError])
def test_an_error_that_cannot_cross_processes_still_skips_its_receiver(
        monkeypatch, four_cpus_one_blas_thread, error):
    cfg = with_modes(mini_config(), "disac")
    real = harness.estimate_paths

    def flaky(tensor, **kwargs):
        if kwargs["opts"].seed == receiver_seed(cfg.seed, 1):
            raise error("forced", "failure")
        return real(tensor, **kwargs)

    monkeypatch.setattr(harness, "estimate_paths", flaky)
    result = run_trial(cfg, 0)
    assert result.skipped_receivers == {1: "estimation: forced failure"}


@pytest.mark.parametrize("env, receivers, workers", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
    ({}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "x"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "x", "MKL_NUM_THREADS": "1"}, 4, 2),
    ({"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
])
def test_receiver_workers_on_two_cpus(monkeypatch, env, receivers, workers):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert harness._receiver_workers(receivers) == workers


def test_receiver_workers_count_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert harness._receiver_workers(4) == 3


# traced peak of one stock receiver's tensor synthesis and estimation, the
# 2 MiB tensor included: 4.26 MiB measured, plus 0.5 MiB. With the noise
# through one einsum and the model order on conjugated copies of the whole
# tensor it was 10.0 MiB
RECEIVER_PEAK_MIB = 4.75


def test_one_receiver_stays_within_its_memory_budget():
    cfg = default_scenario(estimation={"max_sweeps": 5})
    scene = random_scene(cfg.scene, cfg.seed)

    def estimate_one():
        tensor = cfg.receiver_tensor(scene, 0, cfg.seed)
        opts = replace(cfg.als, seed=receiver_seed(cfg.seed, 0))
        estimate_paths(tensor, rank="auto", opts=opts, max_rank=cfg.max_rank)

    estimate_one()  # first calls allocate once for good
    tracemalloc.start()
    try:
        estimate_one()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RECEIVER_PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_run_montecarlo_validates_isac_id():
    # the modes are checked when the config resolves, before any trial runs
    with pytest.raises(ConfigError, match="isac:5"):
        scenario_from_dict({**MINI, "modes": ["isac:5"]})
    # a trials override passes the config's check
    with pytest.raises(ConfigError, match=r"^trials: expected an integer >= 1, got 0$"):
        run_montecarlo(mini_config(), trials=0)


def test_a_mode_is_reported_under_its_canonical_name(tmp_path):
    # one receiver alone must fuse clusters of single points
    raw = {**MINI, "modes": ["disac", "isac:01"], "clustering": {"min_points": 1}}
    mc = run_montecarlo(scenario_from_dict(raw))
    assert mc.modes == ["disac", "isac:1"]
    s = mc.summary()["isac:1"]
    assert s["trials"] == 2 and s["failed_trials"] == 0 and s["targets_total"] == 2
    path = tmp_path / "out.csv"
    write_csv(mc, str(path))
    with open(path, newline="") as fh:
        rows = [tuple(r) for r in csv.reader(fh)][1:]
    isac = [r for r in rows if r[1] == "isac:1"]
    expected = sum(len(oc.ue_errors) + len(oc.target_detected)
                   for oc in (tr.outcomes["isac:1"] for tr in mc.trials))
    assert isac and len(isac) == expected and len(set(rows)) == len(rows)


def test_summary_denominators():
    ok = ModeOutcome(
        mode="disac",
        ue_errors={0: 0.1, 1: 0.2},
        to_errors={0: 1e-9, 1: 2e-9},
        target_detected={0: True, 1: False},
        target_errors={0: 0.3},
    )
    bad = ModeOutcome(mode="disac", failure="fusion: synthetic")
    trials = [
        TrialResult(trial=0, seed=0, outcomes={"disac": ok}, num_paths={}, skipped_receivers={}),
        TrialResult(trial=1, seed=1, outcomes={"disac": bad}, num_paths={}, skipped_receivers={}),
        TrialResult(trial=2, seed=2, outcomes={}, num_paths={}, skipped_receivers={}),
    ]
    mc = MonteCarloResult(config={}, modes=["disac"], trials=trials)
    s = mc.summary()["disac"]
    assert s["trials"] == 3 and s["failed_trials"] == 1
    assert s["ue_error_median_m"] == pytest.approx(0.1)
    assert s["ue_error_p80_m"] == pytest.approx(0.16)  # 0.1 + (0.8 - 1/2) * 2 * (0.2 - 0.1)
    assert s["target_error_p80_m"] == pytest.approx(0.3)
    assert s["targets_detected"] == 1 and s["targets_total"] == 2
    assert s["detection_rate"] == pytest.approx(0.5)


def test_summary_empty_mode():
    mc = MonteCarloResult(config={}, modes=["disac"], trials=[])
    s = mc.summary()["disac"]
    assert s["ue_error_median_m"] is None
    assert s["ue_error_p80_m"] is None and s["target_error_p80_m"] is None
    assert s["detection_rate"] is None


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _tiny_mc():
    oc = ModeOutcome(
        mode="disac",
        ue_errors={0: 0.125, 1: 0.25},
        to_errors={0: 1.5e-9, 1: 2.5e-9},
        target_detected={0: True, 1: False},
        target_errors={0: 0.375},
        num_clusters=1,
    )
    tr = TrialResult(
        trial=0, seed=9, outcomes={"disac": oc}, num_paths={0: 4, 1: 5},
        skipped_receivers={}, runtimes={"scene": 0.01},
    )
    return MonteCarloResult(config={"schema": SCHEMA}, modes=["disac"], trials=[tr])


def test_write_csv_schema(tmp_path):
    mc = _tiny_mc()
    path = tmp_path / "out.csv"
    write_csv(mc, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    body = rows[1:]
    assert len(body) == 4  # 2 ue rows + 2 target rows
    ue0 = body[0]
    assert ue0[:4] == ["0", "disac", "ue", "0"]
    assert float(ue0[4]) == 0.125 and float(ue0[5]) == 1.5e-9 and ue0[6] == "1"
    tgt_rows = {r[3]: r for r in body if r[2] == "target"}
    assert float(tgt_rows["0"][4]) == 0.375 and tgt_rows["0"][6] == "1"
    assert tgt_rows["1"][4] == "" and tgt_rows["1"][5] == "" and tgt_rows["1"][6] == "0"


def test_to_json_deterministic_and_writers(tmp_path):
    mc = _tiny_mc()
    assert mc.to_json() == mc.to_json()
    parsed = json.loads(mc.to_json())
    assert parsed["modes"] == ["disac"]
    assert "runtimes" not in json.dumps(parsed)
    out = tmp_path / "results.json"
    write_results(mc, str(out))
    text = out.read_text()
    assert text.endswith("\n") and json.loads(text) == parsed


def test_write_scene_holds_the_dataclass_fields(tmp_path):
    scene = _match_scene()
    scene.clutter.append(ClutterPoint(position=[12.0, -20.0, 3.0], reflectivity=0.5))
    path = tmp_path / "scene.json"
    write_scene(scene, str(path))
    doc = json.loads(path.read_text())

    def names(cls):
        return {f.name for f in fields(cls)}

    assert doc.keys() == names(Scene)
    assert doc["tx"].keys() == names(TransmitterNode)
    assert doc["tx"]["array"].keys() == names(UpaGeometry)
    assert doc["receivers"][0].keys() == names(ReceiverNode)
    assert doc["receivers"][0]["array"].keys() == names(UpaGeometry)
    assert doc["targets"][0].keys() == names(ExtendedTarget)
    assert doc["clutter"][0].keys() == names(ClutterPoint)
    assert doc["tx"]["position"] == [0.0, 0.0, 14.0]
    assert doc["tx"]["array"] == {"n_x": 4, "n_y": 4, "spacing": 0.01, "wavelength": 0.02}
    assert doc["receivers"][0]["orientation"] == BORESIGHT_ALONG_X.tolist()
    assert [t["scatter_points"] for t in doc["targets"]] == [[[20.0, 0.0, 1.0]],
                                                             [[30.0, 0.0, 1.0]]]
    assert doc["clutter"] == [{"position": [12.0, -20.0, 3.0], "reflectivity": 0.5}]
    assert doc["speed_of_light"] == scene.speed_of_light and doc["phase_seed"] == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_config_resolves():
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        scenario_from_dict(yaml.safe_load(block))


def test_every_readme_command_parses():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("disacsim ")]
    assert commands
    for command in commands:
        cli.build_parser().parse_args(shlex.split(command)[1:])  # argparse exits on a bad flag
