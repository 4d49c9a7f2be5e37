"""Experiment harness: configs, trials, Monte Carlo sweeps, metrics.

A YAML config describes one scenario. Its mandatory ``schema`` field pins
the config format version so stale files fail loudly instead of being
misread. Every trial draws a fresh scene (seed = base seed + trial
index), synthesizes one beamspace tensor per receiver, runs the shared
estimation chain once, and then evaluates each requested mode on top of
the shared per-receiver results:

    disac       all receivers pooled, gain-weighted fusion
    disac-ls    same, unit weights in every least-squares solve
    isac:<id>   receiver <id> on its own (own clustering, own fusion)

Failures are caught per stage and recorded with the stage name, so one
degenerate draw cannot sink a sweep. Trial results serialize to a
canonical dict (sorted keys, runtimes excluded) that is byte-identical
across runs of the same config and seed.
"""

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from .estimator import AlsOptions, estimate_paths
from .fusion import SceneEstimate, run_fusion
from .geometry import FoiBounds
from .pipeline import (
    SingleReceiverResult,
    build_associations,
    clutter_filter,
    identify_los,
    localize_single,
    unwrap_delays,
)
from .scene import Scene, SceneConfig, UpaGeometry, random_scene, scene_to_dict
from .waveform import CodebookSet, OfdmConfig, dft_codebook, synthesize_tensor

logger = logging.getLogger(__name__)

SCHEMA_ID = "disacsim-config/1"

# distinct deterministic streams per (trial, receiver); 1009 is just a
# prime comfortably above any realistic receiver count
_SEED_STRIDE = 1009


class ConfigError(ValueError):
    """Malformed or unsupported configuration."""


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    kind: str  # "disac" or "isac"
    ue_id: int | None
    weighting: str  # "wls" or "ls"

    @property
    def name(self) -> str:
        base = self.kind if self.kind == "disac" else f"isac:{self.ue_id}"
        return base if self.weighting == "wls" else base + "-ls"


def parse_mode(text: str) -> Mode:
    base, weighting = text, "wls"
    if base.endswith("-ls"):
        base, weighting = base[:-3], "ls"
    if base == "disac":
        return Mode(kind="disac", ue_id=None, weighting=weighting)
    if base.startswith("isac:"):
        try:
            ue_id = int(base[len("isac:"):])
        except ValueError:
            raise ConfigError(f"bad mode {text!r}: expected isac:<receiver id>") from None
        return Mode(kind="isac", ue_id=ue_id, weighting=weighting)
    raise ConfigError(f"unknown mode {text!r} (expected disac, disac-ls or isac:<id>[-ls])")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _require_mapping(raw, where: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(raw).__name__}")
    return raw


def _check_keys(raw: dict, allowed: set[str], where: str):
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) under {where}: {', '.join(unknown)}")


def _beam_spec(raw, default_num: int, default_first: int | None, where: str):
    """A beam axis is either a bare count or {num, first}."""
    if raw is None:
        return default_num, default_first
    if isinstance(raw, int):
        return raw, default_first
    raw = _require_mapping(raw, where)
    _check_keys(raw, {"num", "first"}, where)
    return int(raw.get("num", default_num)), (
        None if raw.get("first") is None else int(raw["first"])
    )


@dataclass
class ScenarioConfig:
    """Fully resolved scenario: everything a trial needs."""

    ofdm: OfdmConfig
    scene: SceneConfig
    bs_geom: UpaGeometry
    ue_geom: UpaGeometry
    beams: dict[str, tuple[int, int | None]]  # axis -> (count, first beam)
    effective_snr_db: float | None = 20.0
    max_rank: int = 12
    restarts: int = 3
    max_sweeps: int = 300
    rel_tol: float = 1.0e-8
    eps_m: float = 2.0
    min_points: int = 2
    detection_radius_m: float = 5.0
    seed: int = 0
    trials: int = 50
    modes: tuple[str, ...] = ("disac",)
    raw: dict = field(default_factory=dict)

    def codebooks(self) -> CodebookSet:
        def book(axis, size):
            num, first = self.beams[axis]
            return dft_codebook(size, num, axis, first_beam=first)

        return CodebookSet(
            rx_el=book("rx_el", self.ue_geom.n_y),
            rx_az=book("rx_az", self.ue_geom.n_x),
            tx_el=book("tx_el", self.bs_geom.n_y),
            tx_az=book("tx_az", self.bs_geom.n_x),
            rx_geom=self.ue_geom,
            tx_geom=self.bs_geom,
        )

    def als_options(self, seed: int) -> AlsOptions:
        return AlsOptions(
            max_sweeps=self.max_sweeps,
            rel_tol=self.rel_tol,
            restarts=self.restarts,
            seed=seed,
        )


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a config mapping and resolve it into a ScenarioConfig."""
    raw = _require_mapping(raw, "config")
    schema = raw.get("schema")
    if schema is None:
        raise ConfigError(f"missing mandatory 'schema' field (expected {SCHEMA_ID!r})")
    if schema != SCHEMA_ID:
        raise ConfigError(f"unsupported schema {schema!r} (this build reads {SCHEMA_ID!r})")
    _check_keys(
        raw,
        {"schema", "seed", "trials", "modes", "ofdm", "arrays", "beams",
         "scene", "estimation", "clustering", "metrics"},
        "config",
    )

    ofdm_raw = _require_mapping(raw.get("ofdm"), "ofdm")
    _check_keys(
        ofdm_raw,
        {"carrier_freq_hz", "bandwidth_hz", "num_subcarriers",
         "subcarrier_spacing_hz", "tx_power_dbm", "noise_variance_dbm"},
        "ofdm",
    )
    try:
        ofdm = OfdmConfig(
            carrier_freq=float(ofdm_raw.get("carrier_freq_hz", 15.0e9)),
            bandwidth=float(ofdm_raw.get("bandwidth_hz", 100.0e6)),
            num_subcarriers=int(ofdm_raw.get("num_subcarriers", 64)),
            subcarrier_spacing=(
                None
                if ofdm_raw.get("subcarrier_spacing_hz") is None
                else float(ofdm_raw["subcarrier_spacing_hz"])
            ),
            tx_power_dbm=float(ofdm_raw.get("tx_power_dbm", 40.0)),
            noise_variance_dbm=float(ofdm_raw.get("noise_variance_dbm", -93.85)),
        )
    except ValueError as exc:
        raise ConfigError(f"ofdm: {exc}") from exc

    arrays = _require_mapping(raw.get("arrays"), "arrays")
    _check_keys(arrays, {"bs", "ue", "spacing_wavelengths"}, "arrays")
    spacing_wl = float(arrays.get("spacing_wavelengths", 0.5))

    def geom(key, default_nx, default_ny):
        sub = _require_mapping(arrays.get(key), f"arrays.{key}")
        _check_keys(sub, {"n_x", "n_y"}, f"arrays.{key}")
        try:
            return UpaGeometry(
                n_x=int(sub.get("n_x", default_nx)),
                n_y=int(sub.get("n_y", default_ny)),
                spacing=spacing_wl * ofdm.wavelength,
                wavelength=ofdm.wavelength,
            )
        except ValueError as exc:
            raise ConfigError(f"arrays.{key}: {exc}") from exc

    bs_geom = geom("bs", 16, 16)
    ue_geom = geom("ue", 8, 8)

    beams_raw = _require_mapping(raw.get("beams"), "beams")
    _check_keys(beams_raw, {"bs_az", "bs_el", "ue_az", "ue_el"}, "beams")
    beams = {
        "tx_az": _beam_spec(beams_raw.get("bs_az"), 8, None, "beams.bs_az"),
        "tx_el": _beam_spec(beams_raw.get("bs_el"), 4, 11, "beams.bs_el"),
        "rx_az": _beam_spec(beams_raw.get("ue_az"), ue_geom.n_x, None, "beams.ue_az"),
        "rx_el": _beam_spec(beams_raw.get("ue_el"), ue_geom.n_y, None, "beams.ue_el"),
    }

    scene_raw = _require_mapping(raw.get("scene"), "scene")
    _check_keys(
        scene_raw,
        {"tx_position", "num_receivers", "num_targets", "scatter_points_per_target",
         "num_clutter", "ue_box", "target_box", "clutter_box", "target_extent_m",
         "min_separation_m", "target_min_separation_m", "clutter_in_foi_fraction",
         "timing_offset_range_ns", "foi_az_deg", "foi_el_deg", "foi_margin_deg",
         "target_reflectivity_range", "clutter_reflectivity_range", "max_attempts"},
        "scene",
    )
    scene_kwargs = dict(
        tx_position=np.asarray(scene_raw.get("tx_position", [0.0, 0.0, 14.0]), dtype=float),
        tx_array=bs_geom,
        rx_array=ue_geom,
    )
    for src, dst, conv in [
        ("num_receivers", "num_receivers", int),
        ("num_targets", "num_targets", int),
        ("scatter_points_per_target", "scatter_points_per_target", int),
        ("num_clutter", "num_clutter", int),
        ("target_extent_m", "target_extent_m", float),
        ("min_separation_m", "min_separation_m", float),
        ("target_min_separation_m", "target_min_separation_m", float),
        ("clutter_in_foi_fraction", "clutter_in_foi_fraction", float),
        ("foi_margin_deg", "foi_margin", lambda v: float(np.deg2rad(v))),
        ("max_attempts", "max_attempts", int),
    ]:
        if scene_raw.get(src) is not None:
            scene_kwargs[dst] = conv(scene_raw[src])
    for box_key in ("ue_box", "target_box", "clutter_box"):
        if scene_raw.get(box_key) is not None:
            scene_kwargs[box_key] = np.asarray(scene_raw[box_key], dtype=float)
    if scene_raw.get("timing_offset_range_ns") is not None:
        scene_kwargs["to_range_s"] = float(scene_raw["timing_offset_range_ns"]) * 1.0e-9
    if scene_raw.get("foi_az_deg") is not None or scene_raw.get("foi_el_deg") is not None:
        scene_kwargs["foi"] = FoiBounds(
            azimuth=float(np.deg2rad(scene_raw.get("foi_az_deg", 60.0))),
            elevation=float(np.deg2rad(scene_raw.get("foi_el_deg", 30.0))),
        )
    for rng_key in ("target_reflectivity_range", "clutter_reflectivity_range"):
        if scene_raw.get(rng_key) is not None:
            lo, hi = scene_raw[rng_key]
            scene_kwargs[rng_key] = (float(lo), float(hi))
    try:
        scene_cfg = SceneConfig(**scene_kwargs)
    except ValueError as exc:
        raise ConfigError(f"scene: {exc}") from exc

    est_raw = _require_mapping(raw.get("estimation"), "estimation")
    _check_keys(
        est_raw,
        {"effective_snr_db", "max_rank", "restarts", "max_sweeps", "rel_tol"},
        "estimation",
    )
    clus_raw = _require_mapping(raw.get("clustering"), "clustering")
    _check_keys(clus_raw, {"eps_m", "min_points"}, "clustering")
    met_raw = _require_mapping(raw.get("metrics"), "metrics")
    _check_keys(met_raw, {"detection_radius_m"}, "metrics")

    seed = raw.get("seed", 0)
    trials = raw.get("trials", 50)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError("trials must be a positive integer")
    modes_raw = raw.get("modes", ["disac"])
    if not isinstance(modes_raw, list) or not all(isinstance(m, str) for m in modes_raw):
        raise ConfigError("modes must be a list of strings")
    for m in modes_raw:
        parse_mode(m)  # validate early

    snr = est_raw.get("effective_snr_db", 20.0)
    return ScenarioConfig(
        ofdm=ofdm,
        scene=scene_cfg,
        bs_geom=bs_geom,
        ue_geom=ue_geom,
        beams=beams,
        effective_snr_db=None if snr is None else float(snr),
        max_rank=int(est_raw.get("max_rank", 12)),
        restarts=int(est_raw.get("restarts", 3)),
        max_sweeps=int(est_raw.get("max_sweeps", 300)),
        rel_tol=float(est_raw.get("rel_tol", 1.0e-8)),
        eps_m=float(clus_raw.get("eps_m", 2.0)),
        min_points=int(clus_raw.get("min_points", 2)),
        detection_radius_m=float(met_raw.get("detection_radius_m", 5.0)),
        seed=seed,
        trials=trials,
        modes=tuple(modes_raw),
        raw=raw,
    )


def default_scenario(**overrides) -> ScenarioConfig:
    """The stock two-receiver desk scenario; overrides patch the raw dict."""
    raw: dict = {"schema": SCHEMA_ID}
    raw.update(overrides)
    return scenario_from_dict(raw)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# Order-statistic summaries
# ---------------------------------------------------------------------------


class EmpiricalCdf:
    """Right-continuous empirical distribution of a finite sample.

    quantile() interpolates linearly between the nodes (i/n, x_(i)),
    so quantile(cdf(x)) == x for every sample value x; below 1/n it
    clamps to the smallest sample.
    """

    def __init__(self, values):
        vals = np.sort(np.asarray(list(values), dtype=float))
        if vals.size == 0:
            raise ValueError("empty sample")
        if np.any(np.isnan(vals)):
            raise ValueError("sample contains NaN")
        self.values = vals

    def __call__(self, x: float) -> float:
        return float(np.searchsorted(self.values, x, side="right")) / self.values.size

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        n = self.values.size
        pos = p * n
        if pos <= 1.0:
            return float(self.values[0])
        lo = int(math.floor(pos))
        if lo >= n:
            return float(self.values[-1])
        frac = pos - lo
        return float((1.0 - frac) * self.values[lo - 1] + frac * self.values[lo])


def percentile(values, p: float) -> float:
    return EmpiricalCdf(values).quantile(p)


def median(values) -> float:
    return percentile(values, 0.5)


# ---------------------------------------------------------------------------
# Per-trial execution
# ---------------------------------------------------------------------------


@dataclass
class ModeOutcome:
    """Metrics of one mode in one trial."""

    mode: str
    failure: str | None = None
    ue_errors: dict[int, float] = field(default_factory=dict)
    to_errors: dict[int, float] = field(default_factory=dict)
    target_detected: dict[int, bool] = field(default_factory=dict)
    target_errors: dict[int, float] = field(default_factory=dict)
    num_clusters: int = 0
    num_false_alarms: int = 0
    residual: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "failure": self.failure,
            "ue_errors": {str(k): v for k, v in sorted(self.ue_errors.items())},
            "to_errors": {str(k): v for k, v in sorted(self.to_errors.items())},
            "target_detected": {
                str(k): bool(v) for k, v in sorted(self.target_detected.items())
            },
            "target_errors": {str(k): v for k, v in sorted(self.target_errors.items())},
            "num_clusters": self.num_clusters,
            "num_false_alarms": self.num_false_alarms,
            "residual": self.residual,
        }


@dataclass
class TrialResult:
    trial: int
    seed: int
    outcomes: dict[str, ModeOutcome]
    num_paths: dict[int, int]  # receiver id -> estimated path count
    skipped_receivers: dict[int, str]  # receiver id -> stage: reason
    runtimes: dict[str, float] = field(default_factory=dict)

    def canonical_dict(self) -> dict:
        """Deterministic serialization; runtimes deliberately excluded."""
        return {
            "trial": self.trial,
            "seed": self.seed,
            "outcomes": {m: o.to_dict() for m, o in sorted(self.outcomes.items())},
            "num_paths": {str(k): v for k, v in sorted(self.num_paths.items())},
            "skipped_receivers": {
                str(k): v for k, v in sorted(self.skipped_receivers.items())
            },
        }


def wrap_timing_offset(value: float, period: float) -> float:
    """Reduce a clock offset into (-period/2, period/2].

    Delays are only measured modulo the delay period, so a receiver's
    clock offset is identifiable modulo the same period; the canonical
    representative is the one nearest zero.
    """
    return -((-value + period / 2.0) % period - period / 2.0)


def match_targets(
    estimate: SceneEstimate, scene: Scene, detection_radius: float
) -> tuple[dict[int, bool], dict[int, float], int]:
    """Greedy one-to-one matching of estimated points to true targets.

    The distance between an estimated point and a target is the distance
    to the target's nearest scatter point. Pairs are consumed in
    ascending distance order; a target counts as detected when its
    matched point lies within the detection radius. Returns (detected,
    errors over detected targets, false alarm count).
    """
    detected = {t.target_id: False for t in scene.targets}
    errors: dict[int, float] = {}
    pairs = []
    for label, point in estimate.target_points.items():
        for t in scene.targets:
            d = float(np.min(np.linalg.norm(t.scatter_points - point, axis=1)))
            pairs.append((d, label, t.target_id))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    used_labels: set[int] = set()
    used_targets: set[int] = set()
    for d, label, tid in pairs:
        if label in used_labels or tid in used_targets:
            continue
        used_labels.add(label)
        used_targets.add(tid)
        if d <= detection_radius:
            detected[tid] = True
            errors[tid] = d
    # unmatched points, and matches beyond the radius, are false alarms
    false_alarms = len(estimate.target_points) - len(errors)
    return detected, errors, false_alarms


def _evaluate_mode(
    mode: Mode,
    estimate: SceneEstimate,
    scene: Scene,
    detection_radius: float,
    num_clusters: int,
) -> ModeOutcome:
    out = ModeOutcome(mode=mode.name, num_clusters=num_clusters, residual=estimate.residual)
    for n, p_hat in estimate.ue_positions.items():
        rx = scene.receiver(n)
        out.ue_errors[n] = float(np.linalg.norm(p_hat - rx.position))
    for n, dt_hat in estimate.ue_timing_offsets.items():
        rx = scene.receiver(n)
        out.to_errors[n] = abs(dt_hat - rx.timing_offset)
    detected, errors, false_alarms = match_targets(estimate, scene, detection_radius)
    out.target_detected = detected
    out.target_errors = errors
    out.num_false_alarms = false_alarms
    return out


def run_trial(config: ScenarioConfig, trial_index: int, modes: list[Mode]) -> TrialResult:
    """One end-to-end trial shared across the requested modes."""
    seed = config.seed + trial_index
    result = TrialResult(
        trial=trial_index, seed=seed, outcomes={}, num_paths={}, skipped_receivers={}
    )

    def fail_all(stage: str, exc: Exception):
        for mode in modes:
            result.outcomes[mode.name] = ModeOutcome(
                mode=mode.name, failure=f"{stage}: {exc}"
            )
        logger.warning("trial %d failed at %s: %s", trial_index, stage, exc)
        return result

    t0 = time.perf_counter()
    try:
        scene = random_scene(config.scene, seed)
    except Exception as exc:
        return fail_all("scene", exc)
    result.runtimes["scene"] = time.perf_counter() - t0

    books = config.codebooks()
    period = config.ofdm.delay_period
    # delay resolution of the aperture: one over the swept bandwidth
    delay_resolution = 1.0 / (
        config.ofdm.subcarrier_spacing * config.ofdm.num_subcarriers
    )

    paths_by_rx: dict[int, list] = {}
    t0 = time.perf_counter()
    for rx in scene.receivers:
        rx_seed = seed * _SEED_STRIDE + rx.node_id
        try:
            tensor = synthesize_tensor(
                scene,
                rx.node_id,
                books,
                config.ofdm,
                noise_seed=rx_seed,
                effective_snr_db=config.effective_snr_db,
            )
        except Exception as exc:
            return fail_all("synthesis", exc)
        try:
            est = estimate_paths(
                tensor,
                rank="auto",
                opts=config.als_options(rx_seed),
                max_rank=config.max_rank,
            )
        except Exception as exc:
            result.skipped_receivers[rx.node_id] = f"estimation: {exc}"
            continue
        result.num_paths[rx.node_id] = len(est)
        paths_by_rx[rx.node_id] = est
    result.runtimes["estimation"] = time.perf_counter() - t0

    # per-receiver pipeline, per weighting actually needed
    weightings = sorted({m.weighting for m in modes})
    single: dict[str, dict[int, SingleReceiverResult]] = {w: {} for w in weightings}
    t0 = time.perf_counter()
    for rx_id, est in paths_by_rx.items():
        rx = scene.receiver(rx_id)
        try:
            unwrapped = unwrap_delays(est, period)
            los_idx, ambiguous = identify_los(unwrapped, delay_resolution)
            if ambiguous:
                logger.debug(
                    "trial %d rx %d: ambiguous direct-path pick", trial_index, rx_id
                )
            kept = clutter_filter(unwrapped, config.scene.foi, los_index=los_idx)
            filtered = [unwrapped[i] for i in kept]
            new_los = kept.index(los_idx)
        except Exception as exc:
            result.skipped_receivers[rx_id] = f"pipeline: {exc}"
            continue
        failures = []
        for w in weightings:
            try:
                single[w][rx_id] = localize_single(
                    filtered,
                    new_los,
                    ue_id=rx_id,
                    rx_orientation=rx.orientation,
                    p_bs=scene.tx.position,
                    speed_of_light=scene.speed_of_light,
                    weighting=w,
                )
            except Exception as exc:
                failures.append(exc)
        # a receiver is skipped only when no requested weighting localized it
        if len(failures) == len(weightings):
            result.skipped_receivers[rx_id] = f"localization: {failures[-1]}"
    result.runtimes["pipeline"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for mode in modes:
        if mode.kind == "isac":
            wanted = [mode.ue_id]
        else:
            wanted = sorted(single[mode.weighting].keys())
        results = [
            single[mode.weighting][n] for n in wanted if n in single[mode.weighting]
        ]
        if not results:
            result.outcomes[mode.name] = ModeOutcome(
                mode=mode.name,
                failure="pipeline: no usable receivers for this mode",
            )
            continue
        try:
            clusters, _, _ = build_associations(
                results, eps=config.eps_m, min_points=config.min_points
            )
            los = {r.ue_id: r.los for r in results}
            estimate = run_fusion(
                clusters,
                los,
                scene.tx.position,
                scene.speed_of_light,
                weighting=mode.weighting,
            )
        except Exception as exc:
            result.outcomes[mode.name] = ModeOutcome(
                mode=mode.name, failure=f"fusion: {exc}"
            )
            continue
        # clock offsets are identifiable modulo the delay period
        estimate.ue_timing_offsets = {
            n: wrap_timing_offset(v, period)
            for n, v in estimate.ue_timing_offsets.items()
        }
        result.outcomes[mode.name] = _evaluate_mode(
            mode,
            estimate,
            scene,
            config.detection_radius_m,
            num_clusters=len(clusters),
        )
    result.runtimes["fusion"] = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# Monte Carlo sweeps
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloResult:
    config: dict
    modes: list[str]
    trials: list[TrialResult]

    def summary(self) -> dict:
        out = {}
        for mode in self.modes:
            ue_errs, to_errs, tgt_errs = [], [], []
            detected = total_targets = failed = 0
            for tr in self.trials:
                oc = tr.outcomes.get(mode)
                if oc is None:
                    continue
                if oc.failure is not None:
                    failed += 1
                    continue
                ue_errs.extend(oc.ue_errors.values())
                to_errs.extend(oc.to_errors.values())
                tgt_errs.extend(oc.target_errors.values())
                detected += sum(oc.target_detected.values())
                total_targets += len(oc.target_detected)
            out[mode] = {
                "trials": len(self.trials),
                "failed_trials": failed,
                "ue_error_median_m": median(ue_errs) if ue_errs else None,
                "to_error_median_s": median(to_errs) if to_errs else None,
                "target_error_median_m": median(tgt_errs) if tgt_errs else None,
                "targets_detected": detected,
                "targets_total": total_targets,
                "detection_rate": (detected / total_targets) if total_targets else None,
            }
        return out

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "modes": list(self.modes),
            "summary": self.summary(),
            "trials": [t.canonical_dict() for t in self.trials],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def run_montecarlo(
    config: ScenarioConfig,
    modes: list[str] | None = None,
    trials: int | None = None,
    progress: bool = False,
) -> MonteCarloResult:
    mode_names = list(modes if modes is not None else config.modes)
    parsed = [parse_mode(m) for m in mode_names]
    for m in parsed:
        if m.kind == "isac" and not 0 <= m.ue_id < config.scene.num_receivers:
            raise ConfigError(
                f"mode {m.name!r} names receiver {m.ue_id}, but the scenario has "
                f"{config.scene.num_receivers} receivers (ids 0..{config.scene.num_receivers - 1})"
            )
    n_trials = trials if trials is not None else config.trials
    results = []
    for i in range(n_trials):
        results.append(run_trial(config, i, parsed))
        if progress:
            logger.info("trial %d/%d done", i + 1, n_trials)
    return MonteCarloResult(config=config.raw, modes=mode_names, trials=results)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("trial", "mode", "entity_kind", "entity_id", "error_m", "to_error_s", "detected")


def write_csv(mc: MonteCarloResult, path: str):
    """One row per (trial, mode, entity); empty error cells mean not estimated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for tr in mc.trials:
            for mode in mc.modes:
                oc = tr.outcomes.get(mode)
                if oc is None:
                    continue
                ue_ids = sorted(oc.ue_errors)
                tgt_ids = sorted(oc.target_detected)
                for n in ue_ids:
                    w.writerow(
                        [
                            tr.trial,
                            mode,
                            "ue",
                            n,
                            repr(oc.ue_errors[n]),
                            repr(oc.to_errors[n]) if n in oc.to_errors else "",
                            1,
                        ]
                    )
                for t in tgt_ids:
                    det = oc.target_detected[t]
                    w.writerow(
                        [
                            tr.trial,
                            mode,
                            "target",
                            t,
                            repr(oc.target_errors[t]) if det else "",
                            "",
                            1 if det else 0,
                        ]
                    )


def write_results(mc: MonteCarloResult, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mc.to_json())
        fh.write("\n")


def write_scene(scene: Scene, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, sort_keys=True, indent=2)
        fh.write("\n")
