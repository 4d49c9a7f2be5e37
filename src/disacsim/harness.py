"""Experiment harness: configs, trials, Monte Carlo sweeps, metrics.

A YAML config describes one scenario. Its mandatory ``schema`` field pins
the config format version so stale files fail loudly instead of being
misread. Every trial draws a fresh scene (seed = base seed + trial
index), runs each receiver's chain once (beamspace tensor synthesis,
estimation and the per-receiver pipeline; the receivers side by side,
in processes started through multiprocessing's fork context that hand
back plain data only, when BLAS leaves cores free; see run_trial), and
then evaluates each mode of ScenarioConfig.modes, parsed once from the
config (a mode listed twice is refused), on the shared per-receiver
results; each is reported under its canonical Mode.name:

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
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import yaml

from .estimator import DEFAULT_MAX_RANK, AlsOptions, estimate_paths
from .fusion import SceneEstimate, run_fusion
from .geometry import FoiBounds, as_vec3
from .pipeline import (
    DEFAULT_EPS_M,
    DEFAULT_MIN_POINTS,
    SingleReceiverResult,
    build_associations,
    process_receiver,
)
from .scene import (
    DEFAULT_FOI,
    Scene,
    SceneConfig,
    UpaGeometry,
    check_box,
    random_scene,
)
from .waveform import (
    CodebookSet,
    OfdmConfig,
    axis_elements,
    dft_codebook,
    synthesize_tensor,
)

logger = logging.getLogger(__name__)

SCHEMA_ID = "disacsim-config/1"

# environment variables that set the BLAS thread count; the first positive one wins
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set once a child process could not start: every failed fork leaks the two
# pipes multiprocessing opened for it (4 descriptors), so the trials after it
# run their receivers in this process instead of leaking 4 more each
_no_process_to_spare = False


def receiver_seed(trial_seed: int, rx_id: int) -> int:
    """Seed of one receiver's noise and ALS restarts within a trial."""
    # distinct per (trial, receiver): 1009 is a prime above any realistic receiver count
    return trial_seed * 1009 + rx_id


class ConfigError(ValueError):
    """Malformed or unsupported configuration."""


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    """Receiver ``ue_id`` on its own (kind "isac") or, with ue_id None, every
    usable receiver pooled (kind "disac"); weighting is "wls" or "ls"."""

    ue_id: int | None
    weighting: str

    @property
    def kind(self) -> str:
        return "disac" if self.ue_id is None else "isac"

    @property
    def name(self) -> str:
        base = "disac" if self.ue_id is None else f"isac:{self.ue_id}"
        return base if self.weighting == "wls" else base + "-ls"


def parse_mode(text: str) -> Mode:
    base, weighting = text, "wls"
    if base.endswith("-ls"):
        base, weighting = base[:-3], "ls"
    if base == "disac":
        return Mode(ue_id=None, weighting=weighting)
    if base.startswith("isac:"):
        try:
            ue_id = int(base[len("isac:"):])
        except ValueError:
            raise ConfigError(f"bad mode {text!r}: expected isac:<receiver id>") from None
        return Mode(ue_id=ue_id, weighting=weighting)
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


def _integer(minimum: int | None = None):
    """Converter for an integer setting of at least ``minimum`` (if given)."""
    bound = "" if minimum is None else f" >= {minimum}"

    def convert(value) -> int:
        # bool is a subclass of int, so YAML's true/false would pass isinstance
        if type(value) is not int or (minimum is not None and value < minimum):
            raise ValueError(f"expected an integer{bound}, got {value!r}")
        return value

    return convert


def _modes(value) -> tuple[Mode, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(m, str) for m in value):
        raise ValueError("must be a list of strings")
    modes = tuple(map(parse_mode, value))
    for i, mode in enumerate(modes):
        if mode in modes[:i]:  # isac:01 is isac:1
            raise ValueError(f"mode {mode.name!r} is listed twice")
    return modes


def _number(value) -> float:
    """A finite number setting; numeric strings pass, as YAML reads 100e6 as one."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):  # YAML's .nan and .inf would only fail a trial later
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _positive(value) -> float:
    if not float(value) > 0:  # NaN fails here, +inf in _number
        raise ValueError(f"expected a number > 0, got {value!r}")
    return _number(value)


def _snr_db(value) -> float | None:
    return None if value is None else _number(value)


def _radians(degrees) -> float:
    return float(np.deg2rad(_number(degrees)))


def _float_pair(value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:  # a string is a sequence too
        raise ValueError(f"expected a list of two numbers, got {value!r}")
    return _number(value[0]), _number(value[1])


# One table per section: YAML key -> converter, or (argument name, converter)
# when the argument is named differently. A table as converter is a
# subsection; with argument name None its arguments join the parent's. A
# pair (converter, table) takes a bare value or a subsection.
_BEAM = (_integer(1), {"num": ("num_beams", _integer(1)), "first": ("first_beam", _integer())})
_BEAMS_KEYS = {"bs_az": ("tx_az", _BEAM), "bs_el": ("tx_el", _BEAM),
               "ue_az": ("rx_az", _BEAM), "ue_el": ("rx_el", _BEAM)}
_ARRAY_KEYS = {"n_x": _integer(1), "n_y": _integer(1)}
_ALS_KEYS = {"restarts": _integer(1), "max_sweeps": _integer(1)}
_CONFIG_KEYS = {
    "seed": _integer(0),
    "trials": _integer(1),
    "modes": _modes,
    "ofdm": {
        "carrier_freq_hz": ("carrier_freq", _number),
        "bandwidth_hz": ("bandwidth", _number),
        "num_subcarriers": _integer(1),
        "subcarrier_spacing_hz": ("subcarrier_spacing", _number),
        "tx_power_dbm": _number,
        "noise_variance_dbm": _number,
    },
    "arrays": {
        "bs": ("bs_geom", _ARRAY_KEYS),
        "ue": ("ue_geom", _ARRAY_KEYS),
        "spacing_wavelengths": ("spacing", _number),
    },
    "beams": _BEAMS_KEYS,
    "scene": {
        "tx_position": as_vec3,
        "num_receivers": _integer(1),
        "num_targets": _integer(0),
        "scatter_points_per_target": _integer(1),
        "num_clutter": _integer(0),
        "ue_box": check_box,
        "target_box": check_box,
        "clutter_box": check_box,
        "target_extent_m": _number,
        "min_separation_m": _number,
        "target_min_separation_m": _number,
        "clutter_in_foi_fraction": _number,
        "timing_offset_range_ns": ("to_range_s", lambda ns: _number(ns) * 1.0e-9),
        "foi_az_deg": ("foi_az", _radians),
        "foi_el_deg": ("foi_el", _radians),
        "foi_margin_deg": ("foi_margin", _radians),
        "target_reflectivity_range": _float_pair,
        "clutter_reflectivity_range": _float_pair,
        "max_attempts": _integer(1),
    },
    "estimation": (None, {"effective_snr_db": _snr_db, "max_rank": _integer(1), **_ALS_KEYS}),
    "clustering": (None, {"eps_m": _positive, "min_points": _integer(1)}),
    "metrics": (None, {"detection_radius_m": _positive}),
}


# the stock arrays, which no dataclass owns: 16x16 at the BS and 8x8 at
# each UE, at half-wavelength spacing
_STOCK_ARRAYS = {"bs_geom": dict(n_x=16, n_y=16), "ue_geom": dict(n_x=8, n_y=8)}
_STOCK_SPACING_WAVELENGTHS = 0.5


def _resolve(raw, table: dict, where: str = "") -> dict:
    """Convert the keys a config mapping sets into constructor arguments.

    Omitted keys are left out, and so are null ones (except
    effective_snr_db, where null switches SNR calibration off), so every
    default stays in the dataclass that owns it.
    """
    raw = _require_mapping(raw, where or "config")
    unknown = sorted(str(key) for key in raw if key not in table)
    if unknown:
        raise ConfigError(f"unknown key(s) under {where or 'config'}: {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        entry = table[key]
        name, conv = entry if isinstance(entry, tuple) and not callable(entry[0]) else (key, entry)
        path = f"{where}.{key}" if where else key
        if isinstance(conv, tuple):
            conv = conv[1] if isinstance(value, dict) else conv[0]
        if value is None and conv is not _snr_db:
            continue
        if isinstance(conv, dict):
            sub = _resolve(value, conv, path)
            out.update(sub if name is None else {name: sub})
            continue
        try:
            out[name] = conv(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return out


def _construct(where: str, cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class ScenarioConfig:
    """Fully resolved scenario: everything a trial needs."""

    ofdm: OfdmConfig
    scene: SceneConfig
    books: CodebookSet  # every receiver's codebooks, on scene.tx_array and scene.rx_array
    als: AlsOptions  # each receiver runs it with its own seed
    effective_snr_db: float | None = 20.0
    max_rank: int = DEFAULT_MAX_RANK
    eps_m: float = DEFAULT_EPS_M
    min_points: int = DEFAULT_MIN_POINTS
    detection_radius_m: float = 5.0
    seed: int = 0
    trials: int = 50
    modes: tuple[Mode, ...] = (Mode(ue_id=None, weighting="wls"),)
    raw: dict = field(default_factory=dict)

    def receiver_tensor(self, scene: Scene, rx_id: int, seed: int):
        """Receiver ``rx_id``'s noisy tensor in the trial of seed ``seed``."""
        return synthesize_tensor(
            scene, rx_id, self.books, self.ofdm,
            noise_seed=receiver_seed(seed, rx_id), effective_snr_db=self.effective_snr_db,
        )


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a config mapping and resolve it into a ScenarioConfig.

    Every malformed setting raises a ConfigError naming its section.key,
    or its section when only the values together are inconsistent.
    """
    settings = dict(_require_mapping(raw, "config"))
    schema = settings.pop("schema", None)
    if schema is None:
        raise ConfigError(f"missing mandatory 'schema' field (expected {SCHEMA_ID!r})")
    if schema != SCHEMA_ID:
        raise ConfigError(f"unsupported schema {schema!r} (this build reads {SCHEMA_ID!r})")
    kw = _resolve(settings, _CONFIG_KEYS)

    ofdm = _construct("ofdm", OfdmConfig, **kw.pop("ofdm", {}))
    arrays = kw.pop("arrays", {})
    spacing = arrays.pop("spacing", _STOCK_SPACING_WAVELENGTHS) * ofdm.wavelength
    bs_geom, ue_geom = (
        _construct("arrays", UpaGeometry, **{**shape, **arrays.get(name, {})},
                   spacing=spacing, wavelength=ofdm.wavelength)
        for name, shape in _STOCK_ARRAYS.items()
    )

    scene = kw.pop("scene", {})
    if "foi_az" in scene or "foi_el" in scene:  # a partial FoI keeps the stock other half
        scene["foi"] = _construct(
            "scene", FoiBounds,
            azimuth=scene.pop("foi_az", DEFAULT_FOI.azimuth),
            elevation=scene.pop("foi_el", DEFAULT_FOI.elevation),
        )
    scene_cfg = _construct("scene", SceneConfig, **scene, tx_array=bs_geom, rx_array=ue_geom)

    # the BS sweeps 8 azimuth beams around broadside and a 4-beam elevation
    # fan from DFT beam 11 (downtilt); the UE sweeps every beam of its array
    stock = {"tx_az": (8, None), "tx_el": (4, 11),
             "rx_az": (ue_geom.n_x, None), "rx_el": (ue_geom.n_y, None)}
    sectors = kw.pop("beams", {})
    books = {}
    for key, (axis, _) in _BEAMS_KEYS.items():
        num, first = stock[axis]
        spec = sectors.get(axis)
        if isinstance(spec, dict):  # a sector without a first beam centres on broadside
            num, first = spec.get("num_beams", num), spec.get("first_beam")
        elif spec is not None:  # a bare count keeps the default first beam
            num = spec
        try:
            books[axis] = dft_codebook(axis_elements(axis, ue_geom, bs_geom), num, axis,
                                       first_beam=first)
        except ValueError as exc:
            raise ConfigError(f"beams.{key}: {exc}") from exc

    als = _construct("estimation", AlsOptions, **{k: kw.pop(k) for k in _ALS_KEYS if k in kw})
    config = ScenarioConfig(
        ofdm=ofdm, scene=scene_cfg, books=CodebookSet(**books, rx_geom=ue_geom, tx_geom=bs_geom),
        als=als, **kw, raw=raw,
    )
    n_rx = scene_cfg.num_receivers
    for mode in config.modes:
        if mode.ue_id is not None and not 0 <= mode.ue_id < n_rx:
            raise ConfigError(
                f"modes: {mode.name!r} names receiver {mode.ue_id}, but the scenario has "
                f"{n_rx} receivers (ids 0..{n_rx - 1})"
            )
    return config


def default_scenario(**overrides) -> ScenarioConfig:
    """The stock two-receiver desk scenario; overrides patch the raw dict."""
    return scenario_from_dict({"schema": SCHEMA_ID, **overrides})


def load_config(path: str, **overrides) -> ScenarioConfig:
    """Read a YAML scenario; ``overrides`` replace its top-level keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return scenario_from_dict({**_require_mapping(raw, "config"), **overrides})


# ---------------------------------------------------------------------------
# Order-statistic summaries
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Sample quantile that interpolates linearly between the nodes (i/n, x_(i)).

    Below 1/n it clamps to the smallest sample.
    """
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("empty sample")
    if np.any(np.isnan(vals)):
        raise ValueError("sample contains NaN")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return float(np.quantile(vals, p, method="interpolated_inverted_cdf"))


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
        return _canonical(asdict(self))


@dataclass
class TrialResult:
    trial: int
    seed: int
    outcomes: dict[str, ModeOutcome]
    num_paths: dict[int, int]  # receiver id -> estimated path count
    skipped_receivers: dict[int, str]  # receiver id -> stage: reason
    runtimes: dict[str, float] = field(default_factory=dict)  # s: scene, receivers, fusion

    def canonical_dict(self) -> dict:
        """Deterministic serialization; runtimes deliberately excluded."""
        doc = asdict(self)
        del doc["runtimes"]
        return _canonical(doc)


def _canonical(value):
    """``value`` with every mapping's keys made strings and sorted: the canonical form."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


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
    delay_period: float | None = None,
) -> ModeOutcome:
    out = ModeOutcome(mode=mode.name, num_clusters=num_clusters, residual=estimate.residual)
    for n, p_hat in estimate.ue_positions.items():
        rx = scene.receiver(n)
        out.ue_errors[n] = float(np.linalg.norm(p_hat - rx.position))
    for n, dt_hat in estimate.ue_timing_offsets.items():
        truth = scene.receiver(n).timing_offset
        if delay_period is not None:  # offsets are known modulo it: take the nearest to truth
            dt_hat += delay_period * round((truth - dt_hat) / delay_period)
        out.to_errors[n] = abs(dt_hat - truth)
    detected, errors, false_alarms = match_targets(estimate, scene, detection_radius)
    out.target_detected = detected
    out.target_errors = errors
    out.num_false_alarms = false_alarms
    return out


def _receiver_workers(receivers: int) -> int:
    """Processes that estimate a trial's receivers side by side.

    One per group of cores a receiver's BLAS calls occupy: the cores this
    process may run on, divided by the BLAS thread count (the first
    positive integer among _BLAS_THREAD_VARS, else every core), at least 1
    and at most one per receiver. With BLAS on every core the receivers
    run one at a time, as concurrent GEMMs would only oversubscribe them.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in _BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, min(receivers, cpus // blas_threads))


def _receiver_chain(config: ScenarioConfig, scene: Scene, rx_id: int, seed: int,
                    weightings: list[str]) -> tuple[str, str | None, int | None, dict]:
    """Receiver ``rx_id``'s synthesis, estimation and process_receiver, as plain
    data whatever fails: (the last stage started, "<stage>: <reason>" or None,
    the path count or None, the SingleReceiverResult of each weighting)."""
    stage = "synthesis"
    try:
        tensor = config.receiver_tensor(scene, rx_id, seed)
        stage = "estimation"
        paths = estimate_paths(tensor, rank="auto", max_rank=config.max_rank,
                               opts=replace(config.als, seed=receiver_seed(seed, rx_id)))
    except Exception as exc:
        return stage, f"{stage}: {exc}", None, {}
    results, reason = process_receiver(paths, rx_id, scene, config.ofdm, config.scene.foi,
                                       weightings)
    return "pipeline", reason, len(paths), results


def _estimate_receivers(config: ScenarioConfig, scene: Scene, rx_ids: list[int], seed: int,
                        weightings: list[str]) -> list[tuple]:
    """Each receiver's ``_receiver_chain``, in the order of ``rx_ids``.

    With w = _receiver_workers(receivers) > 1, receivers j, j + w, ... go
    to child process j for j = 1 .. w - 1, forked through multiprocessing,
    while this process does receivers 0, w, ...; the children send their
    chains back through one-way pipes, as plain data: no exception object
    crosses. Processes, not threads: ALS holds the GIL between its GEMMs,
    and on a shared two-core virtual machine two threads passing it back
    and forth took 1.2-2.4 s per stock trial from run to run, against
    0.9-1.05 s for two processes and 1.75-2.1 s one at a time. The
    receivers of a child that could not start or died before it sent are
    done here, so the chains are those of the one-at-a-time loop in every
    case. After the first child that could not start, this process does
    every receiver of every trial.
    """
    global _no_process_to_spare
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    # a daemonic process, such as a pool worker, may have no children
    daemonic = multiprocessing.current_process().daemon
    spare = can_fork and not daemonic and not _no_process_to_spare
    workers = _receiver_workers(len(rx_ids)) if spare else 1

    def run(j):
        return [_receiver_chain(config, scene, rx_id, seed, weightings)
                for rx_id in rx_ids[j::workers]]

    outcomes = [None] * len(rx_ids)
    children = []
    try:
        for j in range(1, workers):
            try:
                reader, writer = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.get_context("fork").Process(
                    target=lambda j=j, writer=writer: writer.send(run(j)), daemon=True)
                with writer:  # then the child holds the only write end: its death reads as EOF
                    child.start()
            except OSError:  # no pipe or process to spare (an unused read end closes on return)
                _no_process_to_spare = True
                break
            children.append((j, child, reader))
        for j in [0, *range(len(children) + 1, workers)]:  # workers without a child
            outcomes[j::workers] = run(j)
        for j, _, reader in children:
            try:
                outcomes[j::workers] = reader.recv()
            except EOFError:  # the child died before it sent
                outcomes[j::workers] = run(j)
        return outcomes
    except BaseException:
        for _, child, _ in children:
            child.kill()
        raise
    finally:
        for _, child, reader in children:
            child.join()
            reader.close()


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialResult:
    """Trial ``trial_index`` of ``config``, shared across the config's modes.

    Each receiver's chain (synthesis, estimation, then process_receiver for
    every weighting the modes use) runs side by side with the others in
    processes forked through multiprocessing (see _estimate_receivers),
    which only read the scene and the config (its codebooks included) and
    hand back plain data; the chains are taken in receiver order, so the
    result is the same as running them one after the other: the first
    synthesis failure fails every mode, and any other failure skips its
    receiver.
    """
    seed = config.seed + trial_index
    result = TrialResult(
        trial=trial_index, seed=seed, outcomes={}, num_paths={}, skipped_receivers={}
    )

    def fail_all(failure: str):
        for mode in config.modes:
            result.outcomes[mode.name] = ModeOutcome(mode=mode.name, failure=failure)
        logger.warning("trial %d failed at %s", trial_index, failure)
        return result

    t0 = time.perf_counter()
    try:
        scene = random_scene(config.scene, seed)
    except Exception as exc:
        return fail_all(f"scene: {exc}")
    result.runtimes["scene"] = time.perf_counter() - t0

    rx_ids = [rx.node_id for rx in scene.receivers]
    weightings = sorted({m.weighting for m in config.modes})
    single: dict[str, dict[int, SingleReceiverResult]] = {w: {} for w in weightings}
    t0 = time.perf_counter()
    chains = _estimate_receivers(config, scene, rx_ids, seed, weightings)
    for rx_id, (stage, reason, num_paths, by_weighting) in zip(rx_ids, chains):
        if stage == "synthesis":
            return fail_all(reason)
        if num_paths is not None:
            result.num_paths[rx_id] = num_paths
        if reason is not None:
            result.skipped_receivers[rx_id] = reason
        for w, res in by_weighting.items():
            single[w][rx_id] = res
    result.runtimes["receivers"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for mode in config.modes:
        usable = single[mode.weighting]
        wanted = sorted(usable) if mode.ue_id is None else [mode.ue_id]
        results = [usable[n] for n in wanted if n in usable]
        if not results:
            failure = "pipeline: no usable receivers for this mode"
            result.outcomes[mode.name] = ModeOutcome(mode=mode.name, failure=failure)
            continue
        try:
            clusters, _, _ = build_associations(
                results, eps=config.eps_m, min_points=config.min_points)
            los = {r.ue_id: r.los for r in results}
            estimate = run_fusion(clusters, los, scene.tx.position, scene.speed_of_light,
                                  weighting=mode.weighting)
        except Exception as exc:
            result.outcomes[mode.name] = ModeOutcome(mode=mode.name, failure=f"fusion: {exc}")
            continue
        # clock offsets are identifiable modulo the delay period
        period = config.ofdm.delay_period
        estimate.ue_timing_offsets = {
            n: wrap_timing_offset(v, period) for n, v in estimate.ue_timing_offsets.items()
        }
        result.outcomes[mode.name] = _evaluate_mode(
            mode, estimate, scene, config.detection_radius_m, len(clusters), period
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
            detected = total_targets = false_alarms = failed = 0
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
                false_alarms += oc.num_false_alarms
            out[mode] = {
                "trials": len(self.trials),
                "failed_trials": failed,
                "ue_error_median_m": percentile(ue_errs, 0.5) if ue_errs else None,
                "ue_error_p80_m": percentile(ue_errs, 0.8) if ue_errs else None,
                "to_error_median_s": percentile(to_errs, 0.5) if to_errs else None,
                "target_error_median_m": percentile(tgt_errs, 0.5) if tgt_errs else None,
                "target_error_p80_m": percentile(tgt_errs, 0.8) if tgt_errs else None,
                "targets_detected": detected,
                "targets_total": total_targets,
                "detection_rate": (detected / total_targets) if total_targets else None,
                "false_alarms": false_alarms,
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
    config: ScenarioConfig, trials: int | None = None, progress: bool = False
) -> MonteCarloResult:
    """Run the config's trials, or ``trials`` of them, which passes the config's check."""
    if trials is not None:
        config = scenario_from_dict({**config.raw, "trials": trials})
    results = []
    for i in range(config.trials):
        results.append(run_trial(config, i))
        if progress:
            logger.info("trial %d/%d done", i + 1, config.trials)
    modes = [m.name for m in config.modes]
    return MonteCarloResult(config=config.raw, modes=modes, trials=results)


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
    """The scene as JSON: each object holds its dataclass's fields, arrays as lists."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(scene), fh, sort_keys=True, indent=2, default=np.ndarray.tolist)
        fh.write("\n")
