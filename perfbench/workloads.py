"""The benchmark's workloads: how each builds its inputs, runs and checks them.

Every workload is one closed loop in one process: the next item starts when
the previous one has been checked. An item is one end-to-end trial on
``desk_mc`` and ``fusion_dense`` and one estimated tensor on
``lattice_estimate``. Inputs come only from the seed, are built outside the
timed segments, and reach the program through its public functions.

Each item yields an ``Item``: its timed seconds, its canonical output (the
bytes a later change must keep identical, or justify), the stage-labelled
failures it ended in, and its contribution to the accuracy figures.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from disacsim import cli, estimator, fusion, geometry, harness, pipeline, scene, waveform

from tracer import Tracer

WORKLOADS = ("desk_mc", "lattice_estimate", "fusion_dense")


@dataclass
class Item:
    seconds: float
    canonical: object
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # output checks that failed
    accuracy: dict = field(default_factory=dict)


def non_finite(value, where="output"):
    """Paths inside a JSON-like value that hold NaN or infinity."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [where]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in non_finite(v, f"{where}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in non_finite(v, f"{where}[{i}]")]
    return []


def is_stage_labelled(failure):
    stage, sep, reason = failure.partition(": ")
    return bool(sep and reason and stage.isidentifier())


def outcome_accuracy(outcome: harness.ModeOutcome) -> dict:
    """Accuracy contributions of one ``disac`` mode outcome."""
    return {
        "ue_err_m": list(outcome.ue_errors.values()),
        "target_err_m": list(outcome.target_errors.values()),
        "to_err_ns": [v * 1.0e9 for v in outcome.to_errors.values()],
        "detected": sum(outcome.target_detected.values()),
        "targets": len(outcome.target_detected),
    }


def check_outcomes(canonical: dict, modes) -> tuple[list, list]:
    """Failures and output problems of a trial's canonical outcomes."""
    failures, problems = [], non_finite(canonical)
    for mode in modes:
        out = canonical["outcomes"].get(mode)
        if out is None:
            problems.append(f"mode {mode} has no outcome")
        elif out["failure"] is not None:
            failures.append(f"{mode}: {out['failure']}")
            if not is_stage_labelled(out["failure"]):
                problems.append(f"mode {mode} failed without a stage: {out['failure']!r}")
    return failures, problems


# ---------------------------------------------------------------------------
# desk_mc: the stock Monte Carlo traffic
# ---------------------------------------------------------------------------


class DeskMc:
    """Stock two-receiver trials through ``harness.run_montecarlo``.

    Every run replays the first two trials of the stock sweep (config seed
    0), the ones the acceptance gate starts with, whatever the benchmark
    seed. Stock trials cost 4.5-18.5 s each depending on the scene (model
    order 4-8, some ALS restarts stopping early), and a run holds only two
    or three of them, so a seed-drawn pair would move the medians by more
    than any usable bound. In both replayed trials every receiver's winning
    ALS restart (rank 7 or 8) ends at the 300-sweep cap, and no mode fails.
    """

    name = "desk_mc"
    modes = ("disac", "disac-ls", "isac:0", "isac:1")
    boundary = "harness.run_trial"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.overrides = {"estimation": {"max_sweeps": 3, "restarts": 1}} if tiny else {}
        self.trials = 1 if tiny else 2
        self.min_items = self.trials
        self.first_cycle = None

    def setup(self):
        self.config = harness.default_scenario(
            seed=0, trials=self.trials, modes=list(self.modes), **self.overrides
        )
        # one cheap trial runs every stage once: codebooks, synthesis, model
        # order, ALS, extraction, pipeline and fusion
        warm = harness.default_scenario(
            seed=7919, modes=list(self.modes),
            estimation={"max_sweeps": 2, "restarts": 1},
        )
        harness.run_montecarlo(warm, trials=1)

    def batch(self, tracer):
        first = len(tracer.samples.get(self.boundary, []))
        with tracer.segment() as elapsed:
            mc = harness.run_montecarlo(self.config, trials=self.trials)
        times = tracer.samples.get(self.boundary, [])[first:]
        if len(times) != len(mc.trials):
            raise RuntimeError(f"run_trial boundary saw {len(times)} of {len(mc.trials)} trials")
        items = []
        for seconds, trial in zip(times, mc.trials):
            canonical = trial.canonical_dict()
            failures, problems = check_outcomes(canonical, self.modes)
            failures += [f"receiver {k}: {v}" for k, v in trial.skipped_receivers.items()]
            disac = trial.outcomes.get("disac")
            accuracy = outcome_accuracy(disac) if disac and disac.failure is None else {}
            items.append(Item(seconds, canonical, failures, problems, accuracy))
        # every cycle replays the same trials, which must repeat byte for byte
        canon = [it.canonical for it in items]
        if self.first_cycle is None:
            self.first_cycle = canon
        elif canon != self.first_cycle:
            items[0].problems.append("a replayed trial's canonical output changed")
        return items, elapsed[0]


# ---------------------------------------------------------------------------
# lattice_estimate: "estimate from file" through the command line
# ---------------------------------------------------------------------------

# the planted-path recipe of acceptance criterion 2: four paths on a
# jittered lattice of direction cosines and delays, 30 dB
RX_LATTICE = np.array([-0.6, -0.2, 0.2, 0.6])
TXAZ_LATTICE = np.array([-0.25, 0.0, 0.25, 0.5])
TXEL_LATTICE = np.array([0.25, 0.375, 0.5, 0.625])
TAU_LATTICE = np.array([60e-9, 160e-9, 260e-9, 360e-9])
LATTICE_SNR = 1.0e3
RECOVERY_DEG = 1.0
RECOVERY_S = 1.0e-9


def lattice_books() -> waveform.CodebookSet:
    return waveform.CodebookSet(
        rx_el=waveform.dft_codebook(8, 8, "rx_el"),
        rx_az=waveform.dft_codebook(8, 8, "rx_az"),
        tx_el=waveform.dft_codebook(16, 4, "tx_el", first_beam=11),
        tx_az=waveform.dft_codebook(16, 8, "tx_az"),
        rx_geom=scene.UpaGeometry(8, 8, 0.01, 0.02),
        tx_geom=scene.UpaGeometry(16, 16, 0.01, 0.02),
    )


def lattice_tensor(books, ofdm, unit_energy, key):
    """A criterion-2 tensor and its planted paths, drawn from ``key``."""
    rng = np.random.default_rng([*key, 11])
    ux_rx = rng.permutation(RX_LATTICE) + rng.uniform(-0.02, 0.02, 4)
    uy_rx = rng.permutation(RX_LATTICE) + rng.uniform(-0.02, 0.02, 4)
    ux_tx = rng.permutation(TXAZ_LATTICE) + rng.uniform(-0.02, 0.02, 4)
    uy_tx = rng.permutation(TXEL_LATTICE) + rng.uniform(-0.02, 0.02, 4)
    taus = rng.permutation(TAU_LATTICE) + rng.uniform(-10e-9, 10e-9, 4)
    gains = rng.uniform(0.7, 1.5, 4) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 4))
    paths = []
    for i in range(4):
        aoa, _ = geometry.angles_from_cosines(ux_rx[i], uy_rx[i])
        aod, _ = geometry.angles_from_cosines(ux_tx[i], uy_tx[i])
        paths.append(scene.PathRecord(gain=1.0, delay=taus[i], aoa=aoa, aod=aod,
                                      label=scene.LABEL_LOS))
    sig = waveform.tensor_from_paths(paths, books, ofdm, gains=gains)
    var = float(np.vdot(sig, sig).real) / (unit_energy * LATTICE_SNR)
    noise = waveform.beamspace_noise(books, ofdm, var, np.random.default_rng([*key, 1]))
    tensor = waveform.MeasurementTensor(data=sig + noise, codebooks=books, ofdm=ofdm,
                                        noise_var=var)
    return tensor, paths


def all_paths_recovered(estimated: list, planted: list) -> bool:
    """Criterion-2 rule: every planted path has its own estimated path within
    1 degree on all four angles and 1 ns in delay; the pairing minimizes the
    summed delay mismatch, as the criterion's assignment does."""
    if len(estimated) < len(planted):
        return False
    best = min(
        itertools.permutations(range(len(estimated)), len(planted)),
        key=lambda pick: sum(abs(estimated[i]["delay_s"] - p.delay)
                             for i, p in zip(pick, planted)),
    )
    for i, p in zip(best, planted):
        e = estimated[i]
        errors = (
            e["aoa_az_rad"] - p.aoa.azimuth, e["aoa_el_rad"] - p.aoa.elevation,
            e["aod_az_rad"] - p.aod.azimuth, e["aod_el_rad"] - p.aod.elevation,
        )
        if max(abs(math.degrees(x)) for x in errors) >= RECOVERY_DEG:
            return False
        if abs(e["delay_s"] - p.delay) >= RECOVERY_S:
            return False
    return True


class LatticeEstimate:
    """Rank-4 lattice tensors estimated from file by ``disacsim estimate``.

    Tensors are written with ``export_tensor`` outside the timed segment;
    the timed segment is one in-process ``cli.main(["estimate", ...])``
    with automatic model order and five restarts. ALS converges long before
    its sweep cap here, so model order, extraction, the gain re-fit, tensor
    load and the command line carry about a fifth of the time.
    """

    name = "lattice_estimate"
    boundary = None

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.restarts = 1 if tiny else 5
        self.min_items = 1 if tiny else 12
        self.index = 0

    def setup(self):
        self.books = lattice_books()
        self.ofdm = waveform.OfdmConfig()
        self.unit_energy = waveform.expected_noise_energy(self.books, self.ofdm, 1.0)
        self._estimate((7919, 0), "warm", Tracer())

    def _estimate(self, key, label, tracer):
        tensor, planted = lattice_tensor(self.books, self.ofdm, self.unit_energy, key)
        prefix = os.path.join(self.workdir, f"tensor_{label}")
        out = os.path.join(self.workdir, f"estimate_{label}.json")
        files = list(waveform.export_tensor(tensor, prefix)) + [out]
        argv = ["estimate", "--tensor", prefix, "--rank", "auto",
                "--restarts", str(self.restarts), "--seed", str(key[0] * 1000 + key[1]),
                "--out", out]
        failures, doc, elapsed = [], None, [0.0]
        try:
            with tracer.segment() as elapsed:
                code = cli.main(argv)
            if code != 0:
                failures.append(f"cli: exit status {code}")
            else:
                with open(out, encoding="utf-8") as fh:
                    doc = json.load(fh)
        except Exception as exc:  # an item must end in a labelled failure, not abort the run
            failures.append(f"estimate: {type(exc).__name__}: {exc}")
        finally:
            for path in files:
                if os.path.exists(path):
                    os.remove(path)
        return doc, planted, failures, elapsed[0]

    def batch(self, tracer):
        key = (self.seed, self.index)
        self.index += 1
        doc, planted, failures, seconds = self._estimate(key, str(key[1]), tracer)
        problems, accuracy = [], {}
        if doc is not None:
            problems = non_finite(doc)
            if doc.get("num_paths") != len(doc.get("paths", ())):
                problems.append("num_paths disagrees with the path list")
            if not problems:
                accuracy = {"recovered": int(all_paths_recovered(doc["paths"], planted)),
                            "tensors": 1}
        return [Item(seconds, doc, failures, problems, accuracy)], seconds


# ---------------------------------------------------------------------------
# fusion_dense: pipeline and fusion on dense ground-truth scenes
# ---------------------------------------------------------------------------

# four receivers, five 5-point targets and eight clutter points, half of
# them inside the field of interest; the receiver and target boxes are
# widened so four receivers 6 m apart and five targets 12 m apart always
# fit (in the stock boxes placement runs out of room)
DENSE_SCENE = {
    "num_receivers": 4,
    "num_targets": 5,
    "scatter_points_per_target": 5,
    "num_clutter": 8,
    "clutter_in_foi_fraction": 0.5,
    "ue_box": [[12.0, 28.0], [-8.0, 8.0], [1.2, 1.8]],
    "target_box": [[40.0, 70.0], [-20.0, 20.0], [0.5, 1.8]],
}
# stand-in estimator error on the ground-truth paths
ANGLE_NOISE_RAD = math.radians(0.25)
DELAY_NOISE_S = 0.3e-9


def perturbed_estimates(paths, ofdm, rng):
    """What a good estimator would return for these true paths: noisy
    angles and delays, delays wrapped into one period, strongest first."""
    period = ofdm.delay_period

    def jitter(angles):
        u = geometry.direction_from_angles(angles) + rng.normal(0.0, ANGLE_NOISE_RAD, 3)
        return geometry.angles_from_direction(u)

    out = []
    for p in paths:
        out.append(estimator.EstimatedPath(
            gain=complex(ofdm.tx_amplitude * p.gain),
            delay=float((p.delay + rng.normal(0.0, DELAY_NOISE_S)) % period),
            aoa=jitter(p.aoa),
            aod=jitter(p.aod),
        ))
    out.sort(key=lambda e: (-abs(e.gain), e.delay))
    return out


class FusionDense:
    """Dense scenes from ``scene.random_scene`` with ground-truth paths in
    place of the estimator output, through unwrap, direct-path pick,
    clutter filter, both single-receiver weightings, association and
    joint fusion for every mode. The estimator does no work here."""

    name = "fusion_dense"
    boundary = None

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.min_items = 2 if tiny else 100
        self.index = 0

    def setup(self):
        n_rx = DENSE_SCENE["num_receivers"]
        mode_names = ["disac", "disac-ls"] + [f"isac:{i}" for i in range(n_rx)]
        self.config = harness.default_scenario(scene=DENSE_SCENE, modes=mode_names)
        self.modes = [harness.parse_mode(m) for m in mode_names]
        self.weightings = sorted({m.weighting for m in self.modes})
        ofdm = self.config.ofdm
        self.resolution = 1.0 / (ofdm.subcarrier_spacing * ofdm.num_subcarriers)
        for i in range(3):
            self._item((7919, i), Tracer())

    def _localize(self, sc, est_by_rx):
        """run_trial's per-receiver pipeline and per-mode fusion."""
        cfg = self.config
        period = cfg.ofdm.delay_period
        single = {w: {} for w in self.weightings}
        results = {}
        for rx_id, est in est_by_rx.items():
            rx = sc.receiver(rx_id)
            try:
                unwrapped = pipeline.unwrap_delays(est, period)
                los_idx, _ = pipeline.identify_los(unwrapped, self.resolution)
                kept = pipeline.clutter_filter(unwrapped, cfg.scene.foi, los_index=los_idx)
                filtered = [unwrapped[i] for i in kept]
                new_los = kept.index(los_idx)
            except Exception as exc:
                results[f"receiver {rx_id}"] = f"pipeline: {exc}"
                continue
            for w in self.weightings:
                try:
                    single[w][rx_id] = pipeline.localize_single(
                        filtered, new_los, ue_id=rx_id, rx_orientation=rx.orientation,
                        p_bs=sc.tx.position, speed_of_light=sc.speed_of_light, weighting=w,
                    )
                except Exception as exc:
                    results[f"receiver {rx_id}"] = f"localization: {exc}"
        for mode in self.modes:
            usable = single[mode.weighting]
            wanted = [mode.ue_id] if mode.kind == "isac" else sorted(usable)
            chosen = [usable[n] for n in wanted if n in usable]
            if not chosen:
                results[mode.name] = "pipeline: no usable receivers for this mode"
                continue
            try:
                clusters, _, _ = pipeline.build_associations(
                    chosen, eps=cfg.eps_m, min_points=cfg.min_points)
                estimate = fusion.run_fusion(
                    clusters, {r.ue_id: r.los for r in chosen}, sc.tx.position,
                    sc.speed_of_light, weighting=mode.weighting)
            except Exception as exc:
                results[mode.name] = f"fusion: {exc}"
                continue
            results[mode.name] = (estimate, len(clusters))
        return results

    def _item(self, key, tracer):
        rng = np.random.default_rng([*key, 23])
        scene_seed = key[0] * 1_000_003 + key[1]
        failure = None
        with tracer.segment() as draw:
            try:
                sc = scene.random_scene(self.config.scene, scene_seed)
                truth = {rx.node_id: scene.generate_ground_truth_paths(sc, rx.node_id)
                         for rx in sc.receivers}
            except Exception as exc:  # a failed draw fails every mode, as in run_trial
                failure = f"scene: {exc}"
        if failure is not None:
            return {m.name: failure for m in self.modes}, None, draw[0]
        est = {n: perturbed_estimates(p, self.config.ofdm, rng) for n, p in truth.items()}
        with tracer.segment() as solve:
            results = self._localize(sc, est)
        return results, sc, draw[0] + solve[0]

    def batch(self, tracer):
        key = (self.seed, self.index)
        self.index += 1
        results, sc, seconds = self._item(key, tracer)
        period = self.config.ofdm.delay_period
        outcomes = {}
        for mode in self.modes:
            res = results[mode.name]
            if isinstance(res, str):
                outcomes[mode.name] = harness.ModeOutcome(mode=mode.name, failure=res)
                continue
            estimate, num_clusters = res
            estimate.ue_timing_offsets = {
                n: harness.wrap_timing_offset(v, period)
                for n, v in estimate.ue_timing_offsets.items()
            }
            outcomes[mode.name] = harness._evaluate_mode(
                mode, estimate, sc, self.config.detection_radius_m, num_clusters)
        canonical = {
            "item": list(key),
            "outcomes": {m: o.to_dict() for m, o in sorted(outcomes.items())},
            "skipped_receivers": {k: v for k, v in sorted(results.items())
                                  if k.startswith("receiver ")},
        }
        failures, problems = check_outcomes(canonical, [m.name for m in self.modes])
        failures += [f"{k}: {v}" for k, v in canonical["skipped_receivers"].items()]
        disac = outcomes["disac"]
        accuracy = outcome_accuracy(disac) if disac.failure is None else {}
        return [Item(seconds, canonical, failures, problems, accuracy)], seconds


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    classes = {"desk_mc": DeskMc, "lattice_estimate": LatticeEstimate,
               "fusion_dense": FusionDense}
    return classes[name](seed, workdir, tiny)
