"""Per-receiver processing between path estimation and fusion.

Stages, in order:

1. pick_direct_path -- the direct path is the one whose arrival
   direction is the one its departure direction predicts at this
   receiver, the direct-path geometry of mmWave position and orientation
   estimation (Shahmansoori et al., IEEE TWC 2018).
2. delay anchoring -- measured delays are only known modulo 1/spacing,
   and a clock offset can push the direct path across the wrap boundary.
   All delays are shifted into one period that starts
   ANCHOR_SLACK_FRACTION of a period below the direct path, which every
   bounce of the same receiver trails in true delay.
3. clutter_filter -- drop paths arriving from outside the receiver's
   field of interest; the direct path is exempt.
4. localize_single -- per-receiver weighted least squares turning each
   reflection path into a coarse scatterer position plus a receiver
   state (position, clock offset). It is fusion.run_fusion on one
   receiver, with every reflection path filed as its own singleton
   target cluster; the points and the dropped paths are that estimate's
   target points and excluded targets.
5. dbscan / build_associations -- cluster the coarse points across
   receivers and hand the grouping to the fusion center.

process_receiver runs stages 1-4 for one receiver and reports the
stage-labelled reason when the receiver has to be skipped. unwrap_delays
and identify_los are the older gain-based rules for stages 1-2 (anchor at
the strongest path, earliest of the strongest quartile); process_receiver
does not use them.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .estimator import EstimatedPath
from .fusion import (
    IllConditionedError,
    LosMeasurement,
    PathMeasurement,
    SceneEstimate,
    run_fusion,
)
from .geometry import BORESIGHT_ALONG_X, FoiBounds, direction_cosines, direction_from_angles
from .scene import Scene
from .waveform import OfdmConfig

logger = logging.getLogger(__name__)

DEFAULT_EPS_M = 2.0
# one point is a cluster: the estimator reports one path per return, so a
# single-receiver mode has one point per target
DEFAULT_MIN_POINTS = 1
NOISE_LABEL = -1
LOS_QUANTILE = 0.75
UNWRAP_SLACK_FRACTION = 0.25
# process_receiver's delay period starts this share of it below the direct path
ANCHOR_SLACK_FRACTION = 0.01


class LosIdentificationError(RuntimeError):
    pass


class LocalizationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Delay unwrapping and LoS identification
# ---------------------------------------------------------------------------


def _wrap_delays(paths: list[EstimatedPath], lo: float, delay_period: float) -> list[EstimatedPath]:
    """The paths with every delay moved into [lo, lo + delay_period)."""
    return [replace(p, delay=lo + (p.delay - lo) % delay_period) for p in paths]


def unwrap_delays(paths: list[EstimatedPath], delay_period: float) -> list[EstimatedPath]:
    """Shift all delays into one period anchored at the strongest path.

    Delays are mapped into [t_ref - slack, t_ref - slack + period), which
    keeps the intra-receiver delay structure intact as long as true delays
    span less than one period and lie within [-slack, period - slack) of
    the anchor's true delay. The slack is UNWRAP_SLACK_FRACTION (a quarter)
    of the period. The anchor is often not the direct path: in beamspace
    the direct path is often only the 2nd to 4th strongest (ROADMAP item
    1), and when it precedes the anchor by more than the slack it wraps to
    the end of the period.
    """
    if not paths:
        return []
    if delay_period <= 0.0:
        raise ValueError("delay_period must be positive")
    ref = max(paths, key=lambda p: abs(p.gain)).delay
    return _wrap_delays(paths, ref - UNWRAP_SLACK_FRACTION * delay_period, delay_period)


def identify_los(
    paths: list[EstimatedPath], delay_resolution: float
) -> tuple[int, bool]:
    """Pick the direct path: earliest arrival among the strong ones.

    Candidates are paths with |gain| at or above the upper-quartile
    order statistic (lower interpolation, so the cut is inclusive);
    among them the minimum delay wins. The direct path always precedes
    any bounce of the same receiver in true delay, so it wins whenever
    it clears the gain cut and the unwrap kept it first. It often does
    not clear the cut: beamspace gains mix beam patterns into |gain|, and
    on the stock 50-trial sweep this pick is wrong on 22 of 100
    receivers, 4 of them flagged ambiguous (ROADMAP item 1). Returns
    (index, ambiguous) where ambiguous means a second candidate lies
    within one delay-resolution cell of the winner.
    """
    if not paths:
        raise LosIdentificationError("no paths to choose a direct path from")
    gains = np.array([abs(p.gain) for p in paths])
    threshold = np.quantile(gains, LOS_QUANTILE, method="lower")
    candidates = [i for i, g in enumerate(gains) if g >= threshold]
    best = min(candidates, key=lambda i: paths[i].delay)
    ambiguous = any(
        i != best and paths[i].delay - paths[best].delay < delay_resolution
        for i in candidates
    )
    return best, ambiguous


def pick_direct_path(paths: list[EstimatedPath], rx_orientation) -> int:
    """Index of the path whose arrival direction best matches its departure.

    A direct path leaves the transmitter along u_bs and reaches the
    receiver from -u_bs, so in the receiver's local frame it arrives from
    R^T(-u_bs), R the receiver orientation. Each path's mismatch is the
    distance between the two element-axis components of that prediction
    and its estimated arrival direction cosines (the array tells only
    those two apart); the smallest mismatch wins, ties going to the lower
    index. A bounce arrives from its scatterer, not from the transmitter,
    so this needs neither gains nor delays.
    """
    if not paths:
        raise LosIdentificationError("no paths to choose a direct path from")
    u_bs = np.stack([BORESIGHT_ALONG_X @ direction_from_angles(p.aod) for p in paths])
    predicted = -u_bs @ np.asarray(rx_orientation, dtype=float)  # rows R^T(-u_bs)
    cosines = np.array([direction_cosines(p.aoa) for p in paths])
    mismatch = np.hypot(*(predicted[:, :2] - cosines).T)
    return int(np.argmin(mismatch))


# ---------------------------------------------------------------------------
# Field-of-interest clutter filter
# ---------------------------------------------------------------------------


def clutter_filter(
    paths: list[EstimatedPath],
    foi: FoiBounds,
    los_index: int | None = None,
) -> list[int]:
    """Indices of paths whose arrival direction lies inside the field
    of interest. Bounds are closed; the direct path is always kept."""
    kept = []
    for i, p in enumerate(paths):
        if i == los_index or foi.contains(p.aoa):
            kept.append(i)
    return kept


# ---------------------------------------------------------------------------
# Per-receiver localization
# ---------------------------------------------------------------------------


@dataclass
class SingleReceiverResult:
    """Output of one receiver's standalone localization.

    estimate is the singleton-cluster fusion estimate: its target ids are
    path indices, so target_points holds the coarse scatterer point of
    each kept path and excluded_targets the dropped paths with reasons.
    """

    measurements: list[PathMeasurement]
    los: LosMeasurement
    estimate: SceneEstimate

    @property
    def ue_id(self) -> int:
        return self.los.ue_id


def path_directions(
    path: EstimatedPath, rx_orientation: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Global-frame geometry of a path: (u_bs, u_v).

    u_bs points from the transmitter toward the scatterer (departure
    angles live in the transmitter's canonical frame). u_v is the
    propagation direction scatterer -> receiver: the arrival direction
    seen by the array points *at* the scatterer, so it is negated after
    rotation into the global frame.
    """
    u_bs = BORESIGHT_ALONG_X @ direction_from_angles(path.aod)
    u_v = -(np.asarray(rx_orientation, dtype=float) @ direction_from_angles(path.aoa))
    return u_bs, u_v


def localize_single(
    paths: list[EstimatedPath],
    los_index: int,
    ue_id: int,
    rx_orientation,
    p_bs,
    speed_of_light: float,
    weighting: str = "wls",
) -> SingleReceiverResult:
    """Per-receiver WLS: joint receiver state and per-path scatterers.

    This is the fusion-center system of one receiver in which every
    reflection path is its own target cluster: each path brings a
    transmitter range r and a receiver range d, the receiver brings its
    position, clock offset and LoS range, and the rows are those of
    :func:`fusion.build_joint_system`. Requires at least one reflection
    path; with none the clock offset and position cannot both be pinned.

    The solve is :func:`fusion.run_fusion`, so the estimate's target
    points (p_bs + r * u_bs, keyed by path index) are the coarse scatterer
    points, and a path whose transmitter range comes out negative is
    dropped from them into ``estimate.excluded_targets`` with a reason (as
    is a zero-gain path, whose direction average is degenerate).
    """
    rot = np.asarray(rx_orientation, dtype=float)
    if not (0 <= los_index < len(paths)):
        raise LocalizationError(f"direct-path index {los_index} out of range")
    refl = [i for i in range(len(paths)) if i != los_index]
    if not refl:
        raise LocalizationError(
            "no reflection paths: receiver state is not identifiable from the direct path alone"
        )

    measurements = []
    for i in refl:
        u_bs, u_v = path_directions(paths[i], rot)
        measurements.append(
            PathMeasurement(
                ue_id=ue_id, path_index=i, u_bs=u_bs, u_v=u_v,
                delay=paths[i].delay, weight=abs(paths[i].gain),
            )
        )
    los_path = paths[los_index]
    u_los, _ = path_directions(los_path, rot)  # transmitter -> receiver
    los_meas = LosMeasurement(
        ue_id=ue_id, u_los=u_los, delay=los_path.delay, weight=abs(los_path.gain)
    )

    clusters = {m.path_index: [m] for m in measurements}
    try:
        estimate = run_fusion(clusters, {ue_id: los_meas}, p_bs, speed_of_light, weighting)
    except IllConditionedError as exc:
        raise LocalizationError(f"receiver {ue_id}: {exc}") from exc
    return SingleReceiverResult(measurements=measurements, los=los_meas, estimate=estimate)


def process_receiver(
    paths: list[EstimatedPath], ue_id: int, scene: Scene, ofdm: OfdmConfig,
    foi: FoiBounds, weightings: list[str],
) -> tuple[dict[str, SingleReceiverResult], str | None]:
    """Stages 1-4 for one receiver, once per weighting.

    Returns (results by weighting, skip reason). The reason is None unless
    the receiver is lost: "pipeline: ..." when the direct-path pick, the
    delay anchoring or the clutter filter fails, and "localization: ..."
    (the last failure) when no weighting localizes it.
    """
    rx = scene.receiver(ue_id)
    period = ofdm.delay_period
    try:
        los_idx = pick_direct_path(paths, rx.orientation)
        lo = paths[los_idx].delay - ANCHOR_SLACK_FRACTION * period
        anchored = _wrap_delays(paths, lo, period)
        kept = clutter_filter(anchored, foi, los_index=los_idx)
        filtered = [anchored[i] for i in kept]
        new_los = kept.index(los_idx)
    except Exception as exc:
        return {}, f"pipeline: {exc}"
    results, failure = {}, None
    for w in weightings:
        try:
            results[w] = localize_single(
                filtered, new_los, ue_id=ue_id, rx_orientation=rx.orientation,
                p_bs=scene.tx.position, speed_of_light=scene.speed_of_light, weighting=w,
            )
        except Exception as exc:
            failure = exc
    # a receiver is skipped only when no requested weighting localized it
    if failure is not None and not results:
        return results, f"localization: {failure}"
    return results, None


# ---------------------------------------------------------------------------
# Density clustering
# ---------------------------------------------------------------------------


def dbscan(
    points: np.ndarray, eps: float = DEFAULT_EPS_M, min_points: int = DEFAULT_MIN_POINTS
) -> np.ndarray:
    """Euclidean DBSCAN, deterministic and order-canonical.

    A point is a core point when its closed eps-ball contains at least
    min_points points (itself included). Clusters are the connected
    components of the core-core adjacency graph; border points join the
    cluster of their nearest core point (ties broken toward the lower
    cluster label). Everything else is noise (-1). Labels are assigned
    in order of each component's smallest core index, so the same point
    set always yields the same labeling.
    """
    if eps <= 0.0 or min_points < 1:
        raise ValueError("eps must be positive and min_points at least 1")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n = pts.shape[0]
    labels = np.full(n, NOISE_LABEL, dtype=int)
    if n == 0:
        return labels

    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    adjacent = dist <= eps
    core = adjacent.sum(axis=1) >= min_points

    next_label = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE_LABEL:
            continue
        stack = [start]
        labels[start] = next_label
        while stack:
            i = stack.pop()
            for j in np.nonzero(adjacent[i] & core)[0]:
                if labels[j] == NOISE_LABEL:
                    labels[j] = next_label
                    stack.append(int(j))
        next_label += 1

    for i in range(n):
        if core[i] or labels[i] != NOISE_LABEL:
            continue
        reachable = np.nonzero(adjacent[i] & core)[0]
        if reachable.size == 0:
            continue
        best = min(reachable, key=lambda j: (dist[i, j], labels[j]))
        labels[i] = labels[best]
    return labels


def build_associations(
    results: list[SingleReceiverResult],
    eps: float = DEFAULT_EPS_M,
    min_points: int = DEFAULT_MIN_POINTS,
) -> tuple[dict[int, list[PathMeasurement]], np.ndarray, list[PathMeasurement]]:
    """Pool coarse points across receivers and cluster them.

    Each receiver contributes the point of every path its single-receiver
    estimate kept. Returns (clusters, labels, pooled) where pooled lists
    the measurement behind each point, in the order of labels, and
    clusters maps cluster label -> the measurements whose points fell in
    that cluster, in pooled order (receiver by receiver, as in results).
    Each measurement names its receiver by ue_id. Noise points associate
    with nothing.
    """
    pooled: list[PathMeasurement] = []
    coords = []
    for res in results:
        points = res.estimate.target_points
        for m in res.measurements:
            if m.path_index in points:
                pooled.append(m)
                coords.append(points[m.path_index])
    if not pooled:
        return {}, np.empty(0, dtype=int), []
    labels = dbscan(np.stack(coords), eps=eps, min_points=min_points)
    clusters: dict[int, list[PathMeasurement]] = {}
    for m, label in zip(pooled, labels):
        if label != NOISE_LABEL:
            clusters.setdefault(int(label), []).append(m)
    return clusters, labels, pooled
