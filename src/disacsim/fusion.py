"""Fusion center: one weighted least-squares problem ties everything together.

Each associated reflection path contributes four linear rows in the
unknowns (transmitter-to-target range, target-to-receiver range per pair,
receiver clock offsets, receiver positions, line-of-sight ranges):

    spatial: r_m * u_bs + d_{m,n} * u_v - p_n = -p_bs        (3 rows)
    delay:   r_m + d_{m,n} + c * dt_n       = c * tau        (1 row)

and every receiver adds four line-of-sight rows:

    spatial: p_n - r_los_n * u_los = p_bs                    (3 rows)
    delay:   r_los_n + c * dt_n    = c * tau_los             (1 row)

A target cluster is a flat list of the path measurements associated
with one target, each carrying its receiver's ue_id. Rows are weighted
by the |gain| of the generating path. The unknown vector is laid out
block-wise as

    [ r_m (per target, ascending id)
    | d_{m,n} (per observed (target, receiver) pair, target-major)
    | dt_n (per receiver, ascending id)
    | p_n (x, y, z per receiver)
    | r_los_n (per receiver) ]

Pairs never observed by any path get no unknown, so a receiver that sees
only part of the scene still yields a solvable system.

The clock column is stored as the bias c * dt_n in meters (coefficient
1 in the delay rows); leaving the factor c on an otherwise O(1) column
would push the normal-matrix condition past 1e16 on every realistic
scene. Extraction divides it back out.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_vec3

logger = logging.getLogger(__name__)

WEIGHT_FLOOR_FRACTION = 1.0e-12
CONDITION_LIMIT = 1.0e12  # on A^T W A
_EYE3 = np.eye(3)  # shared, so the per-row position blocks allocate nothing


class UnderdeterminedError(RuntimeError):
    """Fewer rows than unknowns; the message gives both counts."""


class IllConditionedError(RuntimeError):
    """The weighted normal matrix is numerically singular."""

    def __init__(self, message: str, dependent_column: int | None = None):
        super().__init__(message)
        self.dependent_column = dependent_column


# ---------------------------------------------------------------------------
# Measurement records produced by the per-receiver pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathMeasurement:
    """Geometry of one reflection path, global frame.

    u_bs: unit vector from the transmitter toward the scatterer (from the
    departure angles). u_v: unit propagation direction scatterer ->
    receiver (from the arrival angles and the receiver orientation).
    delay is the measured (offset-bearing) delay, weight the |gain|.
    """

    ue_id: int
    path_index: int
    u_bs: np.ndarray
    u_v: np.ndarray
    delay: float
    weight: float


@dataclass(frozen=True)
class LosMeasurement:
    """Direct-path observation of one receiver."""

    ue_id: int
    u_los: np.ndarray  # unit vector transmitter -> receiver, global frame
    delay: float
    weight: float


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


@dataclass
class UnknownLayout:
    """Column bookkeeping for the joint system: each map sends an id to
    the column of its unknown. The range_cols keys are the target ids and
    the offset_cols keys the receiver ids, both ascending."""

    pair_cols: dict[tuple[int, int], int] = field(default_factory=dict)  # (m, ue_id) -> d_{m,n}
    labels: list[str] = field(default_factory=list)  # column -> the unknown it holds
    range_cols: dict[int, int] = field(default_factory=dict)  # target_id -> r_m
    offset_cols: dict[int, int] = field(default_factory=dict)  # ue_id -> c * dt_n
    position_cols: dict[int, int] = field(default_factory=dict)  # ue_id -> p_n x (y, z next)
    los_range_cols: dict[int, int] = field(default_factory=dict)  # ue_id -> r_los_n

    @classmethod
    def build(cls, target_ids, observed_pairs, ue_ids) -> "UnknownLayout":
        target_ids = sorted(target_ids)
        ue_ids = sorted(ue_ids)
        layout = cls()
        labels = layout.labels
        for m in target_ids:
            layout.range_cols[m] = len(labels)
            labels.append(f"r[target {m}]")
        for m in target_ids:
            for n in ue_ids:
                if (m, n) in observed_pairs:
                    layout.pair_cols[(m, n)] = len(labels)
                    labels.append(f"d[target {m}, receiver {n}]")
        for n in ue_ids:
            layout.offset_cols[n] = len(labels)
            labels.append(f"c*dt[receiver {n}]")
        for n in ue_ids:
            layout.position_cols[n] = len(labels)
            labels.extend(f"p_{axis}[receiver {n}]" for axis in "xyz")
        for n in ue_ids:
            layout.los_range_cols[n] = len(labels)
            labels.append(f"r_los[receiver {n}]")
        return layout


@dataclass
class LinearSystem:
    """Weighted linear system A x ~ b with per-row provenance."""

    matrix: np.ndarray
    rhs: np.ndarray
    weights: np.ndarray
    layout: UnknownLayout


def build_joint_system(
    clusters: dict[int, list[PathMeasurement]],
    los: dict[int, LosMeasurement],
    p_bs,
    speed_of_light: float,
) -> LinearSystem:
    """Assemble the fusion-center system from clustered measurements.

    clusters maps target label -> its path measurements, each naming its
    receiver by ue_id; los maps receiver id -> its direct-path
    measurement. Rows run by target (ascending), then receiver
    (ascending), then input order, and end with each receiver's LoS rows.

    Only receivers with a LoS entry and at least one associated path are
    kept: one without paths has five unknowns against its four LoS rows.
    Each kept receiver brings a path, so the rows (four per path and per
    receiver) always outnumber the unknowns (one per target, one per
    observed target-receiver pair, five per receiver).

    Raises UnderdeterminedError when no receiver has an associated
    reflection path, which leaves the clock offsets unobservable.
    """
    p_bs = as_vec3(p_bs)
    c = speed_of_light
    if not los:
        raise ValueError("at least one receiver with a LoS measurement is required")
    kept = {}
    for m in sorted(clusters):
        ms = [meas for meas in clusters[m] if meas.ue_id in los]
        if ms:
            kept[m] = sorted(ms, key=lambda meas: meas.ue_id)  # stable: paths keep input order
    if not kept:
        raise UnderdeterminedError(
            f"{4 * len(los)} rows < {5 * len(los)} unknowns; deficient: "
            "timing-offset/LoS block (no receiver has an associated reflection path)"
        )
    observed = {(m, meas.ue_id) for m, ms in kept.items() for meas in ms}
    ue_ids = sorted({n for _, n in observed})
    layout = UnknownLayout.build(kept, observed, ue_ids)

    rows = 4 * sum(len(ms) for ms in kept.values()) + 4 * len(ue_ids)
    a = np.zeros((rows, len(layout.labels)))
    b = np.zeros(rows)
    w = np.zeros(rows)
    r = 0
    for m, ms in kept.items():
        for meas in ms:
            n = meas.ue_id
            cr, cd = layout.range_cols[m], layout.pair_cols[(m, n)]
            cp, ct = layout.position_cols[n], layout.offset_cols[n]
            a[r : r + 3, cr] = meas.u_bs
            a[r : r + 3, cd] = meas.u_v
            a[r : r + 3, cp : cp + 3] = -_EYE3
            b[r : r + 3] = -p_bs
            w[r : r + 3] = meas.weight
            r += 3
            a[r, cr] = 1.0
            a[r, cd] = 1.0
            a[r, ct] = 1.0  # clock column in meters (c * dt)
            b[r] = c * meas.delay
            w[r] = meas.weight
            r += 1
    for n in ue_ids:
        meas = los[n]
        cp, ct, cl = layout.position_cols[n], layout.offset_cols[n], layout.los_range_cols[n]
        a[r : r + 3, cp : cp + 3] = _EYE3
        a[r : r + 3, cl] = -meas.u_los
        b[r : r + 3] = p_bs
        w[r : r + 3] = meas.weight
        r += 3
        a[r, cl] = 1.0
        a[r, ct] = 1.0
        b[r] = c * meas.delay
        w[r] = meas.weight
        r += 1
    assert r == rows
    return LinearSystem(matrix=a, rhs=b, weights=w, layout=layout)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def solve_wls(
    matrix: np.ndarray, rhs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float]:
    """Weighted least squares via orthogonal factorization of W^(1/2) A.

    Equivalent to the normal-equation solution (A^T W A)^-1 A^T W b but
    numerically stable. Weights must be nonnegative; those below 1e-12
    times the largest weight are floored there so a stray zero-gain path
    cannot null its rows into an exactly singular system. Returns (x,
    weighted residual norm).

    Raises IllConditionedError when cond(A^T W A) exceeds 1e12, naming a
    dependent column.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    w = np.asarray(weights, dtype=float).copy()
    if a.ndim != 2 or a.shape[0] != b.shape[0] or w.shape != b.shape:
        raise ValueError("inconsistent system dimensions")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if a.shape[0] < a.shape[1]:
        raise UnderdeterminedError(f"{a.shape[0]} rows < {a.shape[1]} unknowns")
    wmax = w.max() if w.size else 0.0
    if wmax <= 0.0:
        raise ValueError("all weights are zero")
    w = np.maximum(w, WEIGHT_FLOOR_FRACTION * wmax)
    sw = np.sqrt(w)
    aw = a * sw[:, None]
    bw = b * sw

    u, s, vt = np.linalg.svd(aw, full_matrices=False)
    if s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > CONDITION_LIMIT:
        dependent = int(np.argmax(np.abs(vt[-1])))
        raise IllConditionedError(
            f"normal matrix condition {np.inf if s[-1] == 0 else (s[0] / s[-1]) ** 2:.2e} "
            f"exceeds {CONDITION_LIMIT:.0e}; column {dependent} is numerically dependent",
            dependent_column=dependent,
        )
    x = vt.conj().T @ ((u.conj().T @ bw) / s)
    residual = float(np.linalg.norm(aw @ x - bw))
    return x, residual


# ---------------------------------------------------------------------------
# Estimate extraction
# ---------------------------------------------------------------------------


@dataclass
class SceneEstimate:
    """Joint estimate of receiver states and target positions.

    Receivers are keyed by ue_id, targets by cluster label; a target's
    transmitter range is ||target_points[m] - p_bs||.
    """

    ue_positions: dict[int, np.ndarray]
    ue_timing_offsets: dict[int, float]  # seconds
    target_points: dict[int, np.ndarray]
    excluded_targets: dict[int, str]
    residual: float


def extract_estimate(
    x: np.ndarray,
    layout: UnknownLayout,
    clusters: dict[int, list[PathMeasurement]],
    p_bs,
    speed_of_light: float,
    residual: float,
) -> SceneEstimate:
    """Turn the solution vector into positions and offsets.

    clusters maps target label -> its path measurements, as given to
    build_joint_system. The representative point of target m is
    p_bs + r_m * u_mean, where u_mean is the weight-averaged (and
    renormalized) transmitter-side unit vector over the paths of
    clusters[m], in list order. Targets with a negative estimated range
    are excluded and reported with a reason. The range unknowns only
    serve the solve and are not returned.
    """
    p_bs = as_vec3(p_bs)
    ue_positions = {n: x[c : c + 3].copy() for n, c in layout.position_cols.items()}
    ue_offsets = {n: float(x[c]) / speed_of_light for n, c in layout.offset_cols.items()}
    target_points: dict[int, np.ndarray] = {}
    excluded: dict[int, str] = {}
    for m, col in layout.range_cols.items():
        r_m = float(x[col])
        if r_m < 0.0:
            excluded[m] = f"negative transmitter range {r_m:.3f} m"
            continue
        acc = np.zeros(3)
        for meas in clusters[m]:
            acc += meas.weight * meas.u_bs
        norm = np.sqrt(acc @ acc)
        if norm == 0.0:
            excluded[m] = "degenerate direction average"
            continue
        u_mean = acc / norm
        target_points[m] = p_bs + r_m * u_mean
    return SceneEstimate(
        ue_positions=ue_positions,
        ue_timing_offsets=ue_offsets,
        target_points=target_points,
        excluded_targets=excluded,
        residual=residual,
    )


def run_fusion(
    clusters: dict[int, list[PathMeasurement]],
    los: dict[int, LosMeasurement],
    p_bs,
    speed_of_light: float,
    weighting: str = "wls",
) -> SceneEstimate:
    """Build, solve and unpack the joint system in one call.

    weighting="wls" weights each row by its path's |gain|; "ls" ignores
    the gains. An IllConditionedError names the dependent unknown.
    """
    if weighting not in ("wls", "ls"):
        raise ValueError(f"unknown weighting {weighting!r}")
    system = build_joint_system(clusters, los, p_bs, speed_of_light)
    w = system.weights if weighting == "wls" else np.ones_like(system.weights)
    try:
        x, residual = solve_wls(system.matrix, system.rhs, w)
    except IllConditionedError as exc:
        col = exc.dependent_column
        raise IllConditionedError(f"{exc} ({system.layout.labels[col]})", col) from exc
    return extract_estimate(x, system.layout, clusters, p_bs, speed_of_light, residual)
