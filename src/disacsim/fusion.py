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

Only the five unknowns of each receiver (c * dt_n, p_n, r_los_n) are
shared between targets. A target's r_m and its d_{m,n} are local: they
appear in that target's rows and nowhere else. build_joint_system
records each target's row range and local columns as a block, and
solve_wls eliminates every block's local unknowns by a QR of its rows,
solves the reduced system in the receiver unknowns (what the blocks
leave, stacked on the LoS rows) by QR, and back-substitutes each
target's local unknowns. The refusal rule is the dense SVD's: a
cheap upper bound on cond(A^T W A) accepts the system when it is at most
CONDITION_LIMIT, and otherwise the SVD of the same weighted matrix
decides and names the dependent column (see solve_wls).
"""

import logging
from collections.abc import Sequence
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
    """Weighted linear system A x ~ b with per-row provenance.

    blocks holds one (rows, columns) pair per target: the range of its
    rows and its local columns (r_m, then its d_{m,n} by receiver), which
    no other row touches.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    weights: np.ndarray
    layout: UnknownLayout
    blocks: list[tuple[range, tuple[int, ...]]] = field(default_factory=list)


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

    Each target's rows and local columns are recorded in
    LinearSystem.blocks for solve_wls.

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
    blocks = []
    r = 0
    for m, ms in kept.items():
        receivers = dict.fromkeys(meas.ue_id for meas in ms)  # ascending: ms is sorted
        local = (layout.range_cols[m], *(layout.pair_cols[(m, n)] for n in receivers))
        start = r
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
        blocks.append((range(start, r), local))
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
    return LinearSystem(matrix=a, rhs=b, weights=w, layout=layout, blocks=blocks)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def solve_wls(
    matrix: np.ndarray,
    rhs: np.ndarray,
    weights: np.ndarray,
    blocks: Sequence[tuple[range, Sequence[int]]] = (),
) -> tuple[np.ndarray, float]:
    """Weighted least squares via orthogonal factorization of W^(1/2) A.

    Equivalent to the normal-equation solution (A^T W A)^-1 A^T W b but
    numerically stable. Weights must be nonnegative; those below 1e-12
    times the largest weight are floored there so a stray zero-gain path
    cannot null its rows into an exactly singular system. Returns (x,
    weighted residual norm).

    blocks (as in LinearSystem.blocks) name row ranges and the local
    columns that only those rows touch; every other column is shared.
    Blocks of one shape are factored together: one QR of each block's
    rows, local columns first, then the shared columns and b. Its top
    rows hold the local triangle R_k and the block's coupling to the
    shared columns; the rows below are the block's share of the reduced
    system in the shared columns. Those shares, stacked on the rows
    outside every block, are solved by QR, and each block's local
    unknowns follow by back-substitution. Without blocks the whole
    system is the reduced one.

    Raises IllConditionedError when cond(A^T W A) exceeds 1e12, naming a
    dependent column. The triangular factors above make up the R of a QR
    of the column-permuted W^(1/2) A, so cond(A^T W A) <= ||W^(1/2) A||_F^2
    * ||R^-1||_F^2, and R^-1 follows blockwise from the inverses of the
    factors. A system whose bound is at most 1e12 is accepted. Any other
    goes to the SVD of the same W^(1/2) A, which accepts it (and gives x)
    or refuses it, naming as the dependent column the largest entry of
    its last right singular vector. With n >= 3 unknowns the bound exceeds
    cond(A^T W A) by a relative 2 (n - 2) / cond(W^(1/2) A) or more, at
    least 2e-6 at the limit and far above the rounding of either figure,
    so the SVD accepts every system the bound does, and every refusal and
    its message is the SVD's.
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

    with np.errstate(all="ignore"):  # a near-singular factor only raises the bound
        x = _solve_by_blocks(aw, bw, blocks)
    if x is None:
        x = _solve_by_svd(aw, bw)
    residual = float(np.linalg.norm(aw @ x - bw))
    return x, residual


def _solve_by_blocks(aw, bw, blocks):
    """The block-eliminated solution of aw x ~ bw, or None unless its
    bound certifies cond(aw^T aw) <= CONDITION_LIMIT."""
    by_shape: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for rows, cols in blocks:
        by_shape.setdefault((len(rows), len(cols)), []).append((rows.start, *cols))
    outside_rows = np.ones(aw.shape[0], dtype=bool)
    shared = np.ones(aw.shape[1], dtype=bool)
    groups = []  # per block shape: (local column count, row and column indices)
    for (p, q), members in by_shape.items():
        if p < q:
            return None
        members = np.array(members)
        rows = members[:, :1] + np.arange(p)
        outside_rows[rows] = False
        shared[members[:, 1:]] = False
        groups.append((q, rows, members[:, 1:]))
    # the right-hand side rides along as a last column: [A | b]
    system = np.column_stack([aw, bw])
    shared_cols = np.append(np.flatnonzero(shared), aw.shape[1])
    n_shared = shared_cols.size - 1
    reduced = [system[outside_rows][:, shared_cols]]
    eliminated = []
    for q, rows, local in groups:
        cols = np.concatenate([local, np.broadcast_to(shared_cols, (len(local), n_shared + 1))], 1)
        # one R per target of its rows, local columns first: its top q rows
        # hold [R_k | S_k | Q_k^T b], the rest are the rows' share of the
        # reduced system in the shared columns
        r = np.linalg.qr(system[rows[:, :, None], cols[:, None, :]], mode="r")
        eliminated.append((local, r[:, :q, :q], r[:, :q, q:-1], r[:, :q, -1]))
        reduced.append(r[:, q:, q:].reshape(-1, n_shared + 1))
    # with rows >= unknowns, the reduced system has at least n_shared rows
    r = np.linalg.qr(np.concatenate(reduced), mode="r")
    try:
        r_shared_inv = np.linalg.inv(r[:n_shared, :n_shared])
        r_local_invs = [np.linalg.inv(r_local) for _, r_local, _, _ in eliminated]
    except np.linalg.LinAlgError:  # an exactly singular factor
        return None
    y = r_shared_inv @ r[:n_shared, -1]
    x = np.empty(aw.shape[1])
    x[shared_cols[:-1]] = y
    inverse_sq = np.sum(r_shared_inv**2)  # ||R^-1||_F^2, block by block
    for (local, _, coupling, rhs), r_inv in zip(eliminated, r_local_invs):
        coupling = r_inv @ coupling
        x[local] = (r_inv @ rhs[:, :, None])[:, :, 0] - coupling @ y
        inverse_sq += np.sum(r_inv**2) + np.sum((coupling @ r_shared_inv) ** 2)
    if not np.sum(aw * aw) * inverse_sq <= CONDITION_LIMIT:
        return None
    return x


def _solve_by_svd(aw, bw):
    """The SVD solution of aw x ~ bw; refuses cond(aw^T aw) > CONDITION_LIMIT."""
    u, s, vt = np.linalg.svd(aw, full_matrices=False)
    if s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > CONDITION_LIMIT:
        dependent = int(np.argmax(np.abs(vt[-1])))
        raise IllConditionedError(
            f"normal matrix condition {np.inf if s[-1] == 0 else (s[0] / s[-1]) ** 2:.2e} "
            f"exceeds {CONDITION_LIMIT:.0e}; column {dependent} is numerically dependent",
            dependent_column=dependent,
        )
    return vt.conj().T @ ((u.conj().T @ bw) / s)


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
        x, residual = solve_wls(system.matrix, system.rhs, w, system.blocks)
    except IllConditionedError as exc:
        col = exc.dependent_column
        raise IllConditionedError(f"{exc} ({system.layout.labels[col]})", col) from exc
    return extract_estimate(x, system.layout, clusters, p_bs, speed_of_light, residual)
