"""Scene model: nodes, targets, clutter, ground-truth propagation paths.

One transmitter with a known position illuminates a street-level volume.
Several receivers (vehicles) with unknown positions and unknown clock
offsets collect reflections from extended targets (clusters of scatter
points) and from clutter scatterers. Every propagation path is single
bounce: transmitter -> scatter point -> receiver, plus one direct
line-of-sight path per receiver.

All positions are meters in a global right-handed frame with z up. Panels
are mounted per ``geometry.BORESIGHT_ALONG_X`` unless a receiver carries
its own orientation.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BORESIGHT_ALONG_X,
    AnglePair,
    FoiBounds,
    angles_from_direction,
    as_vec3,
    check_rotation,
    direction_cosines,
    fold_forward,
)

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Philox stream ids (second key word) used by this module.
_STREAM_PATH_PHASE = 7

DEFAULT_FOI = FoiBounds(np.deg2rad(60.0), np.deg2rad(30.0))  # +-60 deg az, +-30 deg el


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpaGeometry:
    """Uniform planar array: n_x x n_y elements on a rectangular grid.

    spacing and wavelength are meters; spacing applies to both axes.
    """

    n_x: int
    n_y: int
    spacing: float
    wavelength: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("array must have at least one element per axis")
        if self.spacing <= 0.0 or self.wavelength <= 0.0:
            raise ValueError("spacing and wavelength must be positive")

    @property
    def num_elements(self) -> int:
        return self.n_x * self.n_y

    @property
    def phase_scale(self) -> float:
        """Phase advance per element per unit direction cosine: 2*pi*d/lambda."""
        return 2.0 * np.pi * self.spacing / self.wavelength


@dataclass
class TransmitterNode:
    """Sensing transmitter (base station); position is known to the system."""

    position: np.ndarray
    array: UpaGeometry

    def __post_init__(self):
        self.position = as_vec3(self.position)


@dataclass
class ReceiverNode:
    """Receiver with unknown position and an unknown clock offset.

    orientation maps the local array frame to global coordinates and is
    assumed known (vehicles report their heading). timing_offset is the
    clock bias in seconds added to every measured delay at this receiver.
    """

    node_id: int
    position: np.ndarray
    orientation: np.ndarray
    timing_offset: float
    array: UpaGeometry

    def __post_init__(self):
        self.position = as_vec3(self.position)
        self.orientation = check_rotation(self.orientation)
        if not np.isfinite(self.timing_offset):
            raise ValueError("timing offset must be finite")


@dataclass
class ExtendedTarget:
    """Target modeled as a small cloud of scatter points with reflectivities."""

    target_id: int
    scatter_points: np.ndarray  # (P, 3)
    reflectivities: np.ndarray  # (P,), nonnegative

    MAX_EXTENT_M = 6.0  # vehicle scale

    def __post_init__(self):
        self.scatter_points = np.asarray(self.scatter_points, dtype=float)
        self.reflectivities = np.asarray(self.reflectivities, dtype=float)
        if self.scatter_points.ndim != 2 or self.scatter_points.shape[1] != 3:
            raise ValueError("scatter_points must have shape (P, 3)")
        if self.reflectivities.shape != (self.scatter_points.shape[0],):
            raise ValueError("one reflectivity per scatter point required")
        if np.any(self.reflectivities < 0.0):
            raise ValueError("reflectivities must be nonnegative")
        if self.extent() > self.MAX_EXTENT_M:
            raise ValueError(f"target extent {self.extent():.2f} m exceeds vehicle scale")

    def extent(self) -> float:
        """Largest pairwise scatter-point distance."""
        pts = self.scatter_points
        if len(pts) < 2:
            return 0.0
        diffs = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diffs**2).sum(axis=2)).max())

    def centroid(self) -> np.ndarray:
        return self.scatter_points.mean(axis=0)


@dataclass
class ClutterPoint:
    """Static environment scatterer that is not a target of interest."""

    position: np.ndarray
    reflectivity: float

    def __post_init__(self):
        self.position = as_vec3(self.position)
        if self.reflectivity < 0.0:
            raise ValueError("reflectivity must be nonnegative")


LABEL_LOS = "los"
LABEL_TARGET = "target"
LABEL_CLUTTER = "clutter"


@dataclass(frozen=True)
class PathRecord:
    """One propagation path as seen by a specific receiver.

    gain is the complex amplitude (free-space spread times reflectivity,
    random phase). delay is the measured delay in seconds and already
    includes the receiver clock offset. aoa is in the receiver local
    frame, aod in the transmitter local frame. For target paths target_id
    and point_index identify the generating scatter point.
    """

    gain: complex
    delay: float
    aoa: AnglePair
    aod: AnglePair
    label: str
    target_id: int | None = None
    point_index: int | None = None

    def __post_init__(self):
        if self.label not in (LABEL_LOS, LABEL_TARGET, LABEL_CLUTTER):
            raise ValueError(f"unknown path label {self.label!r}")


@dataclass
class Scene:
    """Full ground-truth description of one deployment."""

    tx: TransmitterNode
    receivers: list[ReceiverNode]
    targets: list[ExtendedTarget]
    clutter: list[ClutterPoint]
    speed_of_light: float = SPEED_OF_LIGHT
    phase_seed: int = 0  # seeds the deterministic per-path gain phases

    def __post_init__(self):
        if self.speed_of_light <= 0.0:
            raise ValueError("speed of light must be positive")
        for rx in self.receivers:
            if rx.position[2] <= 0.0:
                raise ValueError("receivers must sit above ground (z > 0)")
        ids = [rx.node_id for rx in self.receivers]
        if len(set(ids)) != len(ids):
            raise ValueError("receiver ids must be unique")
        positions = [self.tx.position] + [rx.position for rx in self.receivers]
        positions += [t.centroid() for t in self.targets]
        positions += [c.position for c in self.clutter]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                if np.allclose(positions[i], positions[j], atol=1e-9):
                    raise ValueError("node/target positions must be distinct")

    def receiver(self, rx_id: int) -> ReceiverNode:
        for rx in self.receivers:
            if rx.node_id == rx_id:
                return rx
        raise KeyError(f"no receiver with id {rx_id}")


# ---------------------------------------------------------------------------
# Steering and path generation
# ---------------------------------------------------------------------------


def steering_vector(angles: AnglePair, geom: UpaGeometry) -> np.ndarray:
    """Array response of a UPA for a direction in its local frame.

    The response factors into per-axis phase ramps driven by the two
    direction cosines,

        a_x[n] = exp(j * 2*pi*d/lambda * n * u_x),   n = 0..n_x-1
        a_y[m] = exp(j * 2*pi*d/lambda * m * u_y),   m = 0..n_y-1

    and the full vector is the Kronecker product a_x kron a_y (x index
    slow, y index fast). Entries are unit modulus; no normalization.

    Parameters
    ----------
    angles : AnglePair
        Direction in the array local frame.
    geom : UpaGeometry
        Element counts, spacing and wavelength.

    Returns
    -------
    np.ndarray
        Complex response of shape (n_x * n_y,).
    """
    ax, ay = axis_responses(angles, geom)
    return np.kron(ax, ay)


def phase_ramp(omega: float | np.ndarray, num_elements: int) -> np.ndarray:
    """Element-axis ramp exp(j * omega * n); omega may be a grid."""
    scalar = np.ndim(omega) == 0
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    ramp = np.exp(1j * om[:, None] * np.arange(num_elements)[None, :])
    return ramp[0] if scalar else ramp


def axis_responses(angles: AnglePair, geom: UpaGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis phase ramps (a_x, a_y) whose Kronecker product is the full response."""
    ux, uy = direction_cosines(angles)
    scale = geom.phase_scale
    return phase_ramp(scale * ux, geom.n_x), phase_ramp(scale * uy, geom.n_y)


def _local_angles(direction_global, orientation) -> AnglePair:
    return angles_from_direction(orientation.T @ as_vec3(direction_global))


def generate_ground_truth_paths(scene: Scene, rx_id: int) -> list[PathRecord]:
    """Exact multipath parameters for one receiver.

    Produces one line-of-sight path, one path per (target, scatter point)
    and one per clutter scatterer. Amplitudes follow a free-space spread
    model: lambda / (4*pi*r) for the direct path and
    reflectivity * lambda / (4*pi*(r + d)) for bounced paths, where r and
    d are the two hop lengths. Phases are uniform, drawn from a Philox
    generator keyed ``[scene.phase_seed + rx_id, 7]``, so repeated calls
    are reproducible. The key adds the receiver id to the seed, and
    random_scene sets phase_seed to the trial seed, so trial t's receiver 1
    draws the phases of trial t+1's receiver 0, and so on along the
    diagonal (ROADMAP item 2 gives each index its own key word, which
    moves every canonical digest).

    Returns
    -------
    list[PathRecord]
        LoS first, then target paths (target order, point order), then
        clutter paths.
    """
    rx = scene.receiver(rx_id)
    lam = scene.tx.array.wavelength
    rng = np.random.Generator(
        np.random.Philox(key=[scene.phase_seed + rx_id, _STREAM_PATH_PHASE])
    )

    paths: list[PathRecord] = []

    # Direct path. AoD points at the receiver, AoA back at the transmitter.
    d_los = np.linalg.norm(rx.position - scene.tx.position)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    paths.append(
        PathRecord(
            gain=complex(lam / (4.0 * np.pi * d_los) * np.exp(1j * phase)),
            delay=d_los / scene.speed_of_light + rx.timing_offset,
            aoa=_local_angles(scene.tx.position - rx.position, rx.orientation),
            aod=_local_angles(rx.position - scene.tx.position, BORESIGHT_ALONG_X),
            label=LABEL_LOS,
        )
    )

    def bounce(point, reflectivity, label, target_id=None, point_index=None):
        point = as_vec3(point)
        r = np.linalg.norm(point - scene.tx.position)
        d = np.linalg.norm(rx.position - point)
        amp = reflectivity * lam / (4.0 * np.pi * (r + d))
        ph = rng.uniform(0.0, 2.0 * np.pi)
        return PathRecord(
            gain=complex(amp * np.exp(1j * ph)),
            delay=(r + d) / scene.speed_of_light + rx.timing_offset,
            aoa=_local_angles(point - rx.position, rx.orientation),
            aod=_local_angles(point - scene.tx.position, BORESIGHT_ALONG_X),
            label=label,
            target_id=target_id,
            point_index=point_index,
        )

    for tgt in scene.targets:
        for p_idx in range(len(tgt.scatter_points)):
            paths.append(
                bounce(
                    tgt.scatter_points[p_idx],
                    tgt.reflectivities[p_idx],
                    LABEL_TARGET,
                    target_id=tgt.target_id,
                    point_index=p_idx,
                )
            )
    for cl in scene.clutter:
        paths.append(bounce(cl.position, cl.reflectivity, LABEL_CLUTTER))
    return paths


# ---------------------------------------------------------------------------
# Random scene sampling
# ---------------------------------------------------------------------------


class SceneSamplingError(RuntimeError):
    """Raised when the sampling constraints cannot be satisfied."""


@dataclass
class SceneConfig:
    """Geometry sampling recipe for random scenes.

    Boxes are (3, 2) arrays of [min, max] per global axis. Clutter is
    rejection-sampled so that, seen from every receiver, its forward-folded
    direction falls outside the field of interest (plus margin); a
    configurable fraction is instead forced inside the FoI to exercise the
    downstream clustering.
    """

    tx_array: UpaGeometry
    rx_array: UpaGeometry
    tx_position: np.ndarray = (0.0, 0.0, 14.0)  # the BS mast
    num_receivers: int = 2
    num_targets: int = 2
    scatter_points_per_target: int = 3
    num_clutter: int = 4
    ue_box: np.ndarray = field(
        default_factory=lambda: np.array([[15.0, 25.0], [-8.0, 8.0], [1.2, 1.8]])
    )
    target_box: np.ndarray = field(
        default_factory=lambda: np.array([[40.0, 60.0], [-10.0, 10.0], [0.5, 1.8]])
    )
    clutter_box: np.ndarray = field(
        default_factory=lambda: np.array([[5.0, 35.0], [-30.0, 30.0], [0.5, 10.0]])
    )
    target_extent_m: float = 0.8
    min_separation_m: float = 6.0
    target_min_separation_m: float = 12.0
    clutter_in_foi_fraction: float = 0.0
    to_range_s: float = 2.0e-7
    foi: FoiBounds = DEFAULT_FOI
    foi_margin: float = np.deg2rad(5.0)
    target_reflectivity_range: tuple[float, float] = (0.5, 2.0)
    # clutter stays at or below 1: a single bounce with reflectivity <= 1
    # can never out-gain the direct path (triangle inequality), which the
    # direct-path identification leans on
    clutter_reflectivity_range: tuple[float, float] = (0.3, 1.0)
    max_attempts: int = 2000

    def __post_init__(self):
        self.tx_position = as_vec3(self.tx_position)
        self.ue_box = check_box(self.ue_box)
        self.target_box = check_box(self.target_box)
        self.clutter_box = check_box(self.clutter_box)
        if not 0.0 <= self.clutter_in_foi_fraction <= 1.0:
            raise ValueError("clutter_in_foi_fraction must lie in [0, 1]")
        for name in ("target_reflectivity_range", "clutter_reflectivity_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got [{lo}, {hi}]")
        # a cube of side e holds points up to e * sqrt(3) apart, and the
        # ground clamp is a projection, so it cannot spread them further
        max_extent = ExtendedTarget.MAX_EXTENT_M / np.sqrt(3.0)
        if not 0.0 <= self.target_extent_m <= max_extent:
            raise ValueError(
                f"target_extent_m must lie in [0, {max_extent:.2f}] m, got {self.target_extent_m}"
            )


def check_box(box) -> np.ndarray:
    b = np.asarray(box, dtype=float)
    if b.shape != (3, 2) or np.any(b[:, 1] < b[:, 0]):
        raise ValueError("box must be (3, 2) with max >= min per axis")
    return b


def _sample_box(rng, box) -> np.ndarray:
    return rng.uniform(box[:, 0], box[:, 1])


def _folded_in_foi(point, rx_position, orientation, foi, margin) -> bool:
    u_local = orientation.T @ (as_vec3(point) - rx_position)
    angles = angles_from_direction(fold_forward(u_local))
    return foi.contains(angles, margin)


def random_scene(config: SceneConfig, seed: int) -> Scene:
    """Draw a scene honoring the separation and field-of-interest rules.

    Deterministic for a given (config, seed): all draws come from a
    Philox generator keyed on the seed. Raises SceneSamplingError when a
    constraint cannot be met within ``config.max_attempts`` draws, which
    signals an infeasible recipe (for example a separation larger than
    the box allows).
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    cfg = config

    def place(box, existing, separation, extra_ok=None, what="point"):
        for _ in range(cfg.max_attempts):
            cand = _sample_box(rng, box)
            if existing and min(np.linalg.norm(cand - p) for p in existing) < separation:
                continue
            if extra_ok is not None and not extra_ok(cand):
                continue
            return cand
        raise SceneSamplingError(
            f"could not place {what} after {cfg.max_attempts} attempts; "
            "check box sizes against separation constraints"
        )

    taken: list[np.ndarray] = [cfg.tx_position]

    rx_positions = []
    for _ in range(cfg.num_receivers):
        p = place(cfg.ue_box, taken, cfg.min_separation_m, what="receiver")
        rx_positions.append(p)
        taken.append(p)

    target_centers = []
    for _ in range(cfg.num_targets):
        sep_ok = lambda c: (
            not target_centers
            or min(np.linalg.norm(c - t) for t in target_centers) >= cfg.target_min_separation_m
        )
        p = place(cfg.target_box, taken, cfg.min_separation_m, extra_ok=sep_ok, what="target")
        target_centers.append(p)
        taken.append(p)

    receivers = [
        ReceiverNode(
            node_id=i,
            position=rx_positions[i],
            orientation=BORESIGHT_ALONG_X.copy(),
            timing_offset=float(rng.uniform(-cfg.to_range_s, cfg.to_range_s)),
            array=cfg.rx_array,
        )
        for i in range(cfg.num_receivers)
    ]

    targets = []
    for t_idx, center in enumerate(target_centers):
        npts = cfg.scatter_points_per_target
        if cfg.target_extent_m > 0.0 and npts > 1:
            offsets = rng.uniform(-0.5, 0.5, size=(npts, 3)) * cfg.target_extent_m
            # keep the cloud roughly centered so the centroid stays near center
            offsets -= offsets.mean(axis=0)
        else:
            offsets = np.zeros((npts, 3))
        pts = center[None, :] + offsets
        pts[:, 2] = np.maximum(pts[:, 2], 0.05)  # stay above ground
        refl = rng.uniform(*cfg.target_reflectivity_range, size=npts)
        targets.append(ExtendedTarget(target_id=t_idx, scatter_points=pts, reflectivities=refl))

    num_inside = int(round(cfg.clutter_in_foi_fraction * cfg.num_clutter))
    clutter = []
    for c_idx in range(cfg.num_clutter):
        if c_idx < num_inside:
            # deliberately inside the FoI of at least one receiver
            ok = lambda cand: any(
                _folded_in_foi(cand, rx.position, rx.orientation, cfg.foi, -cfg.foi_margin)
                for rx in receivers
            )
            box = cfg.target_box
        else:
            # outside the (widened) FoI of every receiver, even after the
            # front-back fold a planar array cannot resolve
            ok = lambda cand: not any(
                _folded_in_foi(cand, rx.position, rx.orientation, cfg.foi, cfg.foi_margin)
                for rx in receivers
            )
            box = cfg.clutter_box
        p = place(box, taken, cfg.min_separation_m, extra_ok=ok, what="clutter")
        taken.append(p)
        clutter.append(
            ClutterPoint(
                position=p,
                reflectivity=float(rng.uniform(*cfg.clutter_reflectivity_range)),
            )
        )

    scene = Scene(
        tx=TransmitterNode(position=cfg.tx_position, array=cfg.tx_array),
        receivers=receivers,
        targets=targets,
        clutter=clutter,
        phase_seed=seed,
    )
    logger.debug(
        "sampled scene: %d receivers, %d targets, %d clutter",
        len(receivers),
        len(targets),
        len(clutter),
    )
    return scene

