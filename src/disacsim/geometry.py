"""Angle conventions and direction-vector helpers shared by the whole package.

Array local frame
-----------------
Every planar array lives in its own right-handed local frame:

* x axis: first element axis (azimuth axis, ``n_x`` elements),
* y axis: second element axis (elevation axis, ``n_y`` elements),
* z axis: boresight (outward normal of the panel).

A propagation direction is stored as an (azimuth, elevation) pair. The unit
vector for a pair is

    u = (cos(el) * sin(az), sin(el), cos(el) * cos(az))

so azimuth is the bearing of the direction projected on the x-z plane
(measured from boresight toward +x) and elevation is the angle out of that
plane toward +y. Boresight is (az, el) = (0, 0). The pair covers the full
sphere bijectively apart from the poles el = +-pi/2.

The two direction cosines seen by the element axes are u_x = cos(el)sin(az)
and u_y = sin(el); these are what the array phase ramps and the beamspace
estimator actually resolve.

Each direction rule lives here once, in row form over (k, 3) arrays:
:func:`row_norms`, :func:`direction_angles`, :func:`fold_forward_rows` and
:meth:`FoiBounds.contains_angles`. The per-vector
:func:`angles_from_direction`, :func:`fold_forward` and
:meth:`FoiBounds.contains` are one-row uses of them.
"""

from dataclasses import dataclass

import numpy as np

# Canonical panel mount: boresight along global +x, element x axis along
# global +y, element y axis along global +z. Columns are the local axes
# expressed in global coordinates.
BORESIGHT_ALONG_X = np.array(
    [[0.0, 0.0, 1.0],
     [1.0, 0.0, 0.0],
     [0.0, 1.0, 0.0]]
)


@dataclass(frozen=True)
class AnglePair:
    """Direction in an array local frame, radians.

    azimuth in (-pi, pi], elevation in [-pi/2, pi/2].
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (np.isfinite(self.azimuth) and np.isfinite(self.elevation)):
            raise ValueError("angles must be finite")
        if not (-np.pi < self.azimuth <= np.pi + 1e-12):
            raise ValueError(f"azimuth {self.azimuth} outside (-pi, pi]")
        if not (-np.pi / 2 - 1e-12 <= self.elevation <= np.pi / 2 + 1e-12):
            raise ValueError(f"elevation {self.elevation} outside [-pi/2, pi/2]")


def as_vec3(value) -> np.ndarray:
    """Coerce to a finite float64 vector of shape (3,)."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def direction_from_angles(angles: AnglePair) -> np.ndarray:
    """Unit direction vector in the array local frame for an angle pair."""
    ce = np.cos(angles.elevation)
    return np.array(
        [ce * np.sin(angles.azimuth), np.sin(angles.elevation), ce * np.cos(angles.azimuth)]
    )


def row_norms(v: np.ndarray) -> np.ndarray:
    """Length of each row of a (k, 3) array, bit for bit ``np.linalg.norm(row)``.

    Each stacked (1, 3) @ (3, 1) product is the same BLAS dot that
    ``np.linalg.norm`` takes of one vector; ``np.linalg.norm(v, axis=1)``
    sums in another order and differs from it in the last bit on about
    one row in ten.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def direction_angles(u) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) arrays of the rows of a (k, 3) array of local
    directions; rows need not be unit length.

    This is the one angle rule of the package. A row that is not finite
    or is zero has no direction: the first such row raises the ValueError
    that :func:`angles_from_direction` raises for it alone.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ValueError(f"expected (k, 3) directions, got shape {u.shape}")
    n = row_norms(u)
    if not (np.isfinite(n) & (n > 0.0)).all():  # only then can a row be refused
        refused = ~np.isfinite(u).all(axis=1) | (n == 0.0)
        if refused.any():
            as_vec3(u[refused.argmax()])
            raise ValueError("zero direction vector")
    u = u / n[:, None]
    # np.clip's rule, spelled out: the same values at half its cost
    el = np.arcsin(np.minimum(np.maximum(u[:, 1], -1.0), 1.0))
    az = np.arctan2(u[:, 0], u[:, 2])
    az[az <= -np.pi] = np.pi
    return az, el


def angles_from_direction(u) -> AnglePair:
    """Inverse of :func:`direction_from_angles` (input need not be unit length)."""
    az, el = direction_angles(as_vec3(u)[None])
    return AnglePair(azimuth=float(az[0]), elevation=float(el[0]))


def direction_cosines(angles: AnglePair) -> tuple[float, float]:
    """(u_x, u_y) direction cosines along the two element axes."""
    u = direction_from_angles(angles)
    return float(u[0]), float(u[1])


def angles_from_cosines(ux: float, uy: float) -> tuple[AnglePair, bool]:
    """Recover an angle pair from the two element-axis direction cosines.

    The boresight component is taken nonnegative (a planar array cannot
    tell front from back), so the result always lies in the forward
    hemisphere. Returns (angles, valid); valid is False when
    ux**2 + uy**2 > 1, in which case the cosines are scaled back onto the
    unit circle before inversion.
    """
    rho2 = ux * ux + uy * uy
    valid = rho2 <= 1.0 + 1e-9
    if rho2 > 1.0:
        scale = 1.0 / np.sqrt(rho2)
        ux, uy = ux * scale, uy * scale
        rho2 = 1.0
    uz = np.sqrt(max(0.0, 1.0 - rho2))
    return angles_from_direction(np.array([ux, uy, uz])), bool(valid)


def check_rotation(matrix) -> np.ndarray:
    """Validate a proper rotation matrix (orthonormal, det +1)."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if not np.allclose(m.T @ m, np.eye(3), atol=1e-9):
        raise ValueError("rotation matrix is not orthonormal")
    if np.linalg.det(m) < 0.0:
        raise ValueError("rotation matrix must have det +1")
    return m


@dataclass(frozen=True)
class FoiBounds:
    """Forward field-of-interest sector, radians. Bounds are half-widths."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (0.0 < self.azimuth <= np.pi / 2):
            raise ValueError("azimuth bound must lie in (0, pi/2]")
        if not (0.0 < self.elevation <= np.pi / 2):
            raise ValueError("elevation bound must lie in (0, pi/2]")

    def contains(self, angles: AnglePair, margin: float = 0.0) -> bool:
        """Closed-interval test with an optional widening margin."""
        return bool(self.contains_angles(angles.azimuth, angles.elevation, margin))

    def contains_angles(self, azimuth, elevation, margin: float = 0.0):
        """:meth:`contains` elementwise over azimuth and elevation arrays."""
        return (abs(azimuth) <= self.azimuth + margin) & (
            abs(elevation) <= self.elevation + margin
        )


def fold_forward(u) -> np.ndarray:
    """Mirror a local direction into the forward hemisphere (z >= 0).

    A planar array resolves only the two in-plane direction cosines, so a
    source behind the panel is indistinguishable from its forward mirror
    image. This gives the direction the array would report.
    """
    return fold_forward_rows(as_vec3(u)[None])[0]


def fold_forward_rows(u) -> np.ndarray:
    """:func:`fold_forward` of each row of a (k, 3) array, as a new array."""
    u = np.array(u, dtype=float)
    u[:, 2] = np.abs(u[:, 2])
    return u
