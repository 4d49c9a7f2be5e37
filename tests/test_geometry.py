import numpy as np
import pytest

from disacsim.geometry import (
    BORESIGHT_ALONG_X,
    AnglePair,
    FoiBounds,
    angles_from_cosines,
    angles_from_direction,
    as_vec3,
    check_rotation,
    direction_angles,
    direction_cosines,
    direction_from_angles,
    fold_forward_rows,
)
from oracles import reference_angles_from_direction


def test_direction_convention_literal():
    # u = (cos el sin az, sin el, cos el cos az)
    az, el = 0.4, -0.3
    u = direction_from_angles(AnglePair(azimuth=az, elevation=el))
    expected = np.array(
        [np.cos(el) * np.sin(az), np.sin(el), np.cos(el) * np.cos(az)]
    )
    np.testing.assert_allclose(u, expected, atol=1e-15)


def test_boresight_is_z():
    np.testing.assert_allclose(
        direction_from_angles(AnglePair(0.0, 0.0)), [0.0, 0.0, 1.0], atol=1e-15
    )


def test_angles_direction_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
        a = AnglePair(azimuth=az, elevation=el)
        back = angles_from_direction(direction_from_angles(a))
        assert abs(back.azimuth - az) < 1e-12
        assert abs(back.elevation - el) < 1e-12


def test_angles_from_direction_accepts_unnormalized():
    a = angles_from_direction([0.0, 0.0, 17.0])
    assert a.azimuth == 0.0 and a.elevation == 0.0


def test_angles_from_direction_zero_vector():
    with pytest.raises(ValueError):
        angles_from_direction([0.0, 0.0, 0.0])


def _rows_near(az, el, rng, count=200, spread=1e-9):
    """Unnormalised directions scattered about (az, el), of random length."""
    pair = np.array([az, el]) + rng.uniform(-spread, spread, size=(count, 2))
    u = np.stack([np.cos(pair[:, 1]) * np.sin(pair[:, 0]), np.sin(pair[:, 1]),
                  np.cos(pair[:, 1]) * np.cos(pair[:, 0])], axis=1)
    return u * rng.uniform(1e-3, 1e3, size=(count, 1))


@pytest.mark.parametrize("case", ["random", "az-near-minus-pi", "north-pole", "south-pole"])
def test_direction_angles_equal_the_per_vector_reference(case):
    rng = np.random.default_rng(11)
    rows = {
        "random": lambda: rng.normal(size=(500, 3)) * rng.uniform(1e-3, 1e3, size=(500, 1)),
        # both signs of x about az = -pi, and the exact -pi of a zero x
        "az-near-minus-pi": lambda: np.concatenate(
            [_rows_near(-np.pi, 0.2, rng), _rows_near(np.pi, -0.4, rng),
             [[-0.0, 0.3, -1.0], [0.0, 0.3, -1.0], [-1e-300, 0.0, -2.0]]]),
        # a squared norm in the subnormal range puts |u_y| above 1, which the
        # clip holds at the pole
        "north-pole": lambda: np.concatenate(
            [_rows_near(0.7, np.pi / 2, rng),
             [[0.0, 3.0, 0.0], [1e-17, 1.0, -1e-17], [0.0, 1e-158, 0.0]]]),
        "south-pole": lambda: np.concatenate(
            [_rows_near(-2.5, -np.pi / 2, rng, spread=1e-6), [[0.0, -1e-158, 0.0]]]),
    }[case]()
    az, el = direction_angles(rows)
    for i, row in enumerate(rows):
        ref = reference_angles_from_direction(row)
        assert (az[i], el[i]) == (ref.azimuth, ref.elevation)
        assert angles_from_direction(row) == ref


@pytest.mark.parametrize("rows, message", [
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]], "^zero direction vector$"),
    ([[1.0, 0.0, 0.0], [np.inf, 0.0, 1.0], [0.0, 0.0, 0.0]], "^vector components must be finite$"),
    ([[1e-200, 0.0, 0.0]], "^zero direction vector$"),  # its squared norm underflows
    ([1.0, 0.0, 0.0], r"^expected \(k, 3\) directions, got shape \(3,\)$"),
])
def test_direction_angles_refuse_the_first_refused_row(rows, message):
    with pytest.raises(ValueError, match=message):
        direction_angles(rows)


def test_direction_angles_of_no_rows_are_empty():
    az, el = direction_angles(np.zeros((0, 3)))
    assert az.shape == el.shape == (0,)


def test_angle_pair_validation():
    with pytest.raises(ValueError):
        AnglePair(azimuth=np.nan, elevation=0.0)
    with pytest.raises(ValueError):
        AnglePair(azimuth=4.0, elevation=0.0)
    with pytest.raises(ValueError):
        AnglePair(azimuth=0.0, elevation=2.0)


def test_as_vec3_shape_and_finiteness():
    np.testing.assert_array_equal(as_vec3([1, 2, 3]), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_vec3([1.0, 2.0])
    with pytest.raises(ValueError):
        as_vec3([1.0, np.inf, 0.0])


def test_direction_cosines_are_first_two_components():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = AnglePair(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        ux, uy = direction_cosines(a)
        u = direction_from_angles(a)
        assert ux == pytest.approx(u[0]) and uy == pytest.approx(u[1])


def test_angles_from_cosines_round_trip_forward():
    # forward-hemisphere directions survive the cosine round trip
    rng = np.random.default_rng(11)
    for _ in range(200):
        ux, uy = rng.uniform(-0.7, 0.7, 2)
        a, valid = angles_from_cosines(ux, uy)
        assert valid
        bx, by = direction_cosines(a)
        assert abs(bx - ux) < 1e-12 and abs(by - uy) < 1e-12
        assert direction_from_angles(a)[2] >= 0.0


def test_angles_from_cosines_off_disk():
    a, valid = angles_from_cosines(0.9, 0.9)
    assert not valid
    # scaled back onto the unit circle: boresight component is zero
    ux, uy = direction_cosines(a)
    assert np.hypot(ux, uy) == pytest.approx(1.0, abs=1e-12)
    assert direction_from_angles(a)[2] == pytest.approx(0.0, abs=1e-9)


def test_check_rotation_accepts_and_rejects():
    check_rotation(np.eye(3))
    check_rotation(BORESIGHT_ALONG_X)
    check_rotation(BORESIGHT_ALONG_X.T)
    with pytest.raises(ValueError):
        check_rotation(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        check_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ValueError):
        check_rotation(np.eye(2))


def test_boresight_mount_maps_local_to_global():
    # local boresight (z) -> global +x, local x -> global +y, local y -> global +z
    np.testing.assert_allclose(BORESIGHT_ALONG_X @ [0, 0, 1], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(BORESIGHT_ALONG_X @ [1, 0, 0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(BORESIGHT_ALONG_X @ [0, 1, 0], [0.0, 0.0, 1.0])


def test_foi_bounds_closed_and_margin():
    foi = FoiBounds(azimuth=np.radians(60.0), elevation=np.radians(30.0))
    on_edge = AnglePair(azimuth=np.radians(60.0), elevation=np.radians(30.0))
    assert foi.contains(on_edge)
    just_out = AnglePair(azimuth=np.radians(60.001), elevation=0.0)
    assert not foi.contains(just_out)
    assert foi.contains(just_out, margin=np.radians(0.01))


def test_foi_bounds_validation():
    with pytest.raises(ValueError):
        FoiBounds(azimuth=0.0, elevation=0.5)
    with pytest.raises(ValueError):
        FoiBounds(azimuth=0.5, elevation=np.pi)


def test_fold_forward():
    np.testing.assert_allclose(fold_forward_rows([[0.3, -0.4, -0.5]])[0], [0.3, -0.4, 0.5])
    np.testing.assert_allclose(fold_forward_rows([[0.3, -0.4, 0.5]])[0], [0.3, -0.4, 0.5])
    rows = np.array([[0.3, -0.4, -0.5], [0.3, -0.4, 0.5]])
    np.testing.assert_array_equal(fold_forward_rows(rows), [[0.3, -0.4, 0.5]] * 2)
    assert rows[0, 2] == -0.5  # the input is left as it was
