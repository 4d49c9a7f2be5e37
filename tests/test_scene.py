import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from oracles import path_delay, reference_ground_truth_paths

from disacsim.geometry import (
    BORESIGHT_ALONG_X,
    AnglePair,
    FoiBounds,
    angles_from_direction,
    fold_forward_rows,
)
from disacsim.scene import (
    LABEL_CLUTTER,
    LABEL_LOS,
    LABEL_TARGET,
    SPEED_OF_LIGHT,
    ClutterPoint,
    ExtendedTarget,
    PathRecord,
    ReceiverNode,
    Scene,
    SceneConfig,
    SceneSamplingError,
    TransmitterNode,
    UpaGeometry,
    axis_responses,
    generate_ground_truth_paths,
    phase_ramp,
    random_scene,
    steering_vector,
)

HALF_WL = UpaGeometry(n_x=2, n_y=2, spacing=0.5, wavelength=1.0)


def _simple_scene(num_targets=1, points_per_target=1, num_clutter=0, to=0.0):
    tx = TransmitterNode(position=[0.0, 0.0, 14.0], array=UpaGeometry(4, 4, 0.01, 0.02))
    rx = ReceiverNode(
        node_id=0,
        position=[40.0, 0.0, 1.0],
        orientation=BORESIGHT_ALONG_X.copy(),
        timing_offset=to,
        array=UpaGeometry(2, 2, 0.01, 0.02),
    )
    targets = []
    for t in range(num_targets):
        pts = np.array(
            [[20.0 + 2.0 * t, 0.5 * p, 1.0] for p in range(points_per_target)]
        )
        targets.append(
            ExtendedTarget(
                target_id=t,
                scatter_points=pts,
                reflectivities=np.ones(points_per_target),
            )
        )
    clutter = [
        ClutterPoint(position=[10.0, 5.0 + 3.0 * c, 2.0], reflectivity=0.5)
        for c in range(num_clutter)
    ]
    return Scene(tx=tx, receivers=[rx], targets=targets, clutter=clutter)


# ---------------------------------------------------------------------------
# Arrays and steering
# ---------------------------------------------------------------------------


def test_steering_boresight_all_ones():
    a = steering_vector(AnglePair(0.0, 0.0), HALF_WL)
    np.testing.assert_allclose(a, np.ones(4), atol=1e-15)


def test_steering_single_element():
    a = steering_vector(AnglePair(0.7, -0.2), UpaGeometry(1, 1, 0.5, 1.0))
    np.testing.assert_allclose(a, [1.0 + 0.0j], atol=1e-15)


def test_steering_pole_direction():
    # el = pi/2 zeroes the x-axis cosine regardless of azimuth
    geom = UpaGeometry(n_x=2, n_y=1, spacing=0.5, wavelength=1.0)
    a = steering_vector(AnglePair(np.pi / 2, np.pi / 2), geom)
    np.testing.assert_allclose(a, [1.0, 1.0], atol=1e-12)


def test_steering_kron_structure_and_modulus():
    rng = np.random.default_rng(5)
    geom = UpaGeometry(3, 4, 0.3, 1.0)
    for _ in range(20):
        ang = AnglePair(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        ax, ay = axis_responses(ang, geom)
        full = steering_vector(ang, geom)
        np.testing.assert_allclose(full, np.kron(ax, ay), atol=1e-14)
        np.testing.assert_allclose(np.abs(full), 1.0, atol=1e-14)
        assert ax[0] == 1.0 + 0.0j and ay[0] == 1.0 + 0.0j


def test_axis_ramp_rate():
    # one axis: phase advances by phase_scale * u_x per element
    geom = UpaGeometry(4, 1, 0.25, 1.0)
    ang = AnglePair(np.pi / 6, 0.0)  # u_x = 0.5
    ax, _ = axis_responses(ang, geom)
    step = geom.phase_scale * 0.5
    np.testing.assert_allclose(np.angle(ax), np.arange(4) * step, atol=1e-12)


def test_phase_ramp_on_an_omega_array_equals_its_1d_calls():
    omegas = np.array([[-2.5, 0.0, 0.7], [1.3, -0.4, 3.1]])
    ramps = phase_ramp(omegas, 5)
    assert ramps.shape == (2, 3, 5)
    for i in range(2):
        assert np.array_equal(ramps[i], phase_ramp(omegas[i], 5))
        for j in range(3):
            assert np.array_equal(ramps[i, j], phase_ramp(float(omegas[i, j]), 5))


def test_upa_validation_and_phase_scale():
    with pytest.raises(ValueError):
        UpaGeometry(0, 2, 0.5, 1.0)
    with pytest.raises(ValueError):
        UpaGeometry(2, 2, -0.5, 1.0)
    g = UpaGeometry(2, 3, 0.01, 0.02)
    assert g.num_elements == 6
    assert g.phase_scale == pytest.approx(np.pi)


# ---------------------------------------------------------------------------
# Path generation
# ---------------------------------------------------------------------------


def test_path_delay_oracle():
    # tx (0,0,14) -> scatter (20,0,1) -> rx (40,0,1):
    # hop1 = sqrt(400+169) = sqrt(569), hop2 = 20
    scene = _simple_scene()
    tau = path_delay(scene, 0, [20.0, 0.0, 1.0])
    assert tau == pytest.approx((np.sqrt(569.0) + 20.0) / SPEED_OF_LIGHT, rel=1e-12)
    # the generator's target path carries the oracle's delay
    (target,) = [p for p in generate_ground_truth_paths(scene, 0) if p.label == LABEL_TARGET]
    assert target.delay == pytest.approx(tau, rel=1e-12)


def test_path_delay_includes_clock_offset_once():
    base = path_delay(_simple_scene(), 0, [20.0, 0.0, 1.0])
    shifted = path_delay(_simple_scene(to=10e-9), 0, [20.0, 0.0, 1.0])
    assert shifted - base == pytest.approx(10e-9, abs=1e-15)


def test_path_counts_and_order():
    scene = _simple_scene(num_targets=0, points_per_target=1, num_clutter=0)
    scene.targets = []
    paths = generate_ground_truth_paths(scene, 0)
    assert len(paths) == 1 and paths[0].label == LABEL_LOS

    scene = _simple_scene(num_targets=2, points_per_target=3, num_clutter=4)
    paths = generate_ground_truth_paths(scene, 0)
    assert len(paths) == 11
    assert paths[0].label == LABEL_LOS
    assert [p.label for p in paths[1:7]] == [LABEL_TARGET] * 6
    assert [p.label for p in paths[7:]] == [LABEL_CLUTTER] * 4
    assert [(p.target_id, p.point_index) for p in paths[1:7]] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_path_gain_magnitudes():
    scene = _simple_scene(num_targets=1, points_per_target=1)
    lam = scene.tx.array.wavelength
    paths = generate_ground_truth_paths(scene, 0)
    d_los = np.linalg.norm(scene.receivers[0].position - scene.tx.position)
    assert abs(paths[0].gain) == pytest.approx(lam / (4 * np.pi * d_los), rel=1e-12)
    r = np.linalg.norm(np.array([20.0, 0.0, 1.0]) - scene.tx.position)
    d = np.linalg.norm(scene.receivers[0].position - np.array([20.0, 0.0, 1.0]))
    assert abs(paths[1].gain) == pytest.approx(lam / (4 * np.pi * (r + d)), rel=1e-12)


def test_path_phases_deterministic():
    a = generate_ground_truth_paths(_simple_scene(num_clutter=2), 0)
    b = generate_ground_truth_paths(_simple_scene(num_clutter=2), 0)
    assert all(pa.gain == pb.gain for pa, pb in zip(a, b))
    shifted = _simple_scene(num_clutter=2)
    shifted.phase_seed = 1
    c = generate_ground_truth_paths(shifted, 0)
    assert any(pa.gain != pc.gain for pa, pc in zip(a, c))


def test_los_angles_point_at_each_other():
    scene = _simple_scene()
    los = generate_ground_truth_paths(scene, 0)[0]
    rx = scene.receivers[0]
    u_aod = BORESIGHT_ALONG_X @ np.array(
        [np.cos(los.aod.elevation) * np.sin(los.aod.azimuth),
         np.sin(los.aod.elevation),
         np.cos(los.aod.elevation) * np.cos(los.aod.azimuth)]
    )
    expected = rx.position - scene.tx.position
    np.testing.assert_allclose(
        u_aod, expected / np.linalg.norm(expected), atol=1e-12
    )


def test_path_record_label_validation():
    with pytest.raises(ValueError):
        PathRecord(
            gain=1.0, delay=0.0,
            aoa=AnglePair(0.0, 0.0), aod=AnglePair(0.0, 0.0),
            label="bogus",
        )


# ---------------------------------------------------------------------------
# Scene-level validation
# ---------------------------------------------------------------------------


def test_extended_target_validation():
    with pytest.raises(ValueError):
        ExtendedTarget(0, np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        ExtendedTarget(0, np.zeros((2, 3)) + [[0, 0, 0], [7, 0, 0]], np.ones(2))
    with pytest.raises(ValueError):
        ExtendedTarget(0, np.array([[0.0, 0.0, 0.0]]), np.array([-1.0]))
    t = ExtendedTarget(0, np.array([[0, 0, 0], [1, 0, 0]], dtype=float), np.ones(2))
    assert t.extent() == pytest.approx(1.0)
    np.testing.assert_allclose(t.centroid(), [0.5, 0.0, 0.0])


@pytest.mark.parametrize(
    "points, reflectivities, message",
    [
        ([[30.0, 0.0, 1.0], [np.nan, 0.0, 1.0]], [1.0, 1.0], "scatter points must be finite"),
        ([[30.0, 0.0, 1.0], [31.0, np.inf, 1.0]], [1.0, 1.0], "scatter points must be finite"),
        ([[30.0, 0.0, 1.0], [31.0, 0.0, -np.inf]], [1.0, 1.0], "scatter points must be finite"),
        ([[30.0, 0.0, 1.0], [31.0, 0.0, 1.0]], [1.0, np.nan], "reflectivities must be finite"),
        ([[30.0, 0.0, 1.0]], [np.inf], "reflectivities must be finite"),
        (np.empty((0, 3)), np.empty(0), "a target needs at least one scatter point"),
        ([[30.0, 0.0, 1.0], [31.0, 0.0, 1.0]], [1.0], "one reflectivity per scatter point required"),
    ],
    ids=["nan-point", "inf-point", "minus-inf-point", "nan-reflectivity", "inf-reflectivity",
         "no-points", "one-reflectivity-too-few"],
)
def test_extended_target_refuses_non_finite_or_empty_input(points, reflectivities, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExtendedTarget(0, np.array(points, dtype=float), np.array(reflectivities, dtype=float))


def test_clutter_reflectivity_nonnegative():
    with pytest.raises(ValueError):
        ClutterPoint(position=[1.0, 2.0, 3.0], reflectivity=-0.1)


def test_scene_rejects_underground_receiver():
    with pytest.raises(ValueError):
        Scene(
            tx=TransmitterNode([0, 0, 14], UpaGeometry(2, 2, 0.01, 0.02)),
            receivers=[
                ReceiverNode(0, [40, 0, -1.0], BORESIGHT_ALONG_X.copy(), 0.0,
                             UpaGeometry(2, 2, 0.01, 0.02))
            ],
            targets=[],
            clutter=[],
        )


@pytest.mark.parametrize("offset", [np.nan, np.inf])
def test_receiver_refuses_a_non_finite_timing_offset(offset):
    with pytest.raises(ValueError, match="timing offset must be finite"):
        ReceiverNode(0, [40, 0, 1.0], BORESIGHT_ALONG_X.copy(), offset,
                     UpaGeometry(2, 2, 0.01, 0.02))


@pytest.mark.parametrize("speed", [0.0, -SPEED_OF_LIGHT])
def test_scene_refuses_a_speed_of_light_at_or_below_zero(speed):
    with pytest.raises(ValueError, match="speed of light must be positive"):
        Scene(tx=TransmitterNode([0, 0, 14], UpaGeometry(2, 2, 0.01, 0.02)), receivers=[],
              targets=[], clutter=[], speed_of_light=speed)


def test_scene_rejects_duplicate_ids_and_positions():
    geom = UpaGeometry(2, 2, 0.01, 0.02)
    rx = lambda i, pos: ReceiverNode(i, pos, BORESIGHT_ALONG_X.copy(), 0.0, geom)
    tx = TransmitterNode([0, 0, 14], geom)
    with pytest.raises(ValueError):
        Scene(tx=tx, receivers=[rx(0, [40, 0, 1]), rx(0, [30, 0, 1])], targets=[], clutter=[])
    with pytest.raises(ValueError):
        Scene(tx=tx, receivers=[rx(0, [40, 0, 1]), rx(1, [40, 0, 1])], targets=[], clutter=[])


GEOM = UpaGeometry(2, 2, 0.01, 0.02)
TX_AT = [0.0, 0.0, 14.0]


def _rx(i, pos):
    return ReceiverNode(i, pos, BORESIGHT_ALONG_X.copy(), 0.0, GEOM)


def _target(i, points):
    return ExtendedTarget(i, np.array(points, dtype=float), np.ones(len(points)))


def _scene_of(receivers=(), targets=(), clutter=()):
    return Scene(
        tx=TransmitterNode(TX_AT, GEOM),
        receivers=list(receivers),
        targets=list(targets),
        clutter=[ClutterPoint(p, 0.5) for p in clutter],
    )


@pytest.mark.parametrize(
    "parts",
    [
        # tx - rx
        dict(receivers=[_rx(0, [20, 0, 1]), _rx(1, TX_AT)]),
        # rx - rx, the last pair of receivers
        dict(receivers=[_rx(0, [20, 0, 1]), _rx(1, [30, 0, 1]), _rx(2, [30, 0, 1])]),
        # rx - target centroid
        dict(receivers=[_rx(0, [20, 0, 1])], targets=[_target(0, [[19, 0, 1], [21, 0, 1]])]),
        # target - clutter
        dict(receivers=[_rx(0, [20, 0, 1])], targets=[_target(0, [[50, 0, 1]])],
             clutter=[[10, 10, 2], [50, 0, 1]]),
        # clutter - clutter
        dict(receivers=[_rx(0, [20, 0, 1])], clutter=[[10, 10, 2], [10, 20, 2], [10, 10, 2]]),
    ],
    ids=["tx-rx", "rx-rx", "rx-target", "target-clutter", "clutter-clutter"],
)
def test_scene_refuses_a_repeated_position_of_any_kind(parts):
    with pytest.raises(ValueError, match="^node/target positions must be distinct$"):
        _scene_of(**parts)


def test_scene_distinctness_tolerance():
    # 1e-9 m + 1e-5 * |b| per axis: 1 cm apart at 50 m are two points ...
    _scene_of(receivers=[_rx(0, [20, 0, 1])], clutter=[[50, 0, 1], [50.01, 0, 1]])
    # ... 0.4 mm apart there are one
    with pytest.raises(ValueError, match="distinct"):
        _scene_of(receivers=[_rx(0, [20, 0, 1])], clutter=[[50, 0, 1], [50.0004, 0, 1]])
    # near the origin only the 1e-9 m floor is left
    _scene_of(receivers=[_rx(0, [1e-8, 0, 1]), _rx(1, [0, 0, 1])])
    with pytest.raises(ValueError, match="distinct"):
        _scene_of(receivers=[_rx(0, [0, 0, 1]), _rx(1, [5e-10, 0, 1])])


def test_paths_refuse_a_scatter_point_on_the_receiver_or_not_finite():
    at_rx = _scene_of(receivers=[_rx(0, [20, 0, 1])],
                      targets=[_target(0, [[30, 0, 1]]), _target(1, [[20, 0, 1], [22, 0, 1]])])
    # ExtendedTarget refuses a NaN point; one set after construction still
    # meets the path generator's own check
    spoiled = _target(0, [[30, 0, 1], [31, 0, 1]])
    spoiled.scatter_points = np.array([[30, 0, 1], [np.nan, 0, 1]])
    nan = _scene_of(receivers=[_rx(0, [20, 0, 1])], targets=[spoiled])
    # a point on the transmitter: its departure direction is the zero one,
    # and it is refused before a later NaN point
    at_tx = _scene_of(receivers=[_rx(0, [20, 0, 1])], targets=[_target(0, [TX_AT, [2, 0, 13]])])
    tx_then_nan = _target(0, [[30, 0, 1], [31, 0, 1], [32, 0, 1]])
    tx_then_nan.scatter_points = np.array([[30, 0, 1], TX_AT, [np.nan, 0, 1]])
    tx_first = _scene_of(receivers=[_rx(0, [20, 0, 1])], targets=[tx_then_nan])
    for scene, message in ((at_rx, "^zero direction vector$"),
                           (nan, "^vector components must be finite$"),
                           (at_tx, "^zero direction vector$"),
                           (tx_first, "^zero direction vector$")):
        with pytest.raises(ValueError, match=message):
            reference_ground_truth_paths(scene, 0)
        with pytest.raises(ValueError, match=message):
            generate_ground_truth_paths(scene, 0)


def test_scene_receiver_lookup():
    scene = _simple_scene()
    assert scene.receiver(0).node_id == 0
    with pytest.raises(KeyError):
        scene.receiver(5)


# ---------------------------------------------------------------------------
# Random scenes
# ---------------------------------------------------------------------------


def _desk_config(**overrides):
    kw = dict(
        tx_position=[0.0, 0.0, 14.0],
        tx_array=UpaGeometry(16, 16, 0.01, 0.02),
        rx_array=UpaGeometry(8, 8, 0.01, 0.02),
    )
    kw.update(overrides)
    return SceneConfig(**kw)


def _scene_json(scene: Scene) -> str:
    return json.dumps(asdict(scene), sort_keys=True, default=np.ndarray.tolist)


def test_random_scene_deterministic():
    cfg = _desk_config()
    a = _scene_json(random_scene(cfg, seed=42))
    b = _scene_json(random_scene(cfg, seed=42))
    assert a == b
    c = _scene_json(random_scene(cfg, seed=43))
    assert a != c


def test_random_scene_respects_boxes_and_separations():
    cfg = _desk_config()
    for seed in range(5):
        scene = random_scene(cfg, seed=seed)
        for rx in scene.receivers:
            assert np.all(rx.position >= cfg.ue_box[:, 0] - 1e-9)
            assert np.all(rx.position <= cfg.ue_box[:, 1] + 1e-9)
            assert abs(rx.timing_offset) <= cfg.to_range_s
        centers = [t.centroid() for t in scene.targets]
        for i, c in enumerate(centers):
            # extent offsets are mean-centered, so centroids stay in the box
            assert np.all(c >= cfg.target_box[:, 0] - cfg.target_extent_m)
            assert np.all(c <= cfg.target_box[:, 1] + cfg.target_extent_m)
            for j in range(i + 1, len(centers)):
                assert np.linalg.norm(c - centers[j]) >= cfg.target_min_separation_m
        everything = (
            [scene.tx.position]
            + [rx.position for rx in scene.receivers]
            + centers
            + [cl.position for cl in scene.clutter]
        )
        for i in range(len(everything)):
            for j in range(i + 1, len(everything)):
                assert np.linalg.norm(everything[i] - everything[j]) >= cfg.min_separation_m - 1e-9


def test_random_scene_clutter_outside_foi():
    cfg = _desk_config(num_clutter=6)
    for seed in range(3):
        scene = random_scene(cfg, seed=seed)
        for cl in scene.clutter:
            for rx in scene.receivers:
                u_local = rx.orientation.T @ (cl.position - rx.position)
                ang = angles_from_direction(fold_forward_rows(u_local[None])[0])
                assert not cfg.foi.contains(ang, cfg.foi_margin)


def test_random_scene_forced_in_foi_clutter():
    cfg = _desk_config(num_clutter=2, clutter_in_foi_fraction=1.0)
    scene = random_scene(cfg, seed=1)
    for cl in scene.clutter:
        hit = False
        for rx in scene.receivers:
            u_local = rx.orientation.T @ (cl.position - rx.position)
            ang = angles_from_direction(fold_forward_rows(u_local[None])[0])
            hit = hit or cfg.foi.contains(ang, -cfg.foi_margin)
        assert hit


@pytest.mark.parametrize("fraction", [-0.1, 1.5, np.nan])
def test_scene_config_refuses_a_clutter_fraction_outside_the_unit_interval(fraction):
    with pytest.raises(ValueError, match=r"clutter_in_foi_fraction must lie in \[0, 1\]"):
        _desk_config(clutter_in_foi_fraction=fraction)


def test_random_scene_infeasible_raises():
    for overrides, what in [
        (dict(num_receivers=8, ue_box=np.array([[15.0, 16.0], [-1.0, 1.0], [1.2, 1.3]])),
         "receiver"),
        (dict(num_targets=3, target_box=[[40.0, 45.0], [-2.0, 2.0], [0.5, 1.8]]), "target"),
        # no point of this clutter box lies outside every receiver's FoI
        (dict(clutter_box=[[45.0, 50.0], [-1.0, 1.0], [1.0, 2.0]]), "clutter"),
    ]:
        cfg = _desk_config(max_attempts=50, **overrides)
        with pytest.raises(SceneSamplingError) as err:
            random_scene(cfg, seed=0)
        assert str(err.value) == (f"could not place {what} after 50 attempts; "
                                  "check box sizes against separation constraints")


def _dense_config(**overrides):
    """Four receivers, five 5-point targets and eight clutter points, half of
    them inside the field of interest, in boxes wide enough to hold them."""
    kw = dict(
        num_receivers=4,
        num_targets=5,
        scatter_points_per_target=5,
        num_clutter=8,
        clutter_in_foi_fraction=0.5,
        ue_box=[[12.0, 28.0], [-8.0, 8.0], [1.2, 1.8]],
        target_box=[[40.0, 70.0], [-20.0, 20.0], [0.5, 1.8]],
    )
    kw.update(overrides)
    return _desk_config(**kw)


# sha256 of _scene_json(random_scene(config, seed)), recorded from the
# point-by-point sampler that the array version replaced
SCENE_DIGESTS = {
    ("desk", 0): "e481099c490cd18ad215a2c3e4554d837132ea7b1c0756e9e56901ed8acbfc3c",
    ("desk", 1): "882d427fac82c3ed2658f0b1a7409b9aad8f1d57993874db89b151eab4a26c3b",
    ("desk", 7): "4caebaaf84bbfefc42ac9fa5f3cc22f1da6dc734c9d86d96c9cd7f1c32fb6f86",
    ("dense", 0): "1710e66d3d7c4f6a64ecab534f06410524d394333b38725ddcd6fa747ad3712b",
    ("dense", 1): "3d711e0913e42225edab1708d77dc75b43179b1a4b4e2d1f210724b71c38a007",
    ("dense", 23): "fd60cc59d60a021ad1f99cd6e7157eb97f896efa6d065c014f60c286b4fad1f4",
}


@pytest.mark.parametrize("recipe, seed", sorted(SCENE_DIGESTS))
def test_random_scene_digest_is_pinned(recipe, seed):
    cfg = {"desk": _desk_config, "dense": _dense_config}[recipe]()
    digest = hashlib.sha256(_scene_json(random_scene(cfg, seed)).encode()).hexdigest()
    assert digest == SCENE_DIGESTS[recipe, seed]


@pytest.mark.parametrize(
    "config, seeds",
    [
        (_desk_config(), range(6)),
        (_dense_config(), range(4)),
        (_desk_config(target_extent_m=0.0), range(3)),
        (_dense_config(target_extent_m=0.0), range(2)),
        (_desk_config(num_targets=0, num_clutter=0), range(2)),
    ],
    ids=["desk", "dense", "desk-point-targets", "dense-point-targets", "no-scatterers"],
)
def test_ground_truth_paths_equal_the_point_by_point_reference(config, seeds):
    for seed in seeds:
        scene = random_scene(config, seed)
        for rx in scene.receivers:
            fast = generate_ground_truth_paths(scene, rx.node_id)
            slow = reference_ground_truth_paths(scene, rx.node_id)
            assert len(fast) == len(slow) == 1 + sum(
                len(t.scatter_points) for t in scene.targets) + len(scene.clutter)
            for f, r in zip(fast, slow):  # every field, exactly
                assert f == r
                assert type(f.delay) is type(r.delay) and type(f.gain) is type(r.gain)


def test_ground_truth_paths_of_tilted_receivers_equal_the_reference():
    rng = np.random.default_rng(3)
    receivers = []
    for i, pos in enumerate(([20, 0, 1], [25, -6, 1.5])):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        receivers.append(ReceiverNode(i, pos, q * np.sign(np.linalg.det(q)), 1e-8, GEOM))
    scene = _scene_of(
        receivers=receivers,
        targets=[_target(0, [[50, 1, 1], [50.5, 1.2, 0.8]]), _target(1, [[45, -9, 1.5]])],
        clutter=[[10, 20, 3], [30, -25, 8]],
    )
    scene.targets[1].reflectivities[:] = 0.7
    for rx in scene.receivers:
        assert generate_ground_truth_paths(scene, rx.node_id) == reference_ground_truth_paths(
            scene, rx.node_id)
    bare = _scene_of(receivers=receivers)
    assert generate_ground_truth_paths(bare, 1) == reference_ground_truth_paths(bare, 1)


def test_random_scene_clutter_on_a_receiver_fails_the_direction_check():
    # point boxes and no separation put the clutter candidate on the receiver,
    # whose direction to it is zero
    spot = [[20.0, 20.0], [0.0, 0.0], [1.5, 1.5]]
    cfg = _desk_config(num_receivers=1, num_targets=0, num_clutter=1, min_separation_m=0.0,
                       ue_box=spot, clutter_box=spot)
    with pytest.raises(ValueError, match="^zero direction vector$"):
        random_scene(cfg, seed=0)
