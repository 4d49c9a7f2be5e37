import json
from dataclasses import asdict

import numpy as np
import pytest

from oracles import path_delay

from disacsim.geometry import (
    BORESIGHT_ALONG_X,
    AnglePair,
    FoiBounds,
    angles_from_direction,
    fold_forward,
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


def test_scene_rejects_duplicate_ids_and_positions():
    geom = UpaGeometry(2, 2, 0.01, 0.02)
    rx = lambda i, pos: ReceiverNode(i, pos, BORESIGHT_ALONG_X.copy(), 0.0, geom)
    tx = TransmitterNode([0, 0, 14], geom)
    with pytest.raises(ValueError):
        Scene(tx=tx, receivers=[rx(0, [40, 0, 1]), rx(0, [30, 0, 1])], targets=[], clutter=[])
    with pytest.raises(ValueError):
        Scene(tx=tx, receivers=[rx(0, [40, 0, 1]), rx(1, [40, 0, 1])], targets=[], clutter=[])


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
                ang = angles_from_direction(fold_forward(u_local))
                assert not cfg.foi.contains(ang, cfg.foi_margin)


def test_random_scene_forced_in_foi_clutter():
    cfg = _desk_config(num_clutter=2, clutter_in_foi_fraction=1.0)
    scene = random_scene(cfg, seed=1)
    for cl in scene.clutter:
        hit = False
        for rx in scene.receivers:
            u_local = rx.orientation.T @ (cl.position - rx.position)
            ang = angles_from_direction(fold_forward(u_local))
            hit = hit or cfg.foi.contains(ang, -cfg.foi_margin)
        assert hit


def test_random_scene_infeasible_raises():
    cfg = _desk_config(
        num_receivers=8,
        ue_box=np.array([[15.0, 16.0], [-1.0, 1.0], [1.2, 1.3]]),
        max_attempts=50,
    )
    with pytest.raises(SceneSamplingError):
        random_scene(cfg, seed=0)

