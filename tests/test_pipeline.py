import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    brute_dbscan_partition,
    consistent_reflection,
    exact_los_path,
    exact_paths,
    labels_to_partition,
)

from disacsim.estimator import EstimatedPath
from disacsim.harness import default_scenario
from disacsim.geometry import (
    BORESIGHT_ALONG_X,
    AnglePair,
    FoiBounds,
    angles_from_direction,
    direction_from_angles,
)
from disacsim.pipeline import (
    NOISE_LABEL,
    LocalizationError,
    LosIdentificationError,
    build_associations,
    clutter_filter,
    dbscan,
    identify_los,
    localize_single,
    path_directions,
    process_receiver,
    unwrap_delays,
)
from disacsim.scene import (
    SPEED_OF_LIGHT,
    ClutterPoint,
    ExtendedTarget,
    ReceiverNode,
    Scene,
    TransmitterNode,
    UpaGeometry,
    random_scene,
)
from disacsim.waveform import OfdmConfig

ANG = AnglePair(0.1, 0.2)
PERIOD = 640e-9  # 64 subcarriers at 1.5625 MHz


def path(gain=1.0, delay=100e-9, aoa=ANG, aod=ANG):
    return EstimatedPath(gain=gain, delay=delay, aoa=aoa, aod=aod)


# ---------------------------------------------------------------------------
# Delay unwrapping and direct-path identification
# ---------------------------------------------------------------------------


def test_unwrap_restores_wrapped_delay():
    # true delays 500 ns and 650 ns; the second aliases to 10 ns
    paths = [path(gain=3.0, delay=500e-9), path(gain=1.0, delay=10e-9)]
    out = unwrap_delays(paths, PERIOD)
    assert out[0].delay == pytest.approx(500e-9, abs=1e-15)
    assert out[1].delay == pytest.approx(650e-9, abs=1e-15)
    # inputs untouched
    assert paths[1].delay == 10e-9


def test_unwrap_keeps_slightly_early_paths():
    paths = [path(gain=3.0, delay=500e-9), path(gain=1.0, delay=490e-9)]
    out = unwrap_delays(paths, PERIOD)
    assert out[1].delay == pytest.approx(490e-9, abs=1e-15)


def test_unwrap_rejects_bad_period():
    with pytest.raises(ValueError):
        unwrap_delays([path()], 0.0)


def test_identify_los_min_delay_among_strong():
    paths = [
        path(gain=3.0, delay=100e-9),
        path(gain=1.0, delay=200e-9),
        path(gain=0.5, delay=50e-9),
    ]
    idx, ambiguous = identify_los(paths, 10e-9)
    assert idx == 0 and not ambiguous


def test_identify_los_threshold_is_inclusive():
    # lower-quartile threshold on gains {1,2,3,4} is 3; the gain-3 path
    # must count as a candidate and win on delay
    paths = [
        path(gain=1.0, delay=400e-9),
        path(gain=2.0, delay=300e-9),
        path(gain=3.0, delay=50e-9),
        path(gain=4.0, delay=200e-9),
    ]
    idx, ambiguous = identify_los(paths, 10e-9)
    assert idx == 2 and not ambiguous


def test_identify_los_flags_near_tie():
    paths = [
        path(gain=3.0, delay=100e-9),
        path(gain=3.0, delay=104e-9),
        path(gain=0.1, delay=50e-9),
    ]
    idx, ambiguous = identify_los(paths, 10e-9)
    assert idx == 0 and ambiguous


def test_identify_los_empty():
    with pytest.raises(LosIdentificationError):
        identify_los([], 10e-9)


# ---------------------------------------------------------------------------
# Field-of-interest filter
# ---------------------------------------------------------------------------


def test_clutter_filter_boundary_and_exemption():
    foi = FoiBounds(azimuth=np.radians(60.0), elevation=np.radians(30.0))
    paths = [
        path(aoa=AnglePair(np.radians(70.0), 0.0)),  # outside, but direct
        path(aoa=AnglePair(np.radians(60.0), np.radians(-30.0))),  # on the edge
        path(aoa=AnglePair(np.radians(61.0), 0.0)),  # outside
        path(aoa=AnglePair(0.0, 0.0)),
    ]
    kept = clutter_filter(paths, foi, los_index=0)
    assert kept == [0, 1, 3]
    assert clutter_filter(paths, foi, los_index=None) == [1, 3]


def test_clutter_filter_idempotent():
    foi = FoiBounds(azimuth=np.radians(60.0), elevation=np.radians(30.0))
    rng = np.random.default_rng(0)
    paths = [
        path(aoa=AnglePair(rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2)))
        for _ in range(30)
    ]
    kept = clutter_filter(paths, foi)
    again = clutter_filter([paths[i] for i in kept], foi)
    assert again == list(range(len(kept)))


# ---------------------------------------------------------------------------
# Single-receiver localization
# ---------------------------------------------------------------------------


def _two_target_scene(to=37e-9):
    tx = TransmitterNode(position=[0.0, 0.0, 14.0], array=UpaGeometry(4, 4, 0.01, 0.02))
    rx = ReceiverNode(
        node_id=0,
        position=[40.0, 2.0, 1.4],
        orientation=BORESIGHT_ALONG_X.copy(),
        timing_offset=to,
        array=UpaGeometry(2, 2, 0.01, 0.02),
    )
    targets = [
        ExtendedTarget(0, np.array([[20.0, 10.0, 1.0]]), np.array([0.9])),
        ExtendedTarget(1, np.array([[25.0, -8.0, 1.2]]), np.array([0.8])),
    ]
    clutter = [ClutterPoint(position=[10.0, 6.0, 2.0], reflectivity=0.5)]
    return Scene(tx=tx, receivers=[rx], targets=targets, clutter=clutter)


def test_localize_single_noiseless_round_trip():
    scene = _two_target_scene()
    paths = exact_paths(scene, 0)
    idx, ambiguous = identify_los(paths, 10e-9)
    assert idx == 0 and not ambiguous
    res = localize_single(
        paths, idx, 0, scene.receivers[0].orientation, scene.tx.position, SPEED_OF_LIGHT
    )
    est = res.estimate
    truth = np.asarray(scene.receivers[0].position, dtype=float)
    assert np.linalg.norm(est.ue_positions[0] - truth) < 1e-6
    assert abs(est.ue_timing_offsets[0] - 37e-9) < 1e-12
    assert res.ue_id == 0 and res.los.ue_id == 0
    assert est.excluded_targets == {}
    scatters = np.array([[20.0, 10.0, 1.0], [25.0, -8.0, 1.2], [10.0, 6.0, 2.0]])
    assert len(est.target_points) == 3
    for point in est.target_points.values():
        gaps = np.linalg.norm(scatters - point, axis=1)
        assert gaps.min() < 1e-6


def test_localize_single_requires_reflection():
    scene = _two_target_scene()
    los = exact_paths(scene, 0)[:1]
    with pytest.raises(LocalizationError):
        localize_single(
            los, 0, 0, scene.receivers[0].orientation, scene.tx.position, SPEED_OF_LIGHT
        )


def test_localize_single_bad_los_index():
    scene = _two_target_scene()
    paths = exact_paths(scene, 0)
    with pytest.raises(LocalizationError):
        localize_single(
            paths, len(paths), 0, scene.receivers[0].orientation,
            scene.tx.position, SPEED_OF_LIGHT,
        )


def test_localize_single_ill_conditioned_names_receiver():
    scene = _two_target_scene()
    rot = scene.receivers[0].orientation
    paths = exact_paths(scene, 0)
    # arrival angles that make u_v equal u_bs: the r and d columns of the
    # path coincide, so its two ranges cannot be told apart
    u_bs, _ = path_directions(paths[1], rot)
    aoa = angles_from_direction(-(rot.T @ u_bs))
    paths[1] = EstimatedPath(
        gain=paths[1].gain, delay=paths[1].delay, aoa=aoa, aod=paths[1].aod
    )
    np.testing.assert_allclose(path_directions(paths[1], rot)[1], u_bs, atol=1e-12)
    with pytest.raises(LocalizationError, match=r"^receiver 7: .*condition") as exc:
        localize_single(paths, 0, 7, rot, scene.tx.position, SPEED_OF_LIGHT)
    # each path is its own target cluster: the message names path 1's unknown
    assert re.search(r"\((r|d)\[target 1\b[^)]*\]\)$", str(exc.value)), str(exc.value)


def test_localize_single_ls_equals_equal_weights():
    scene = _two_target_scene()
    paths = exact_paths(scene, 0)
    # make the system slightly inconsistent so weighting matters
    paths[2] = EstimatedPath(
        gain=paths[2].gain, delay=paths[2].delay + 1e-9,
        aoa=paths[2].aoa, aod=paths[2].aod,
    )
    args = (0, scene.receivers[0].orientation, scene.tx.position, SPEED_OF_LIGHT)
    res_ls = localize_single(paths, 0, *args, weighting="ls")
    flat = [
        EstimatedPath(gain=0.7, delay=p.delay, aoa=p.aoa, aod=p.aod) for p in paths
    ]
    res_eq = localize_single(flat, 0, *args, weighting="wls")
    ls, eq = res_ls.estimate, res_eq.estimate
    np.testing.assert_allclose(ls.ue_positions[0], eq.ue_positions[0], atol=1e-9)
    assert ls.ue_timing_offsets[0] == pytest.approx(eq.ue_timing_offsets[0], abs=1e-15)
    with pytest.raises(ValueError):
        localize_single(paths, 0, *args, weighting="ridge")


def test_localize_single_drops_negative_range():
    p_bs = np.array([0.0, 0.0, 14.0])
    p_ue = np.array([40.0, 0.0, 1.0])
    rot = BORESIGHT_ALONG_X.copy()
    dt = 25e-9
    s = np.array([20.0, 3.0, 2.0])
    r_vec = s - p_bs
    good = consistent_reflection(
        p_bs, p_ue, rot, float(np.linalg.norm(r_vec)),
        float(np.linalg.norm(p_ue - s)), dt,
        r_vec / np.linalg.norm(r_vec), SPEED_OF_LIGHT,
    )
    u_back = np.array([-1.0, 0.2, 0.1])
    u_back /= np.linalg.norm(u_back)
    d_rx = float(np.linalg.norm(p_ue - p_bs + 12.0 * u_back))
    bad = consistent_reflection(
        p_bs, p_ue, rot, -12.0, d_rx, dt, u_back, SPEED_OF_LIGHT
    )
    paths = [exact_los_path(p_bs, p_ue, dt, SPEED_OF_LIGHT), good, bad]
    res = localize_single(paths, 0, 0, rot, p_bs, SPEED_OF_LIGHT)
    est = res.estimate
    assert est.excluded_targets == {2: "negative transmitter range -12.000 m"}
    assert list(est.target_points) == [1]
    assert np.linalg.norm(est.ue_positions[0] - p_ue) < 1e-6
    assert abs(est.ue_timing_offsets[0] - dt) < 1e-12
    # the dropped path is never pooled, so it joins no cluster
    clusters, labels, pooled = build_associations([res], eps=2.0, min_points=1)
    assert [m.path_index for m in pooled] == [1] and labels.tolist() == [0]
    assert all(m.path_index != 2 for ms in clusters.values() for m in ms)


def test_path_directions_frames():
    u = np.array([1.0, 2.0, 0.5])
    u /= np.linalg.norm(u)
    aod = angles_from_direction(BORESIGHT_ALONG_X.T @ u)
    aoa = AnglePair(0.3, -0.2)
    p = path(aoa=aoa, aod=aod)
    rot = BORESIGHT_ALONG_X.copy()
    u_bs, u_v = path_directions(p, rot)
    np.testing.assert_allclose(u_bs, u, atol=1e-12)
    np.testing.assert_allclose(u_v, -(rot @ direction_from_angles(aoa)), atol=1e-12)
    assert np.linalg.norm(u_v) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Stages 1-4 for one receiver
# ---------------------------------------------------------------------------


def test_process_receiver_labels_the_failing_stage():
    scene = _two_target_scene()
    foi = FoiBounds(azimuth=np.radians(60.0), elevation=np.radians(30.0))
    args = (0, scene, OfdmConfig(), foi, ["ls", "wls"])
    assert process_receiver([], *args) == ({}, "pipeline: no paths to choose a direct path from")
    results, reason = process_receiver(exact_paths(scene, 0)[:1], *args)
    assert results == {}
    assert reason.startswith("localization: no reflection paths: ")


def test_process_receiver_matches_the_stage_calls():
    cfg = default_scenario()
    scene = random_scene(cfg.scene, 0)
    rx = scene.receiver(0)
    period = cfg.ofdm.delay_period
    paths = [replace(p, delay=p.delay % period) for p in exact_paths(scene, 0)]
    results, reason = process_receiver(
        paths, 0, scene, cfg.ofdm, cfg.scene.foi, ["ls", "wls"]
    )
    assert reason is None and sorted(results) == ["ls", "wls"]

    unwrapped = unwrap_delays(paths, period)
    los, _ = identify_los(unwrapped, cfg.ofdm.delay_resolution)
    kept = clutter_filter(unwrapped, cfg.scene.foi, los_index=los)
    for w, res in results.items():
        direct = localize_single(
            [unwrapped[i] for i in kept], kept.index(los), ue_id=0,
            rx_orientation=rx.orientation, p_bs=scene.tx.position,
            speed_of_light=scene.speed_of_light, weighting=w,
        )
        records = zip([res.los, *res.measurements], [direct.los, *direct.measurements])
        for got, want in records:
            for key, value in vars(want).items():
                np.testing.assert_array_equal(getattr(got, key), value)
        assert len(res.measurements) == len(direct.measurements)
        est, ref = res.estimate, direct.estimate
        np.testing.assert_array_equal(est.ue_positions[0], ref.ue_positions[0])
        assert est.ue_timing_offsets == ref.ue_timing_offsets
        assert est.residual == ref.residual
        assert est.target_points.keys() == ref.target_points.keys()
        for m, point in est.target_points.items():
            np.testing.assert_array_equal(point, ref.target_points[m])


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def test_dbscan_cluster_plus_noise():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [50.0, 50.0]])
    labels = dbscan(pts, eps=2.0, min_points=2)
    np.testing.assert_array_equal(labels, [0, 0, 0, NOISE_LABEL])


def test_dbscan_identical_points():
    pts = np.zeros((5, 3))
    labels = dbscan(pts, eps=0.1, min_points=3)
    np.testing.assert_array_equal(labels, np.zeros(5, dtype=int))


def test_dbscan_min_points_one_has_no_noise():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 100.0, size=(12, 3))
    labels = dbscan(pts, eps=0.5, min_points=1)
    assert NOISE_LABEL not in labels


def test_dbscan_empty_and_validation():
    assert dbscan(np.zeros((0, 3)), eps=1.0, min_points=2).size == 0
    with pytest.raises(ValueError):
        dbscan(np.zeros(4), eps=1.0, min_points=2)
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 2)), eps=0.0, min_points=2)
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 2)), eps=1.0, min_points=0)
    # an empty point set does not excuse bad parameters
    for eps, min_points in [(-1.0, 0), (0.0, 2), (1.0, 0)]:
        with pytest.raises(ValueError, match="eps must be positive"):
            dbscan(np.empty((0, 3)), eps=eps, min_points=min_points)


def test_dbscan_border_tie_takes_lower_label():
    pts = np.array(
        [
            [-2.0, 0.0], [-2.0, 1.0], [-2.0, -1.0],
            [2.0, 0.0], [2.0, 1.0], [2.0, -1.0],
            [0.0, 0.0],  # equidistant border point
        ]
    )
    labels = dbscan(pts, eps=2.0, min_points=4)
    np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1, 0])


def test_dbscan_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 20))
        pts = rng.uniform(0.0, 10.0, size=(n, 3))
        eps = float(rng.uniform(0.5, 3.0))
        mp = int(rng.integers(1, 5))
        labels = dbscan(pts, eps=eps, min_points=mp)
        assert labels_to_partition(labels) == brute_dbscan_partition(pts, eps, mp)


def test_dbscan_partition_is_permutation_invariant():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 10.0, size=(15, 3))
    base = dbscan(pts, eps=2.0, min_points=2)
    perm = rng.permutation(15)
    shuffled = dbscan(pts[perm], eps=2.0, min_points=2)

    def as_sets(points, labels):
        groups = {}
        for p, lab in zip(points, labels):
            if lab != NOISE_LABEL:
                groups.setdefault(lab, set()).add(tuple(p))
        return {frozenset(g) for g in groups.values()}

    assert as_sets(pts, base) == as_sets(pts[perm], shuffled)


# ---------------------------------------------------------------------------
# Cross-receiver association
# ---------------------------------------------------------------------------


def test_build_associations_two_targets_two_receivers():
    tx = TransmitterNode(position=[0.0, 0.0, 14.0], array=UpaGeometry(4, 4, 0.01, 0.02))
    rx_specs = [(0, [40.0, 5.0, 1.5], 31e-9), (1, [40.0, -5.0, 1.5], -14e-9)]
    targets = [
        ExtendedTarget(0, np.array([[20.0, 3.0, 1.0]]), np.array([0.9])),
        ExtendedTarget(1, np.array([[25.0, -4.0, 1.2]]), np.array([0.8])),
    ]
    results = []
    for node_id, pos, to in rx_specs:
        rx = ReceiverNode(
            node_id=node_id, position=pos, orientation=BORESIGHT_ALONG_X.copy(),
            timing_offset=to, array=UpaGeometry(2, 2, 0.01, 0.02),
        )
        scene = Scene(tx=tx, receivers=[rx], targets=targets, clutter=[])
        paths = exact_paths(scene, node_id)
        idx, _ = identify_los(paths, 10e-9)
        results.append(
            localize_single(paths, idx, node_id, rx.orientation, tx.position, SPEED_OF_LIGHT)
        )

    clusters, labels, pooled = build_associations(results, eps=2.0, min_points=2)
    assert len(pooled) == 4
    np.testing.assert_array_equal(labels, [0, 1, 0, 1])
    assert sorted(clusters) == [0, 1]
    for label in (0, 1):
        assert [m.ue_id for m in clusters[label]] == [0, 1]


def test_build_associations_empty():
    clusters, labels, pooled = build_associations([], eps=2.0, min_points=2)
    assert clusters == {} and labels.size == 0 and pooled == []
