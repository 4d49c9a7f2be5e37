from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    los_measurement_from,
    path_measurement_from,
    random_well_conditioned_system,
    reference_solve_wls,
    wls_normal_equations,
)

from disacsim import fusion
from disacsim.fusion import (
    IllConditionedError,
    LinearSystem,
    LosMeasurement,
    PathMeasurement,
    UnderdeterminedError,
    UnknownLayout,
    build_joint_system,
    extract_estimate,
    run_fusion,
    solve_wls,
)
from disacsim.scene import SPEED_OF_LIGHT

P_BS = np.array([0.0, 0.0, 14.0])
UE_POS = {0: np.array([40.0, 5.0, 1.5]), 1: np.array([40.0, -5.0, 1.5])}
UE_DT = {0: 31e-9, 1: -14e-9}
SCATTER = {0: np.array([20.0, 3.0, 1.0]), 1: np.array([25.0, -4.0, 1.2])}


def exact_path(m, n, path_index=None, weight=None):
    return path_measurement_from(
        P_BS, UE_POS[n], SCATTER[m], UE_DT[n], SPEED_OF_LIGHT, ue_id=n,
        path_index=m if path_index is None else path_index,
        weight=1.0 + 0.3 * n + 0.1 * m if weight is None else weight,
    )


def exact_inputs(ue_ids=(0, 1), target_ids=(0, 1)):
    clusters = {m: [exact_path(m, n) for n in ue_ids] for m in target_ids}
    los = {
        n: los_measurement_from(P_BS, UE_POS[n], UE_DT[n], SPEED_OF_LIGHT, ue_id=n)
        for n in ue_ids
    }
    return clusters, los


# ---------------------------------------------------------------------------
# Layout and system shape
# ---------------------------------------------------------------------------


def test_layout_column_order():
    layout = UnknownLayout.build([2, 1], {(1, 0), (1, 5), (2, 5)}, [5, 0])
    assert list(layout.range_cols.items()) == [(1, 0), (2, 1)]
    assert layout.pair_cols == {(1, 0): 2, (1, 5): 3, (2, 5): 4}
    assert list(layout.offset_cols.items()) == [(0, 5), (5, 6)]
    assert layout.position_cols == {0: 7, 5: 10}
    assert layout.los_range_cols == {0: 13, 5: 14}
    assert layout.labels[1] == "r[target 2]" and layout.labels[3] == "d[target 1, receiver 5]"
    assert layout.labels[6] == "c*dt[receiver 5]" and layout.labels[9] == "p_z[receiver 0]"
    assert layout.labels[14] == "r_los[receiver 5]" and len(layout.labels) == 15


def test_system_shape_two_by_two():
    clusters, los = exact_inputs()
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    assert system.matrix.shape == (24, 16)
    assert system.rhs.shape == (24,)
    assert system.weights.shape == (24,)


def test_system_shape_minimal():
    clusters, los = exact_inputs(ue_ids=(0,), target_ids=(0,))
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    assert system.matrix.shape == (8, 7)


def test_build_requires_los():
    with pytest.raises(ValueError):
        build_joint_system({}, {}, P_BS, SPEED_OF_LIGHT)


def test_build_no_informative_receivers():
    _, los = exact_inputs()
    with pytest.raises(UnderdeterminedError) as exc:
        build_joint_system({}, los, P_BS, SPEED_OF_LIGHT)
    assert str(exc.value).startswith("8 rows < 10 unknowns")
    assert "timing-offset/LoS block" in str(exc.value)


def test_build_excludes_receiver_without_paths():
    clusters, los = exact_inputs()
    # receiver 1 lost all its cluster associations
    clusters = {m: [meas for meas in ms if meas.ue_id != 1] for m, ms in clusters.items()}
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    assert list(system.layout.offset_cols) == [0]
    est = run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT)
    assert sorted(est.ue_positions) == [0]


def test_build_row_order():
    # targets ascending, receivers ascending within a target, and each
    # receiver's paths in input order (not sorted by weight or delay)
    _, los = exact_inputs()
    clusters = {
        1: [exact_path(1, 1, 0, 5.0), exact_path(1, 0, 1, 4.0),
            exact_path(1, 1, 2, 2.0), exact_path(1, 0, 3, 3.0)],
        0: [exact_path(0, 1, 4, 7.0), exact_path(0, 0, 5, 6.0)],
    }
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    layout = system.layout
    np.testing.assert_array_equal(system.weights[:24:4], [6.0, 7.0, 4.0, 3.0, 5.0, 2.0])
    pairs = [(0, 0), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)]
    for k, (m, n) in enumerate(pairs):
        delay_row = system.matrix[4 * k + 3]
        assert delay_row[layout.range_cols[m]] == 1.0
        assert delay_row[layout.pair_cols[(m, n)]] == 1.0
        assert delay_row[layout.offset_cols[n]] == 1.0
    for k, n in enumerate((0, 1)):  # then the LoS rows, receivers ascending
        assert system.matrix[24 + 4 * k, layout.position_cols[n]] == 1.0


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def test_solve_wls_identity():
    b = np.array([3.0, -1.0, 2.0])
    x, residual = solve_wls(np.eye(3), b, np.ones(3))
    np.testing.assert_allclose(x, b, atol=1e-12)
    assert residual < 1e-12


def test_solve_wls_matches_normal_equations():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, w = random_well_conditioned_system(rng, 30, 16)
        x, _ = solve_wls(a, b, w)
        x_ne = wls_normal_equations(a, b, w)
        assert np.linalg.norm(x - x_ne) <= 1e-9 * (1.0 + np.linalg.norm(x_ne))


def test_solve_wls_weight_scale_invariance():
    rng = np.random.default_rng(6)
    a, b, w = random_well_conditioned_system(rng, 12, 5)
    x1, r1 = solve_wls(a, b, w)
    x2, r2 = solve_wls(a, b, 7.0 * w)
    np.testing.assert_allclose(x1, x2, atol=1e-10)
    assert r2 == pytest.approx(np.sqrt(7.0) * r1, rel=1e-9)


def test_solve_wls_floors_zero_weight_rows():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 100.0])
    x, _ = solve_wls(a, b, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-6)


def test_solve_wls_rejects_degenerate_systems():
    with pytest.raises(ValueError):
        solve_wls(np.eye(3), np.zeros(3), np.zeros(3))
    with pytest.raises(UnderdeterminedError):
        solve_wls(np.zeros((2, 3)), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        solve_wls(np.eye(3), np.zeros(2), np.ones(3))


def test_solve_wls_rejects_negative_weights():
    # a negative weight is an error, not a row floored to 1e-12 of the largest
    with pytest.raises(ValueError, match="nonnegative"):
        solve_wls(np.eye(3), np.zeros(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        solve_wls(np.eye(3), np.zeros(3), -np.ones(3))
    with pytest.raises(ValueError, match="dimensions"):
        solve_wls(np.zeros((8, 7)), np.zeros(7), np.zeros(8))


def test_solve_wls_duplicate_column():
    rng = np.random.default_rng(9)
    a, b, _ = random_well_conditioned_system(rng, 10, 4)
    a = np.column_stack([a, a[:, 1]])
    with pytest.raises(IllConditionedError) as exc:
        solve_wls(a, b, np.ones(10))
    assert exc.value.dependent_column in (1, 4)
    # refused as the dense SVD refuses it, also with the copy filed as a
    # block's local unknown
    with pytest.raises(IllConditionedError) as expected:
        reference_solve_wls(a, b, np.ones(10))
    with pytest.raises(IllConditionedError) as blocked:
        solve_wls(a, b, np.ones(10), [(range(0, 10), (4,))])
    for refusal in (exc, blocked):
        assert str(refusal.value) == str(expected.value)
        assert refusal.value.dependent_column == expected.value.dependent_column


def test_solve_wls_duplicated_rows_keep_solution():
    rng = np.random.default_rng(10)
    a, b, _ = random_well_conditioned_system(rng, 8, 3)
    x1, _ = solve_wls(a, b, np.ones(8))
    a2 = np.vstack([a, a[2]])
    b2 = np.append(b, b[2])
    # duplicating a row is the same as doubling its weight
    w = np.ones(9)
    x2, _ = solve_wls(a2, b2, w)
    w3 = np.ones(8)
    w3[2] = 2.0
    x3, _ = solve_wls(a, b, w3)
    np.testing.assert_allclose(x2, x3, atol=1e-10)
    assert not np.allclose(x1, x3, atol=1e-14) or np.allclose(a @ x1, b, atol=1e-12)


def test_build_records_each_targets_rows_and_local_columns():
    _, los = exact_inputs()
    clusters = {
        4: [exact_path(1, 1, 0), exact_path(1, 0, 1), exact_path(1, 1, 2)],
        2: [exact_path(0, 0, 3)],
    }
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    layout = system.layout
    assert system.blocks == [
        (range(0, 4), (layout.range_cols[2], layout.pair_cols[(2, 0)])),
        (range(4, 16), (layout.range_cols[4], layout.pair_cols[(4, 0)], layout.pair_cols[(4, 1)])),
    ]
    # a block's rows touch only its own local columns and the receiver columns
    receiver_cols = set(range(layout.offset_cols[0], len(layout.labels)))
    for rows, cols in system.blocks:
        touched = set(np.flatnonzero(np.any(system.matrix[rows.start : rows.stop] != 0.0, axis=0)))
        assert touched <= set(cols) | receiver_cols


def random_clusters(n_rx, targets, seed, degenerate=None):
    """Noisy measurements of a random scene: targets[m] lists the receiver
    of each of target m's paths, so repeats share that receiver's d_{m,n}.
    For the target numbered degenerate every u_v is set to its u_bs, as for
    a direct path filed as a reflection, so its r and d columns are dependent."""
    rng = np.random.default_rng(seed)
    ue = {n: np.array([rng.uniform(10, 30), rng.uniform(-15, 15), rng.uniform(1, 2)])
          for n in range(n_rx)}
    dt = {n: rng.uniform(-50e-9, 50e-9) for n in range(n_rx)}
    clusters = {}
    for m, receivers in enumerate(targets):
        centre = np.array([rng.uniform(35, 60), rng.uniform(-20, 20), rng.uniform(0.5, 2)])
        paths = []
        for k, n in enumerate(receivers):
            scatter = centre + rng.uniform(-1.0, 1.0, 3)
            meas = path_measurement_from(
                P_BS, ue[n], scatter, dt[n], SPEED_OF_LIGHT, ue_id=n, path_index=k,
                weight=rng.uniform(0.1, 3.0),
            )
            u_bs = meas.u_bs + rng.normal(0.0, 2e-3, 3)
            u_v = u_bs if m == degenerate else meas.u_v + rng.normal(0.0, 2e-3, 3)
            paths.append(replace(meas, u_bs=u_bs, u_v=u_v,
                                 delay=meas.delay + rng.normal(0.0, 0.3e-9)))
        clusters[10 * m + 3] = paths
    los = {n: replace(los_measurement_from(P_BS, ue[n], dt[n], SPEED_OF_LIGHT, ue_id=n),
                      weight=rng.uniform(0.5, 3.0)) for n in range(n_rx)}
    return clusters, los


@st.composite
def cluster_layouts(draw):
    n_rx = draw(st.integers(1, 4))
    paths = st.lists(st.integers(0, n_rx - 1), min_size=1, max_size=5)
    targets = draw(st.lists(paths, min_size=1, max_size=6))
    return n_rx, targets, draw(st.integers(0, 2**32 - 1))


def assert_solves_alike(system, weights):
    """solve_wls over the system's blocks gives the dense SVD's solution,
    or raises its refusal word for word."""
    try:
        expected = reference_solve_wls(system.matrix, system.rhs, weights)
    except IllConditionedError as exc:
        with pytest.raises(IllConditionedError) as ours:
            solve_wls(system.matrix, system.rhs, weights, system.blocks)
        assert str(ours.value) == str(exc)
        assert ours.value.dependent_column == exc.dependent_column
        return False
    with pytest.MonkeyPatch.context() as patch:  # accepted by the bound, not the SVD
        patch.setattr(fusion, "_solve_by_svd", None)
        x, residual = solve_wls(system.matrix, system.rhs, weights, system.blocks)
    x_ref, residual_ref = expected
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert residual == pytest.approx(residual_ref, rel=1e-10, abs=1e-12)
    return True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cluster_layouts(), st.sampled_from(["wls", "ls"]))
@example((1, [[0]] * 8, 7), "wls")  # the single-receiver system: singletons only
@example((1, [[0, 0, 0]] * 3, 8), "wls")  # several paths of one receiver share d_{m,n}
@example((4, [[0, 1, 2, 3, 1]] * 5, 9), "ls")
def test_block_solve_matches_the_dense_svd(layout, weighting):
    clusters, los = random_clusters(*layout)
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    weights = system.weights if weighting == "wls" else np.ones_like(system.weights)
    assert assert_solves_alike(system, weights)
    # without blocks the same call is the fully dense case of the same solver
    x, _ = solve_wls(system.matrix, system.rhs, weights)
    x_ref, _ = reference_solve_wls(system.matrix, system.rhs, weights)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cluster_layouts(), st.data())
def test_block_solve_refuses_what_the_dense_svd_refuses(layout, data):
    n_rx, targets, seed = layout
    degenerate = data.draw(st.integers(0, len(targets) - 1))
    clusters, los = random_clusters(n_rx, targets, seed, degenerate)
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    assert not assert_solves_alike(system, system.weights)


def _coupled(scale):
    # the local column 0 is nearly a multiple of the shared column 1: the
    # local and the reduced triangles are mildly conditioned, and only the
    # coupling between them brings cond(A^T W A) to 2e12 (1.25e11 at 2e-3)
    return np.array([[scale, 1.0, 0.0], [0.0, 1e-3, 0.0], [0.0, 0.0, 0.0],
                     [0.0, 1e-3, 0.0], [0.0, 0.0, 1.0]]), [(range(0, 3), (0,))]


def _local_pair(gap):
    # two local columns that differ by gap and touch no shared column:
    # cond(A^T W A) is 1.6e13 at 1e-6 and 6.25e10 at 1.6e-5
    return np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + gap, 0.0], [0.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), [(range(0, 3), (0, 1))]


@pytest.mark.parametrize("matrix, blocks, refused", [
    (*_coupled(5e-4), True), (*_coupled(2e-3), False),
    (*_local_pair(1e-6), True), (*_local_pair(1.6e-5), False),
], ids=["coupled-refused", "coupled-accepted", "local-refused", "local-accepted"])
def test_a_near_dependence_is_decided_as_before(matrix, blocks, refused):
    b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    system = LinearSystem(matrix, b, np.ones(5), UnknownLayout(), blocks)
    assert assert_solves_alike(system, system.weights) is not refused


def test_a_direct_path_filed_as_a_reflection_is_refused_as_before():
    # the LoS pick landed on a reflection: the true direct path becomes a
    # singleton cluster with u_v = u_bs (its r and d columns coincide), and
    # the reflection serves as the direct path
    ue = UE_POS[0]
    direct = los_measurement_from(P_BS, ue, UE_DT[0], SPEED_OF_LIGHT, ue_id=0)
    picked = exact_path(0, 0, path_index=1)
    filed = PathMeasurement(ue_id=0, path_index=0, u_bs=direct.u_los, u_v=direct.u_los,
                            delay=direct.delay, weight=direct.weight)
    clusters = {0: [filed], 1: [picked], 2: [exact_path(1, 0, path_index=2)]}
    los = {0: LosMeasurement(ue_id=0, u_los=picked.u_bs, delay=picked.delay,
                             weight=picked.weight)}
    system = build_joint_system(clusters, los, P_BS, SPEED_OF_LIGHT)
    with pytest.raises(IllConditionedError) as expected:
        reference_solve_wls(system.matrix, system.rhs, system.weights)
    assert expected.value.dependent_column in (system.layout.range_cols[0],
                                               system.layout.pair_cols[(0, 0)])
    assert not assert_solves_alike(system, system.weights)
    with pytest.raises(IllConditionedError) as fused:
        run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT)
    label = system.layout.labels[expected.value.dependent_column]
    assert str(fused.value) == f"{expected.value} ({label})"


# ---------------------------------------------------------------------------
# End-to-end fusion
# ---------------------------------------------------------------------------


def test_fusion_noiseless_round_trip():
    clusters, los = exact_inputs()
    est = run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT)
    for n in (0, 1):
        assert np.linalg.norm(est.ue_positions[n] - UE_POS[n]) < 1e-6
        assert abs(est.ue_timing_offsets[n] - UE_DT[n]) < 1e-12
    for m in (0, 1):
        assert np.linalg.norm(est.target_points[m] - SCATTER[m]) < 1e-6
        assert np.linalg.norm(est.target_points[m] - P_BS) == pytest.approx(
            np.linalg.norm(SCATTER[m] - P_BS), abs=1e-6
        )
    assert est.excluded_targets == {}
    assert est.residual < 1e-6


def test_fusion_zero_offset_stays_zero():
    clusters = {
        0: [path_measurement_from(P_BS, UE_POS[0], SCATTER[0], 0.0, SPEED_OF_LIGHT, ue_id=0)]
    }
    los = {0: los_measurement_from(P_BS, UE_POS[0], 0.0, SPEED_OF_LIGHT, ue_id=0)}
    est = run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT)
    assert abs(est.ue_timing_offsets[0]) < 1e-12
    # cluster of one: the representative direction is the single u_bs
    assert np.linalg.norm(est.target_points[0] - SCATTER[0]) < 1e-6


def test_fusion_weighting_invariance_on_exact_data():
    clusters, los = exact_inputs()
    wls = run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT, weighting="wls")
    ls = run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT, weighting="ls")
    for n in (0, 1):
        np.testing.assert_allclose(wls.ue_positions[n], ls.ue_positions[n], atol=1e-9)
    with pytest.raises(ValueError):
        run_fusion(clusters, los, P_BS, SPEED_OF_LIGHT, weighting="ridge")


def test_extract_estimate_negative_range_excluded():
    layout = UnknownLayout.build([0], {(0, 0)}, [0])
    clusters = {
        0: [path_measurement_from(P_BS, UE_POS[0], SCATTER[0], 0.0, SPEED_OF_LIGHT, ue_id=0)]
    }
    x = np.zeros(len(layout.labels))
    x[layout.range_cols[0]] = -3.2
    est = extract_estimate(x, layout, clusters, P_BS, SPEED_OF_LIGHT, 0.0)
    assert est.excluded_targets == {0: "negative transmitter range -3.200 m"}
    assert est.target_points == {}


def test_extract_estimate_degenerate_direction():
    layout = UnknownLayout.build([0], {(0, 0)}, [0])
    u = np.array([1.0, 0.0, 0.0])
    mk = lambda sign: PathMeasurement(
        ue_id=0, path_index=0, u_bs=sign * u, u_v=np.array([0.0, 0.0, -1.0]),
        delay=100e-9, weight=1.0,
    )
    clusters = {0: [mk(1.0), mk(-1.0)]}
    x = np.zeros(len(layout.labels))
    x[layout.range_cols[0]] = 2.0
    est = extract_estimate(x, layout, clusters, P_BS, SPEED_OF_LIGHT, 0.0)
    assert est.excluded_targets == {0: "degenerate direction average"}
