import numpy as np
import pytest

from oracles import (
    los_measurement_from,
    path_measurement_from,
    random_well_conditioned_system,
    wls_normal_equations,
)

from disacsim.fusion import (
    IllConditionedError,
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
