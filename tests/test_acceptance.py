"""Acceptance gate: end-to-end checks with fixed tolerances.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
captured output is shown for failures either way).
"""

import time

import numpy as np
import pytest

from oracles import (
    brute_dbscan_partition,
    exact_paths,
    labels_to_partition,
    random_well_conditioned_system,
    wls_normal_equations,
)

from disacsim.estimator import AlsOptions, estimate_paths
from disacsim.fusion import run_fusion, solve_wls
from disacsim.geometry import AnglePair, FoiBounds, angles_from_cosines
from disacsim.harness import default_scenario, run_montecarlo, wrap_timing_offset
from disacsim.pipeline import (
    build_associations,
    clutter_filter,
    dbscan,
    identify_los,
    localize_single,
)
from disacsim.scene import (
    LABEL_LOS,
    SPEED_OF_LIGHT,
    PathRecord,
    UpaGeometry,
    random_scene,
)
from disacsim.waveform import (
    BeamCodebook,
    CodebookSet,
    MeasurementTensor,
    OfdmConfig,
    beamspace_noise,
    dft_codebook,
    expected_noise_energy,
    tensor_from_paths,
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Noiseless oracle round trip through the full geometric chain
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_round_trip():
    cfg = default_scenario(
        scene={"num_clutter": 0, "target_extent_m": 0.0, "scatter_points_per_target": 1}
    )
    period = cfg.ofdm.delay_period
    res_delay = cfg.ofdm.delay_resolution
    worst_ue = worst_to = worst_tgt = 0.0
    t0 = time.perf_counter()
    for seed in range(100):
        scene = random_scene(cfg.scene, seed)
        results = []
        for rx in scene.receivers:
            paths = exact_paths(scene, rx.node_id)
            idx, _ = identify_los(paths, res_delay)
            results.append(
                localize_single(
                    paths, idx, rx.node_id, rx.orientation,
                    scene.tx.position, SPEED_OF_LIGHT,
                )
            )
        clusters, _, _ = build_associations(results, eps=2.0, min_points=2)
        los = {r.ue_id: r.los for r in results}
        est = run_fusion(clusters, los, scene.tx.position, SPEED_OF_LIGHT)
        for rx in scene.receivers:
            worst_ue = max(
                worst_ue,
                float(np.linalg.norm(est.ue_positions[rx.node_id] - rx.position)),
            )
            worst_to = max(
                worst_to,
                abs(wrap_timing_offset(
                    est.ue_timing_offsets[rx.node_id] - rx.timing_offset, period
                )),
            )
        cents = np.stack([t.scatter_points.mean(axis=0) for t in scene.targets])
        assert len(est.target_points) == len(scene.targets)
        for p in est.target_points.values():
            worst_tgt = max(
                worst_tgt, float(np.min(np.linalg.norm(cents - p, axis=1)))
            )
    elapsed = time.perf_counter() - t0
    ok = worst_ue <= 1e-6 and worst_tgt <= 1e-6 and worst_to <= 1e-12 and elapsed < 10.0
    report(1, ok, f"worst ue {worst_ue:.2e} m, to {worst_to:.2e} s, "
                  f"target {worst_tgt:.2e} m over 100 scenes in {elapsed:.2f} s")
    assert ok


# ---------------------------------------------------------------------------
# 2. Tensor decomposition recovery at operating scale
# ---------------------------------------------------------------------------

RX_LATTICE = np.array([-0.6, -0.2, 0.2, 0.6])
TXAZ_LATTICE = np.array([-0.25, 0.0, 0.25, 0.5])
TXEL_LATTICE = np.array([0.25, 0.375, 0.5, 0.625])
TAU_LATTICE = np.array([60e-9, 160e-9, 260e-9, 360e-9])


def test_criterion_2_cpd_recovery():
    from scipy.optimize import linear_sum_assignment

    rx_geom = UpaGeometry(8, 8, 0.01, 0.02)
    tx_geom = UpaGeometry(16, 16, 0.01, 0.02)
    books = CodebookSet(
        rx_el=dft_codebook(8, 8, "rx_el"),
        rx_az=dft_codebook(8, 8, "rx_az"),
        tx_el=dft_codebook(16, 4, "tx_el", first_beam=11),
        tx_az=dft_codebook(16, 8, "tx_az"),
        rx_geom=rx_geom,
        tx_geom=tx_geom,
    )
    ofdm = OfdmConfig()
    unit_energy = expected_noise_energy(books, ofdm, 1.0)
    deg = np.degrees
    hits = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(key=[seed, 11]))
        ux_rx = rng.permutation(RX_LATTICE) + rng.uniform(-0.02, 0.02, 4)
        uy_rx = rng.permutation(RX_LATTICE) + rng.uniform(-0.02, 0.02, 4)
        ux_tx = rng.permutation(TXAZ_LATTICE) + rng.uniform(-0.02, 0.02, 4)
        uy_tx = rng.permutation(TXEL_LATTICE) + rng.uniform(-0.02, 0.02, 4)
        taus = rng.permutation(TAU_LATTICE) + rng.uniform(-10e-9, 10e-9, 4)
        amps = rng.uniform(0.7, 1.5, 4)
        phases = rng.uniform(0.0, 1.0, 4)
        gains = amps * np.exp(2j * np.pi * phases)
        paths = []
        for i in range(4):
            aoa, _ = angles_from_cosines(ux_rx[i], uy_rx[i])
            aod, _ = angles_from_cosines(ux_tx[i], uy_tx[i])
            paths.append(PathRecord(gain=1.0, delay=taus[i], aoa=aoa, aod=aod,
                                    label=LABEL_LOS))
        sig = tensor_from_paths(paths, books, ofdm, gains=gains)
        var = float(np.vdot(sig, sig).real) / (unit_energy * 1.0e3)  # 30 dB
        noise_rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
        tensor = MeasurementTensor(
            data=sig + beamspace_noise(books, ofdm, var, noise_rng),
            codebooks=books, ofdm=ofdm, noise_var=var,
        )
        est = estimate_paths(
            tensor, rank=4,
            opts=AlsOptions(restarts=5, max_sweeps=300, seed=seed),
        )
        cost = np.abs(
            np.subtract.outer([e.delay for e in est], [p.delay for p in paths])
        )
        ri, ci = linear_sum_assignment(cost)
        good = True
        for i, j in zip(ri, ci):
            e, p = est[i], paths[j]
            ang = max(
                abs(deg(e.aoa.azimuth - p.aoa.azimuth)),
                abs(deg(e.aoa.elevation - p.aoa.elevation)),
                abs(deg(e.aod.azimuth - p.aod.azimuth)),
                abs(deg(e.aod.elevation - p.aod.elevation)),
            )
            if ang >= 1.0 or abs(e.delay - p.delay) >= 1e-9:
                good = False
        hits += good
    ok = hits >= 95
    report(2, ok, f"{hits}/100 seeds recovered all four paths within 1 deg / 1 ns")
    assert ok


# ---------------------------------------------------------------------------
# 3. Beamspace noise covariance structure
# ---------------------------------------------------------------------------


def test_criterion_3_noise_covariance():
    rx_geom = UpaGeometry(2, 2, 0.01, 0.02)
    tx_geom = UpaGeometry(1, 1, 0.01, 0.02)
    m_el = np.array([[1.0, 1.0], [1.0, 1.0j]], dtype=complex)  # non-orthogonal
    books = CodebookSet(
        rx_el=BeamCodebook(matrix=m_el, axis="rx_el", beam_indices=(0, 1)),
        rx_az=dft_codebook(2, 2, "rx_az"),
        tx_el=dft_codebook(1, 1, "tx_el"),
        tx_az=dft_codebook(1, 1, "tx_az"),
        rx_geom=rx_geom,
        tx_geom=tx_geom,
    )
    ofdm = OfdmConfig(num_subcarriers=2)
    var = 2.0
    g_el = m_el.conj().T @ m_el
    g_az = books.rx_az.matrix.conj().T @ books.rx_az.matrix
    expected = var * np.kron(np.eye(2), np.kron(g_az, g_el))
    rng = np.random.Generator(np.random.Philox(key=[0, 1]))
    n = 10_000
    draws = np.stack(
        [beamspace_noise(books, ofdm, var, rng).ravel(order="F") for _ in range(n)]
    )
    sample = draws.T @ draws.conj() / n
    rel = float(np.linalg.norm(sample - expected) / np.linalg.norm(expected))
    ok = rel <= 0.05
    report(3, ok, f"sample covariance off by {rel:.4f} relative Frobenius ({n} draws)")
    assert ok


# ---------------------------------------------------------------------------
# 4. Clustering equals its brute-force definition
# ---------------------------------------------------------------------------


def test_criterion_4_dbscan_brute_force():
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(0, 21))
        pts = rng.uniform(0.0, 10.0, size=(n, 3))
        eps = float(rng.uniform(0.5, 3.0))
        mp = int(rng.integers(1, 5))
        labels = dbscan(pts, eps=eps, min_points=mp)
        if labels_to_partition(labels) != brute_dbscan_partition(pts, eps, mp):
            mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"{mismatches} mismatches against the brute-force oracle in 1000 runs")
    assert ok


# ---------------------------------------------------------------------------
# 5. Weighted solver against the normal equations
# ---------------------------------------------------------------------------


def test_criterion_5_wls_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a, b, w = random_well_conditioned_system(rng, 30, 16)
        x, _ = solve_wls(a, b, w)
        x_ne = wls_normal_equations(a, b, w)
        worst = max(worst, float(np.linalg.norm(x - x_ne) / (1.0 + np.linalg.norm(x_ne))))
    ok = worst <= 1e-9
    report(5, ok, f"worst relative gap to the normal equations {worst:.2e} over 100 systems")
    assert ok


# ---------------------------------------------------------------------------
# 6 + 7. Monte Carlo sweep: cooperation gain and absolute accuracy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_sweep():
    cfg = default_scenario(
        trials=50, modes=["disac", "disac-ls", "isac:0", "isac:1"]
    )
    t0 = time.perf_counter()
    mc = run_montecarlo(cfg)
    elapsed = time.perf_counter() - t0
    return mc, elapsed


def _detections(outcome):
    if outcome is None or outcome.failure is not None:
        return 0
    return sum(outcome.target_detected.values())


def test_criterion_6_cooperation_beats_single_link(desk_sweep):
    mc, elapsed = desk_sweep
    from disacsim.harness import percentile

    problems = []

    # (a) on targets detected by both, the joint mode is at least as good
    for isac in ("isac:0", "isac:1"):
        joint, single = [], []
        for tr in mc.trials:
            a, b = tr.outcomes.get("disac"), tr.outcomes.get(isac)
            if a is None or b is None or a.failure or b.failure:
                continue
            for tid, err in a.target_errors.items():
                if b.target_detected.get(tid) and tid in b.target_errors:
                    joint.append(err)
                    single.append(b.target_errors[tid])
        if not joint:
            problems.append(f"no commonly detected targets with {isac}")
        elif percentile(joint, 0.5) > percentile(single, 0.5):
            problems.append(
                f"median vs {isac}: {percentile(joint, 0.5):.3f} > {percentile(single, 0.5):.3f}"
            )

    # (b) the joint mode never detects fewer targets in any trial
    for tr in mc.trials:
        d = _detections(tr.outcomes.get("disac"))
        for isac in ("isac:0", "isac:1"):
            if d < _detections(tr.outcomes.get(isac)):
                problems.append(f"trial {tr.trial}: disac {d} < {isac}")

    # (c) gain weighting does not hurt
    summary = mc.summary()
    wls_med = summary["disac"]["ue_error_median_m"]
    ls_med = summary["disac-ls"]["ue_error_median_m"]
    if wls_med is None or ls_med is None or wls_med > ls_med:
        problems.append(f"wls median {wls_med} > ls median {ls_med}")

    if elapsed >= 600.0:
        problems.append(f"sweep took {elapsed:.0f} s")

    ok = not problems
    report(6, ok, "; ".join(problems) if problems else
           f"50 trials in {elapsed:.0f} s, wls {wls_med:.3f} m <= ls {ls_med:.3f} m")
    assert ok, problems


def test_criterion_7_absolute_accuracy(desk_sweep):
    mc, _ = desk_sweep
    summary = mc.summary()["disac"]
    ue = summary["ue_error_median_m"]
    tgt = summary["target_error_median_m"]
    ok = ue is not None and tgt is not None and ue < 0.5 and tgt < 0.5
    report(7, ok, f"disac medians: ue {ue} m, target {tgt} m (bound 0.5 m)")
    assert ok


# ---------------------------------------------------------------------------
# 8. Field-of-interest filter semantics
# ---------------------------------------------------------------------------


def test_criterion_8_clutter_filter_contract():
    foi = FoiBounds(azimuth=np.radians(60.0), elevation=np.radians(30.0))

    def mk(az_deg, el_deg):
        return PathRecord(
            gain=1.0, delay=100e-9,
            aoa=AnglePair(np.radians(az_deg), np.radians(el_deg)),
            aod=AnglePair(0.0, 0.0), label=LABEL_LOS,
        )

    from disacsim.estimator import EstimatedPath

    def est(p):
        return EstimatedPath(gain=p.gain, delay=p.delay, aoa=p.aoa, aod=p.aod)

    boundary = [
        est(mk(60.0, 0.0)), est(mk(-60.0, 30.0)), est(mk(0.0, -30.0)),
        est(mk(60.0, 30.0)),
    ]
    closed = clutter_filter(boundary, foi) == [0, 1, 2, 3]
    outside = clutter_filter([est(mk(60.0001, 0.0)), est(mk(0.0, 30.0001))], foi) == []

    rng = np.random.default_rng(3)
    idem = True
    for _ in range(50):
        paths = [
            est(mk(float(rng.uniform(-90, 90)), float(rng.uniform(-90, 90))))
            for _ in range(20)
        ]
        kept = clutter_filter(paths, foi)
        again = clutter_filter([paths[i] for i in kept], foi)
        idem = idem and again == list(range(len(kept)))

    ok = closed and outside and idem
    report(8, ok, f"closed bounds {closed}, strict outside {outside}, idempotent {idem}")
    assert ok
