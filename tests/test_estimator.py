from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from disacsim import estimator
from disacsim.estimator import (
    DEFAULT_MAX_RANK,
    AlsOptions,
    CpFactors,
    RankDeficiencyError,
    _update_mode,
    cpd_als,
    estimate_paths,
    extract_angle,
    extract_delay,
    select_model_order,
)
from disacsim.geometry import AnglePair, angles_from_cosines, direction_cosines
from disacsim.harness import default_scenario, receiver_seed
from disacsim.scene import LABEL_LOS, PathRecord, UpaGeometry, random_scene
from disacsim.waveform import (
    CodebookSet,
    MeasurementTensor,
    OfdmConfig,
    beam_response,
    beamspace_noise,
    dft_codebook,
    expected_noise_energy,
    path_beam_factors,
    phase_ramp,
    rank_one_sum,
    synthesize_tensor,
    tensor_from_paths,
)
from oracles import (
    reference_als,
    reference_extract_angle,
    reference_model_order,
    svd_model_order,
    unfolding_gram,
)

RX_GEOM = UpaGeometry(4, 4, 0.01, 0.02)
TX_GEOM = UpaGeometry(8, 8, 0.01, 0.02)


def make_books():
    return CodebookSet(
        rx_el=dft_codebook(4, 4, "rx_el"),
        rx_az=dft_codebook(4, 4, "rx_az"),
        tx_el=dft_codebook(8, 8, "tx_el"),
        tx_az=dft_codebook(8, 8, "tx_az"),
        rx_geom=RX_GEOM,
        tx_geom=TX_GEOM,
    )


def make_paths(count):
    """Well-separated planted paths (angles on distinct beam cells)."""
    ux_rx = [-0.3, 0.0, 0.3, 0.6]
    uy_rx = [0.3, -0.3, 0.6, 0.0]
    ux_tx = [-0.5, -0.25, 0.25, 0.5]
    uy_tx = [0.25, 0.5, -0.25, -0.5]
    taus = [50e-9, 150e-9, 250e-9, 350e-9]
    paths = []
    for i in range(count):
        aoa, _ = angles_from_cosines(ux_rx[i], uy_rx[i])
        aod, _ = angles_from_cosines(ux_tx[i], uy_tx[i])
        paths.append(
            PathRecord(gain=1.0, delay=taus[i], aoa=aoa, aod=aod, label=LABEL_LOS)
        )
    return paths


def planted_tensor(count, gains, noise_var=0.0, noise_seed=0):
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    sig = tensor_from_paths(make_paths(count), books, ofdm, gains=np.asarray(gains))
    data = sig
    if noise_var > 0.0:
        rng = np.random.Generator(np.random.Philox(key=[noise_seed, 1]))
        data = sig + beamspace_noise(books, ofdm, noise_var, rng)
    return MeasurementTensor(data=data, codebooks=books, ofdm=ofdm, noise_var=noise_var), sig


def snr_noise_var(sig, snr_db):
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    unit = expected_noise_energy(books, ofdm, 1.0)
    return float(np.vdot(sig, sig).real) / (unit * 10.0 ** (snr_db / 10.0))


# ---------------------------------------------------------------------------
# CPD core
# ---------------------------------------------------------------------------


def test_cpd_rank_one_exact():
    tensor, _ = planted_tensor(1, [1.3 - 0.4j])
    cp = cpd_als(tensor, 1, AlsOptions(restarts=1, seed=0))
    norm = np.linalg.norm(tensor.data)
    assert cp.residual <= 1e-10 * norm
    # for a rank-1 tensor the single gain carries the whole norm
    assert abs(cp.gains[0]) == pytest.approx(norm, rel=1e-8)
    truth = [f / np.linalg.norm(f) for f in path_beam_factors(
        make_paths(1)[0], make_books(), OfdmConfig(num_subcarriers=32))]
    for m in range(5):
        assert abs(np.vdot(cp.factors[m][:, 0], truth[m])) == pytest.approx(1.0, abs=1e-8)


def reconstruct(cp: CpFactors) -> np.ndarray:
    """The tensor the CPD models: sum_l gain_l a_l o b_l o c_l o d_l o e_l."""
    return rank_one_sum(cp.gains, [f.T for f in cp.factors])


def test_cpd_reconstruct_consistency():
    tensor, _ = planted_tensor(2, [1.0, 0.5 + 0.5j])
    cp = cpd_als(tensor, 2, AlsOptions(restarts=2, seed=0))
    recon = reconstruct(cp)
    assert recon.shape == tensor.data.shape
    assert np.linalg.norm(tensor.data - recon) == pytest.approx(cp.residual, abs=1e-9)
    # every column has unit norm and its largest-magnitude entry real positive
    for f in cp.factors:
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, rtol=1e-12)
        pivots = f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])]
        assert np.all(pivots.real > 0.0) and np.all(np.abs(pivots.imag) <= 1e-15)


def test_cpd_residual_history_monotone():
    gains = np.array([1.0, 0.8, 0.9]) * np.exp(2j * np.pi * np.array([0.2, 0.7, 0.4]))
    tensor, sig = planted_tensor(3, gains)
    var = snr_noise_var(sig, 20.0)
    noisy, _ = planted_tensor(3, gains, noise_var=var, noise_seed=2)
    cp = cpd_als(noisy, 3, AlsOptions(restarts=1, seed=0))
    hist = np.array(cp.residual_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) <= 1e-9 * hist[:-1] + 1e-12 * np.linalg.norm(noisy.data))


def test_cpd_zero_tensor():
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    zero = MeasurementTensor(
        data=np.zeros(books.beam_shape + (32,), dtype=complex), codebooks=books, ofdm=ofdm
    )
    cp = cpd_als(zero, 3)
    assert cp.residual == 0.0
    np.testing.assert_array_equal(cp.gains, np.zeros(3, dtype=complex))
    assert cp.residual_history == [] and cp.sweeps == 0


def test_als_options_reject_empty_runs():
    with pytest.raises(ValueError, match="max_sweeps"):
        AlsOptions(max_sweeps=0)
    with pytest.raises(ValueError, match="restarts"):
        AlsOptions(restarts=0)


def test_cpd_rank_validation():
    tensor, _ = planted_tensor(1, [1.0])
    with pytest.raises(ValueError):
        cpd_als(tensor, 0)


def test_cpd_overfit_rank_is_detected():
    # fitting rank 2 to an exactly rank-1 tensor must fail loudly, not
    # return a spurious second component
    tensor, _ = planted_tensor(1, [1.0])
    with pytest.raises(RankDeficiencyError):
        cpd_als(tensor, 2, AlsOptions(restarts=1, seed=0))
    # with several restarts stacked, the first singular Gram still raises
    with pytest.raises(RankDeficiencyError, match="restart"):
        cpd_als(tensor, 2, AlsOptions(restarts=3, seed=0))


@pytest.mark.parametrize("bad_value", [0.0, np.nan])
def test_a_singular_gram_in_one_restart_names_it(bad_value):
    # stack entry 1 (restart 6) gets a zero or NaN column in mode c, so only
    # its mode-a Gram product is singular or non-finite
    rng = np.random.default_rng(0)
    factors = [
        rng.standard_normal((2, n, 3)) + 1j * rng.standard_normal((2, n, 3))
        for n in (4, 4, 8, 8, 32)
    ]
    factors[2][1, :, 0] = bad_value
    grams = [f.swapaxes(-1, -2).conj() @ f for f in factors]
    v = rng.standard_normal((2, 4, 3)) + 0j
    with pytest.raises(RankDeficiencyError, match="restart 6: mode-0"):
        _update_mode(factors, grams, 0, v, np.array([5, 6]))


def test_cpd_four_components_at_30db():
    gains = np.array([1.2, 0.9, 1.1, 0.8]) * np.exp(
        2j * np.pi * np.array([0.1, 0.6, 0.3, 0.9])
    )
    _, sig = planted_tensor(4, gains)
    var = snr_noise_var(sig, 30.0)
    noisy, _ = planted_tensor(4, gains, noise_var=var, noise_seed=4)
    cp = cpd_als(noisy, 4, AlsOptions(restarts=3, seed=0))

    from scipy.optimize import linear_sum_assignment

    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    truth = []
    for p in make_paths(4):
        fs = path_beam_factors(p, books, ofdm)
        truth.append([f / np.linalg.norm(f) for f in fs])
    score = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            score[i, j] = min(
                abs(np.vdot(cp.factors[m][:, i], truth[j][m])) for m in range(5)
            )
    ri, ci = linear_sum_assignment(-score)
    assert score[ri, ci].min() > 0.99


def noisy_rank_three(snr_db=20.0):
    gains = np.array([1.0, 0.8, 0.9]) * np.exp(2j * np.pi * np.array([0.2, 0.7, 0.4]))
    _, sig = planted_tensor(3, gains)
    noisy, _ = planted_tensor(3, gains, noise_var=snr_noise_var(sig, snr_db), noise_seed=2)
    return noisy


def test_cpd_reports_how_it_stopped():
    exact, _ = planted_tensor(1, [1.3 - 0.4j])
    cp = cpd_als(exact, 1, AlsOptions(restarts=1, seed=0))
    assert cp.converged is True
    assert cp.sweeps == len(cp.residual_history) < AlsOptions().max_sweeps
    capped = cpd_als(noisy_rank_three(), 3, AlsOptions(max_sweeps=2, restarts=2, seed=0))
    assert capped.converged is False and capped.sweeps == 2
    books = make_books()
    zero = np.zeros(books.beam_shape + (32,), dtype=complex)
    cp = cpd_als(zero, 2)
    assert cp.sweeps == 0 and cp.converged is True


@pytest.mark.parametrize("seed", range(8))
def test_cpd_matches_the_reference_als(seed):
    # these starts end both at the noise floor (4-10 sweeps) and in
    # swamps near 0.58 ||T|| (up to 47 sweeps)
    noisy = noisy_rank_three()
    opts = AlsOptions(restarts=1, seed=seed)
    cp = cpd_als(noisy, 3, opts)
    factors, history = reference_als(noisy.data, 3, seed, opts.max_sweeps, estimator.REL_TOL)
    assert cp.sweeps == len(history)
    np.testing.assert_allclose(cp.residual_history, history, rtol=1e-9, atol=0.0)
    for got, ref in zip(cp.factors, factors):
        for l in range(3):
            col = ref[:, l] / np.linalg.norm(ref[:, l])
            turn = np.vdot(col, got[:, l])
            assert np.max(np.abs(got[:, l] - col * turn / abs(turn))) <= 1e-8


def best_run_index(cp, runs, norm):
    """Index of the (history, converged) run that cp reproduces; it must be
    one with the smallest final residual, and runs within 1e-9 of that
    reach the same fit, so which of them is smallest is roundoff."""
    floor = min(history[-1] for history, _ in runs)
    assert cp.residual == pytest.approx(floor, rel=1e-9)
    matches = [
        r
        for r, (history, converged) in enumerate(runs)
        if history[-1] <= floor * (1.0 + 1e-9)
        and len(history) == cp.sweeps
        and converged == cp.converged
        and np.allclose(cp.residual_history, history, rtol=1e-9, atol=1e-12 * norm)
    ]
    assert matches
    return matches[0]


def test_stacked_restarts_match_the_reference_als():
    # restarts 0-7 of this tensor stop at different sweeps: 3, 5, 6 and 7 at
    # the noise floor after 4-10, the others in swamps after 13-47 sweeps
    noisy = noisy_rank_three()
    norm = np.linalg.norm(noisy.data)
    opts = AlsOptions(restarts=8, seed=0)
    cp = cpd_als(noisy, 3, opts)
    runs = []
    for r in range(opts.restarts):
        _, history = reference_als(noisy.data, 3, opts.seed + r, opts.max_sweeps, estimator.REL_TOL)
        runs.append((history, len(history) < opts.max_sweeps))
    assert sorted({len(history) for history, _ in runs}) == [4, 7, 10, 13, 25, 34, 47]
    assert best_run_index(cp, runs, norm) in (3, 5, 6, 7)


@pytest.mark.parametrize("seed, restarts", [(0, 3), (2, 4)])
def test_stacked_restarts_are_the_best_single_restart(seed, restarts):
    noisy = noisy_rank_three()
    norm = np.linalg.norm(noisy.data)
    cp = cpd_als(noisy, 3, AlsOptions(restarts=restarts, seed=seed))
    singles = [
        cpd_als(noisy, 3, AlsOptions(restarts=1, seed=seed + r)) for r in range(restarts)
    ]
    single = singles[best_run_index(cp, [(s.residual_history, s.converged) for s in singles], norm)]
    for got, want in zip(cp.factors, single.factors):
        assert np.max(np.abs(got - want)) <= 1e-9
    assert np.max(np.abs(cp.gains - single.gains)) <= 1e-9 * norm


def noise_floor(tensor):
    return np.sqrt(expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var))


def count_sweeps(monkeypatch):
    """Stacked sweeps of the next cpd_als calls: one mode-e update each."""
    sweeps = []
    update = estimator._update_mode

    def counted(factors, grams, mode, v, restarts):
        if mode == 4:
            sweeps.append(len(restarts))
        return update(factors, grams, mode, v, restarts)

    monkeypatch.setattr(estimator, "_update_mode", counted)
    return sweeps


def test_a_restart_converged_at_the_noise_floor_ends_the_call(monkeypatch):
    # restarts 3 and 5 both converge at the floor after 4 sweeps and the
    # lowest wins; without the rule the stack runs to restart 4's 47th sweep
    noisy = noisy_rank_three()
    sweeps = count_sweeps(monkeypatch)
    cp = cpd_als(noisy, 3, AlsOptions(restarts=8, seed=0))
    assert len(sweeps) == 4 and cp.sweeps == 4 and cp.converged
    assert cp.residual <= estimator.FLOOR_MARGIN * noise_floor(noisy)
    solo = cpd_als(noisy, 3, AlsOptions(restarts=1, seed=3))
    np.testing.assert_allclose(cp.residual_history, solo.residual_history, rtol=1e-9, atol=0.0)
    for got, want in zip(cp.factors, solo.factors):
        assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize(
    "rank, noise_var, max_sweeps, sweeps",
    [(2, None, 300, 5), (3, 0.0, 300, 47), (3, None, 3, 3)],
    ids=["underfit", "noiseless_metadata", "sweep_cap"],
)
def test_without_a_converged_restart_at_the_floor_the_smallest_residual_wins(
        monkeypatch, rank, noise_var, max_sweeps, sweeps):
    # an underfit stays above the floor; the other two reach it, but a
    # tensor that claims no noise has no floor and a restart stopped by the
    # sweep cap has not converged. Each result is the one with no floor, the
    # smallest residual over every restart
    noisy = noisy_rank_three()
    floor = estimator.FLOOR_MARGIN * noise_floor(noisy)
    if noise_var is not None:
        noisy = replace(noisy, noise_var=noise_var)
    opts = AlsOptions(max_sweeps=max_sweeps, restarts=8, seed=0)
    counted = count_sweeps(monkeypatch)
    cp = cpd_als(noisy, rank, opts)
    assert len(counted) == sweeps
    assert (cp.residual <= floor) == (rank == 3)
    raw = cpd_als(replace(noisy, noise_var=0.0), rank, opts)
    assert cp.residual_history == raw.residual_history
    assert all(np.array_equal(got, want) for got, want in zip(cp.factors, raw.factors))
    assert np.array_equal(cp.gains, raw.gains)


def lattice_tensor(key):
    """The lattice workload's tensor ``key`` and its planted paths: acceptance
    criterion 2's four paths, jittered about a lattice of direction cosines
    and delays, at 30 dB."""
    books = lattice_books()
    ofdm = OfdmConfig()
    rng = np.random.default_rng([*key, 11])
    cosines = [
        rng.permutation(np.array(lattice)) + rng.uniform(-0.02, 0.02, 4)
        for lattice in ([-0.6, -0.2, 0.2, 0.6], [-0.6, -0.2, 0.2, 0.6],
                        [-0.25, 0.0, 0.25, 0.5], [0.25, 0.375, 0.5, 0.625])
    ]
    taus = rng.permutation(np.array([60e-9, 160e-9, 260e-9, 360e-9])) + rng.uniform(-10e-9, 10e-9, 4)
    gains = rng.uniform(0.7, 1.5, 4) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 4))
    paths = [
        PathRecord(gain=1.0, delay=tau, aoa=angles_from_cosines(ux_rx, uy_rx)[0],
                   aod=angles_from_cosines(ux_tx, uy_tx)[0], label=LABEL_LOS)
        for ux_rx, uy_rx, ux_tx, uy_tx, tau in zip(*cosines, taus)
    ]
    sig = tensor_from_paths(paths, books, ofdm, gains=gains)
    var = float(np.vdot(sig, sig).real) / (expected_noise_energy(books, ofdm, 1.0) * 1.0e3)
    noise = beamspace_noise(books, ofdm, var, np.random.default_rng([*key, 1]))
    return MeasurementTensor(data=sig + noise, codebooks=books, ofdm=ofdm, noise_var=var), paths


def test_the_noise_floor_fit_is_the_best_single_restart_on_a_lattice_tensor():
    # seed 1's item 1 stops after 4 stacked sweeps on restart 3; restarts 0,
    # 1 and 4 end in swamps, and restart 2 holds the smallest residual
    tensor, _ = lattice_tensor((1, 1))
    norm = np.linalg.norm(tensor.data)
    cp = cpd_als(tensor, 4, AlsOptions(restarts=5, seed=1001))
    singles = [cpd_als(tensor, 4, AlsOptions(restarts=1, seed=1001 + r)) for r in range(5)]
    assert cp.sweeps == 4 and cp.residual_history == singles[3].residual_history
    best = min(singles, key=lambda s: s.residual)
    assert cp.residual == pytest.approx(best.residual, rel=1e-9)
    assert np.linalg.norm(reconstruct(cp) - reconstruct(best)) <= 1e-9 * norm


def test_cpd_norm_identity_residual_is_the_direct_residual():
    # a fit far from exact takes its residual from the norm identity
    noisy = noisy_rank_three()
    norm = np.linalg.norm(noisy.data)
    for sweeps in (2, 300):
        cp = cpd_als(noisy, 3, AlsOptions(max_sweeps=sweeps, restarts=1, seed=0))
        assert cp.residual > 1e-3 * norm
        direct = np.linalg.norm(noisy.data - reconstruct(cp))
        assert abs(cp.residual - direct) <= 1e-9 * norm


def test_cpd_exact_fit_takes_the_direct_residual():
    # cancellation limits the norm identity to about sqrt(eps) ||T|| ~ 1e-8 ||T||;
    # a residual far below that can only come from the direct computation
    exact, _ = planted_tensor(1, [0.7 + 0.9j])
    norm = np.linalg.norm(exact.data)
    cp = cpd_als(exact, 1, AlsOptions(restarts=1, seed=3))
    assert cp.converged
    assert cp.residual <= 1e-10 * norm
    assert np.linalg.norm(exact.data - reconstruct(cp)) <= 1e-10 * norm


# ---------------------------------------------------------------------------
# Model order
# ---------------------------------------------------------------------------


def test_model_order_noiseless():
    tensor, _ = planted_tensor(2, [1.0, 0.7j])
    assert select_model_order(tensor)[0] == 2


def test_model_order_pure_noise():
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    rng = np.random.Generator(np.random.Philox(key=[5, 1]))
    noise = beamspace_noise(books, ofdm, 1.0, rng)
    tensor = MeasurementTensor(data=noise, codebooks=books, ofdm=ofdm, noise_var=1.0)
    assert select_model_order(tensor)[0] == 0


def test_model_order_40db_mostly_right():
    gains = np.array([1.0, 0.8 * np.exp(0.9j)])
    _, sig = planted_tensor(2, gains)
    var = snr_noise_var(sig, 40.0)
    hits = 0
    for seed in range(40):
        tensor, _ = planted_tensor(2, gains, noise_var=var, noise_seed=seed)
        hits += select_model_order(tensor)[0] == 2
    assert hits >= 38


def test_model_order_from_grams_counts_as_the_svd():
    config = default_scenario()
    tensors = []
    for trial in range(4):
        seed = config.seed + trial
        scene = random_scene(config.scene, seed)
        for rx in scene.receivers:
            tensors.append(synthesize_tensor(
                scene, rx.node_id, config.books, config.ofdm,
                noise_seed=receiver_seed(seed, rx.node_id),
                effective_snr_db=config.effective_snr_db,
            ))
    tensors += [planted_tensor(2, [1.0, 0.7j])[0], planted_tensor(4, [1.0, 1.0, 1.0, 1.0])[0]]
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    noise = beamspace_noise(books, ofdm, 1.0, np.random.Generator(np.random.Philox(key=[5, 1])))
    tensors.append(MeasurementTensor(data=noise, codebooks=books, ofdm=ofdm, noise_var=1.0))
    gains = np.array([1.0, 0.8 * np.exp(0.9j)])
    var = snr_noise_var(planted_tensor(2, gains)[1], 40.0)
    tensors += [planted_tensor(2, gains, noise_var=var, noise_seed=s)[0] for s in range(5)]
    for tensor in tensors:
        for cap in (DEFAULT_MAX_RANK, 2):
            assert select_model_order(tensor, max_rank=cap)[0] == svd_model_order(tensor, cap)


def low_rank_tensor(rng, rank, delays, snr_db):
    """A random rank-``rank`` tensor on make_books' axes (4, 4, 8, 8 beams and
    32 subcarriers) whose subcarrier factor has only ``delays`` distinct
    columns, with beamspace noise at ``snr_db``."""
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    shape = books.beam_shape + (ofdm.num_subcarriers,)
    factors = [rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)) for n in shape]
    factors[4] = factors[4][:, np.arange(rank) % delays]
    sig = rank_one_sum(np.ones(rank), [f.T for f in factors])
    var = snr_noise_var(sig, snr_db)
    noise = beamspace_noise(books, ofdm, var, rng)
    return MeasurementTensor(data=sig + noise, codebooks=books, ofdm=ofdm, noise_var=var)


def test_the_mode_skip_counts_as_every_mode(monkeypatch):
    rng = np.random.default_rng(23)
    cases = [
        (4, 4),  # the receive dimensions equal the subcarrier count: skipped
        (6, 6),  # a count above the receive dimensions
        (10, 10),  # a count above every spatial dimension: only mode 4 is counted
        (3, 1),  # one delay: the spatial modes count more than the subcarrier mode
        (6, 2),
        (1, 1),
    ]
    for rank, delays in cases:
        for snr_db in (10.0, 30.0):
            tensor = low_rank_tensor(rng, rank, delays, snr_db)
            for cap in (DEFAULT_MAX_RANK, 5, 2):
                want = reference_model_order(tensor, cap)
                order, vectors = select_model_order(tensor, max_rank=cap)
                assert order == want
                sub_gram = estimator._mode_gram(tensor.data, 4)
                assert np.array_equal(vectors, np.linalg.eigh(sub_gram)[1])
    # the subcarrier mode first, then only the modes wider than the count so far
    visited = []
    gram = estimator._mode_gram
    monkeypatch.setattr(estimator, "_mode_gram", lambda data, mode: visited.append(mode) or gram(data, mode))
    for rank, delays, modes in [(6, 6, [4, 2, 3]), (4, 4, [4, 2, 3]), (3, 3, [4, 0, 1, 2, 3]),
                                (10, 10, [4])]:
        visited.clear()
        select_model_order(low_rank_tensor(rng, rank, delays, 30.0))
        assert visited == modes


@pytest.mark.parametrize("block", [estimator.BLOCK_ENTRIES, 100, 2000])
def test_mode_grams_are_the_one_shot_products(monkeypatch, block):
    # 100 and 2000 entries split the stock tensor's unfoldings unevenly,
    # by columns and, for 2000, by several slices at once
    monkeypatch.setattr(estimator, "BLOCK_ENTRIES", block)
    config = default_scenario()
    scene = random_scene(config.scene, 0)
    data = config.receiver_tensor(scene, 0, 0).data
    for mode in range(data.ndim):
        ref = unfolding_gram(data, mode)
        gram = estimator._mode_gram(data, mode)
        assert np.linalg.norm(gram - ref) <= 1e-12 * np.linalg.norm(ref)


def test_model_order_respects_cap():
    tensor, _ = planted_tensor(4, [1.0, 1.0, 1.0, 1.0])
    assert select_model_order(tensor, max_rank=2)[0] == 2


# ---------------------------------------------------------------------------
# Per-column extraction
# ---------------------------------------------------------------------------


def test_extract_angle_exact():
    book = dft_codebook(8, 8, "rx_az")
    om0 = 0.7  # off the beam grid on purpose
    col = beam_response(book, phase_ramp(om0, 8))
    [((om,), (corr,))] = extract_angle([col[:, None]], [book])
    assert abs(om - om0) < 1e-6
    assert corr == pytest.approx(1.0, abs=1e-9)


def test_extract_angle_noisy_20db():
    book = dft_codebook(32, 32, "rx_az")
    om0 = 0.7
    resp = beam_response(book, phase_ramp(om0, 32))
    sigma = np.linalg.norm(resp) / np.sqrt(32 * 100.0)  # 20 dB per entry
    rng = np.random.default_rng(8)
    for _ in range(100):
        noise = sigma / np.sqrt(2) * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        [(om, _)] = extract_angle([(resp + noise)[:, None]], [book])
        assert abs(om[0] - om0) < 0.01


def test_extract_angle_rejects_degenerate_input():
    book = dft_codebook(8, 8, "rx_az")
    with pytest.raises(ValueError):
        extract_angle([np.array([[1.0 + 0j]])], [dft_codebook(1, 1, "rx_az")])
    with pytest.raises(ValueError):
        extract_angle([np.zeros((8, 1), dtype=complex)], [book])
    with pytest.raises(ValueError, match="8 beams"):
        extract_angle([np.ones((7, 2), dtype=complex)], [book])
    with pytest.raises(ValueError, match="8 beams"):
        extract_angle([np.ones(8, dtype=complex)], [book])
    factor = np.random.default_rng(3).standard_normal((8, 4)) + 0j
    factor[:, 2] = 0.0
    with pytest.raises(ValueError, match="column 2 is zero"):
        extract_angle([factor], [book])
    # one codebook per factor: zip would drop the factors or codebooks left over
    for factors, codebooks in [([factor], [book, book]), ([factor, factor], [book]),
                               ([factor], [])]:
        with pytest.raises(ValueError, match="one codebook per factor"):
            extract_angle(factors, codebooks)


def lattice_books():
    """The lattice workload's codebooks: an 8x8 receive array, a 16x16
    transmit array and a 4-beam elevation sector aimed at beam 11."""
    return CodebookSet(
        rx_el=dft_codebook(8, 8, "rx_el"),
        rx_az=dft_codebook(8, 8, "rx_az"),
        tx_el=dft_codebook(16, 4, "tx_el", first_beam=11),
        tx_az=dft_codebook(16, 8, "tx_az"),
        rx_geom=UpaGeometry(8, 8, 0.01, 0.02),
        tx_geom=UpaGeometry(16, 16, 0.01, 0.02),
    )


def assert_matches_reference(factor, codebook):
    [(omegas, corrs)] = extract_angle([factor], [codebook])
    assert len(omegas) == len(corrs) == factor.shape[1]
    for l in range(factor.shape[1]):
        assert (omegas[l], corrs[l]) == reference_extract_angle(factor[:, l], codebook)


@pytest.mark.parametrize("books", [default_scenario().books, lattice_books()],
                         ids=["stock", "lattice"])
def test_extract_angle_matches_the_per_column_reference(books):
    rng = np.random.default_rng(11)
    for book in (books.rx_el, books.rx_az, books.tx_el, books.tx_az):
        shape = (book.num_beams, 6)
        assert_matches_reference(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), book)


def test_extract_angle_matches_the_reference_on_als_factors():
    config = default_scenario()
    scene = random_scene(config.scene, config.seed)
    tensor = config.receiver_tensor(scene, 0, config.seed)
    seed = receiver_seed(config.seed, 0)
    cp = cpd_als(tensor, select_model_order(tensor)[0], AlsOptions(restarts=1, seed=seed))
    books = config.books
    for factor, book in zip(cp.factors, (books.rx_el, books.rx_az, books.tx_el, books.tx_az)):
        assert_matches_reference(factor, book)


def test_extract_angle_matches_the_reference_on_any_column_layout():
    book = lattice_books().tx_az
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((book.num_beams, 10)) + 1j * rng.standard_normal((book.num_beams, 10))
    assert_matches_reference(np.asfortranarray(wide), book)
    assert_matches_reference(wide[:, ::2], book)
    assert_matches_reference(wide[:, 3:4], book)


def test_extract_angle_matches_the_reference_on_lattice_als_factors():
    books = lattice_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    sig = tensor_from_paths(make_paths(4), books, ofdm, gains=np.array([1.2, 0.9, 1.1, 0.8]))
    var = float(np.vdot(sig, sig).real) / (expected_noise_energy(books, ofdm, 1.0) * 1.0e3)
    noise = beamspace_noise(books, ofdm, var, np.random.Generator(np.random.Philox(key=[3, 1])))
    tensor = MeasurementTensor(data=sig + noise, codebooks=books, ofdm=ofdm, noise_var=var)
    cp = cpd_als(tensor, 4, AlsOptions(restarts=5, seed=1))
    for factor, book in zip(cp.factors, (books.rx_el, books.rx_az, books.tx_el, books.tx_az)):
        assert_matches_reference(factor, book)


def test_extract_angle_of_no_columns_is_empty():
    book = dft_codebook(8, 8, "rx_az")
    [(omegas, corrs)] = extract_angle([np.zeros((8, 0), dtype=complex)], [book])
    assert omegas.shape == corrs.shape == (0,)


def record_ramps(monkeypatch):
    """Record (omega shape, element count) of every phase_ramp call the
    estimator makes."""
    calls = []

    def recording_ramp(omega, num_elements):
        calls.append((np.shape(omega), num_elements))
        return phase_ramp(omega, num_elements)

    monkeypatch.setattr(estimator, "phase_ramp", recording_ramp)
    return calls


def test_extract_angle_probes_all_columns_at_once(monkeypatch):
    book = lattice_books().tx_az
    rng = np.random.default_rng(9)
    factor = rng.standard_normal((book.num_beams, 6)) + 1j * rng.standard_normal((book.num_beams, 6))
    calls = record_ramps(monkeypatch)

    def probes(columns):
        calls.clear()
        extract_angle([factor[:, :columns]], [book])
        return [shape for shape, _ in calls if shape != (estimator.ANGLE_GRID_POINTS,)]

    # the (x1, x2) pair, then 19 golden-section steps from the +-1 grid step
    # bracket and the final correlation
    assert probes(1) == [(1, 2)] + [(1, 1)] * 20
    assert probes(6) == [(6, 2)] + [(6, 1)] * 20


def test_the_lockstep_search_probes_each_factor_once_per_step(monkeypatch):
    books = lattice_books()
    rng = np.random.default_rng(9)
    factors = [rng.standard_normal((book.num_beams, cols)) + 1j * rng.standard_normal((book.num_beams, cols))
               for book, cols in ((books.tx_az, 6), (books.rx_el, 3))]
    calls = record_ramps(monkeypatch)
    extract_angle(factors, [books.tx_az, books.rx_el])
    probes = [call for call in calls if call[0] != (estimator.ANGLE_GRID_POINTS,)]
    # each factor's (L, 2) pair, then per step one (L, 1) probe of each
    # factor in turn, on its own element count
    assert probes == [((6, 2), 16), ((3, 2), 8)] + [((6, 1), 16), ((3, 1), 8)] * 20


@pytest.mark.parametrize("rank", [2, 4])
def test_estimate_paths_scans_one_angle_grid_per_axis(monkeypatch, rank):
    calls = record_ramps(monkeypatch)
    built = []
    response = estimator.beam_response

    def recording_response(book, ramp):
        if np.shape(ramp)[:-1] == (estimator.ANGLE_GRID_POINTS,):
            built.append(book.axis)
        return response(book, ramp)

    monkeypatch.setattr(estimator, "beam_response", recording_response)
    estimator._GRID_SIGNATURES.clear()
    tensor, _ = planted_tensor(rank, [1.0] * rank)
    for _ in range(2):
        assert len(estimate_paths(tensor, rank=rank, opts=AlsOptions(restarts=1))) == rank
    # one grid signature per distinct codebook: rx_az holds rx_el's matrix
    # and tx_az tx_el's, so only rx_el and tx_el build one (on their 4 and 8
    # elements); the second call builds none
    assert built == ["rx_el", "tx_el"]
    grids = [n for shape, n in calls if shape == (estimator.ANGLE_GRID_POINTS,)]
    assert grids == [4, 8]


def test_grid_signatures_are_kept_per_matrix_layout_and_kind():
    estimator._GRID_SIGNATURES.clear()
    rx = dft_codebook(8, 8, "rx_az")
    sig = estimator._grid_signature(rx)
    assert estimator._grid_signature(dft_codebook(8, 8, "rx_el")) is sig
    assert not sig[0].flags.writeable and not sig[1].flags.writeable
    others = [
        dft_codebook(8, 8, "tx_az"),  # the same matrix on the transmit side
        dft_codebook(8, 8, "rx_az", first_beam=0),  # another matrix
        replace(rx, matrix=np.asfortranarray(rx.matrix)),  # the same values, Fortran-ordered
    ]
    for book in others:
        assert estimator._grid_signature(book) is not sig
    assert len(estimator._GRID_SIGNATURES) == 4
    # the cache holds at most GRID_CACHE_SIZE codebooks, dropping the oldest
    for first in range(estimator.GRID_CACHE_SIZE):
        estimator._grid_signature(dft_codebook(16, 4, "rx_el", first_beam=first))
    assert len(estimator._GRID_SIGNATURES) == estimator.GRID_CACHE_SIZE
    assert estimator._grid_signature(rx) is not sig


def spy_on_the_angle_search(monkeypatch):
    """Record the factors, codebooks and answers of every lockstep search."""
    seen = []
    search = estimator.extract_angle

    def spy(factors, codebooks):
        got = search(factors, codebooks)
        seen.append((list(factors), list(codebooks), got))
        return got

    monkeypatch.setattr(estimator, "extract_angle", spy)
    return seen


def assert_lockstep_matches_reference(factors, codebooks, got):
    assert len(got) == len(factors)
    for factor, book, (omegas, corrs) in zip(factors, codebooks, got):
        assert omegas.shape == corrs.shape == (factor.shape[1],)
        for l in range(factor.shape[1]):
            assert (omegas[l], corrs[l]) == reference_extract_angle(factor[:, l], book)


def test_the_lockstep_search_matches_the_reference_on_estimated_factors(monkeypatch):
    seen = spy_on_the_angle_search(monkeypatch)
    config = default_scenario()
    scene = random_scene(config.scene, config.seed)
    for rx in range(len(scene.receivers)):
        estimate_paths(config.receiver_tensor(scene, rx, config.seed), max_rank=config.max_rank,
                       opts=replace(config.als, seed=receiver_seed(config.seed, rx)))
    for key in [(1, 0), (2, 68)]:
        estimate_paths(lattice_tensor(key)[0], opts=AlsOptions(restarts=5, seed=1000 * key[0] + key[1]))
    assert len(seen) == len(scene.receivers) + 2
    for factors, books, got in seen:
        assert len(factors) == 4
        assert_lockstep_matches_reference(factors, books, got)


def test_the_lockstep_search_matches_the_reference_on_mixed_layouts():
    books = lattice_books()
    rng = np.random.default_rng(5)

    def draw(book, cols):
        return rng.standard_normal((book.num_beams, cols)) + 1j * rng.standard_normal((book.num_beams, cols))

    wide = draw(books.tx_az, 10)
    factors = [np.asfortranarray(draw(books.rx_el, 4)), wide[:, ::2], draw(books.tx_el, 3)[:, 1:2],
               np.zeros((books.rx_az.num_beams, 0), dtype=complex), wide[:, 3:7]]
    codebooks = [books.rx_el, books.tx_az, books.tx_el, books.rx_az, books.tx_az]
    assert_lockstep_matches_reference(factors, codebooks, extract_angle(factors, codebooks))


def test_the_lockstep_search_refuses_what_extract_angle_refuses():
    books = lattice_books()
    good = np.ones((books.rx_el.num_beams, 2), dtype=complex)
    zero = np.ones((books.tx_az.num_beams, 4), dtype=complex)
    zero[:, 2] = 0.0
    with pytest.raises(ValueError, match="factor column 2 is zero"):
        extract_angle([good, zero], [books.rx_el, books.tx_az])
    with pytest.raises(ValueError, match=r"with 8 beams, got shape \(7, 2\)"):
        extract_angle([good, np.ones((7, 2), dtype=complex)], [books.rx_el, books.tx_az])
    with pytest.raises(ValueError, match="single beam"):
        extract_angle([good, good[:1]], [books.rx_el, dft_codebook(1, 1, "rx_az")])


def test_extract_delay_zero_and_exact():
    spacing = 1.5625e6
    k = np.arange(64)
    assert extract_delay(np.exp(-2j * np.pi * spacing * 0.0 * k), spacing) == 0.0
    tau0 = 3.0 / (64 * spacing)
    col = np.exp(-2j * np.pi * spacing * tau0 * k)
    assert extract_delay(col, spacing) == pytest.approx(tau0, abs=1e-12)


def test_extract_delay_noisy_30db():
    spacing = 1.5625e6
    tau0 = 137e-9
    k = np.arange(64)
    col = np.exp(-2j * np.pi * spacing * tau0 * k)
    sigma = 1.0 / np.sqrt(10.0**3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        noisy = col + sigma / np.sqrt(2) * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        tau = extract_delay(noisy, spacing)
        assert abs(tau - tau0) < 1e-9


def test_extract_delay_stays_below_the_period():
    # tau = -1e-18 / (2 pi spacing) is negative, and tau % period rounds to the period
    spacing = 1.5625e6
    tau = extract_delay(np.exp(1e-18j * np.arange(64)), spacing)
    assert 0.0 <= tau < 1.0 / spacing
    assert tau == 0.0


def test_extract_delay_degenerate_column():
    # no adjacent-sample phase accumulation at all
    col = np.zeros(8, dtype=complex)
    col[0] = 1.0
    with pytest.raises(ValueError, match="degenerate subcarrier column"):
        extract_delay(col, 1.5625e6)
    # one subcarrier has no neighbour to take a phase step from
    with pytest.raises(ValueError, match="at least two subcarriers"):
        extract_delay(col[:1], 1.5625e6)


# ---------------------------------------------------------------------------
# Full path estimation
# ---------------------------------------------------------------------------


def test_estimate_paths_noiseless_exact():
    gains = np.array([1.5, 1.0 * np.exp(1j), 0.7 * np.exp(-2j)])
    tensor, _ = planted_tensor(3, gains)
    est = estimate_paths(tensor, rank=3, opts=AlsOptions(restarts=2, seed=0))
    assert len(est) == 3
    truth = make_paths(3)
    for e in est:
        best = min(truth, key=lambda p: abs(p.delay - e.delay))
        assert abs(e.delay - best.delay) < 0.1e-9
        for got, want in ((e.aoa, best.aoa), (e.aod, best.aod)):
            assert abs(got.azimuth - want.azimuth) < np.radians(0.1)
            assert abs(got.elevation - want.elevation) < np.radians(0.1)
        assert not e.low_confidence
    mags = [abs(e.gain) for e in est]
    assert mags == sorted(mags, reverse=True)


def test_estimate_paths_recovers_planted_gains():
    ofdm = OfdmConfig(num_subcarriers=32)
    gains = np.array([2.0, 1.0 + 1.0j])
    tensor, _ = planted_tensor(2, gains)
    est = estimate_paths(tensor, rank=2, opts=AlsOptions(restarts=2, seed=0))
    got = sorted((abs(e.gain) for e in est), reverse=True)
    want = sorted((abs(g) for g in gains), reverse=True)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_estimate_paths_auto_rank():
    tensor, _ = planted_tensor(3, [1.0, 0.9, 1.1])
    est = estimate_paths(tensor, rank="auto", opts=AlsOptions(restarts=2, seed=0))
    assert len(est) == 3


def test_estimate_paths_zero_tensor_empty():
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    zero = MeasurementTensor(
        data=np.zeros(books.beam_shape + (32,), dtype=complex), codebooks=books, ofdm=ofdm
    )
    assert estimate_paths(zero, rank="auto") == []


def test_estimate_paths_scaling_invariance():
    gains = np.array([1.5, 1.0 * np.exp(1j)])
    tensor, _ = planted_tensor(2, gains)
    scaled = MeasurementTensor(
        data=tensor.data * (2.0j), codebooks=tensor.codebooks, ofdm=tensor.ofdm
    )
    a = estimate_paths(tensor, rank=2, opts=AlsOptions(restarts=2, seed=0))
    b = estimate_paths(scaled, rank=2, opts=AlsOptions(restarts=2, seed=0))
    for ea, eb in zip(a, b):
        assert abs(eb.gain / ea.gain - 2.0j) < 1e-6
        assert abs(ea.delay - eb.delay) < 1e-15
        assert ea.aoa.azimuth == pytest.approx(eb.aoa.azimuth, abs=1e-9)
        assert ea.aod.elevation == pytest.approx(eb.aod.elevation, abs=1e-9)


def test_estimate_paths_flags_non_steering_factor():
    # a factor column far from every steering response must be flagged
    rx_geom = UpaGeometry(4, 16, 0.01, 0.02)
    books = CodebookSet(
        rx_el=dft_codebook(16, 16, "rx_el"),
        rx_az=dft_codebook(4, 4, "rx_az"),
        tx_el=dft_codebook(8, 8, "tx_el"),
        tx_az=dft_codebook(8, 8, "tx_az"),
        rx_geom=rx_geom,
        tx_geom=TX_GEOM,
    )
    ofdm = OfdmConfig(num_subcarriers=32)
    rng = np.random.default_rng(2)
    draws = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(400)]
    [(_, corrs)] = extract_angle([np.stack(draws, axis=1)], [books.rx_el])
    low = np.flatnonzero(corrs < 0.4)
    assert low.size
    bad = draws[low[0]]

    aoa, _ = angles_from_cosines(0.3, 0.0)
    aod, _ = angles_from_cosines(-0.25, 0.25)
    probe = PathRecord(gain=1.0, delay=120e-9, aoa=aoa, aod=aod, label=LABEL_LOS)
    fs = list(path_beam_factors(probe, books, ofdm))
    fs[0] = bad
    data = np.einsum("a,b,c,d,e->abcde", *fs, optimize=True)
    tensor = MeasurementTensor(data=data, codebooks=books, ofdm=ofdm)
    est = estimate_paths(tensor, rank=1, opts=AlsOptions(restarts=1, seed=0))
    assert len(est) == 1 and est[0].low_confidence


# ---------------------------------------------------------------------------
# Algebraic Vandermonde start
# ---------------------------------------------------------------------------


def all_paths_recovered(est, planted):
    """Acceptance criterion 2's rule: paired by the least total delay
    mismatch, every planted path has an estimate within 1 degree on all four
    angles and 1 ns in delay."""
    cost = np.abs(np.subtract.outer([e.delay for e in est], [p.delay for p in planted]))
    rows, cols = linear_sum_assignment(cost)
    if len(cols) < len(planted):
        return False
    for i, j in zip(rows, cols):
        e, p = est[i], planted[j]
        errors = (e.aoa.azimuth - p.aoa.azimuth, e.aoa.elevation - p.aoa.elevation,
                  e.aod.azimuth - p.aod.azimuth, e.aod.elevation - p.aod.elevation)
        if np.max(np.abs(np.degrees(errors))) >= 1.0 or abs(e.delay - p.delay) >= 1e-9:
            return False
    return True


def decline_the_start(monkeypatch):
    monkeypatch.setattr(estimator, "_vandermonde_start", lambda data, order, vectors: None)


@pytest.mark.parametrize("key", [(1, 35), (2, 68), (2, 97), (3, 28)])
def test_the_vandermonde_start_recovers_lattice_tensors_the_restarts_miss(monkeypatch, key):
    tensor, planted = lattice_tensor(key)
    opts = AlsOptions(restarts=5, seed=1000 * key[0] + key[1])
    assert all_paths_recovered(estimate_paths(tensor, opts=opts), planted)
    decline_the_start(monkeypatch)
    assert not all_paths_recovered(estimate_paths(tensor, opts=opts), planted)


def equal_delay_tensor():
    # two paths on distinct beams that arrive at the same delay, at 30 dB
    paths = [replace(p, delay=150e-9) for p in make_paths(2)]
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    sig = tensor_from_paths(paths, books, ofdm, gains=np.array([1.0, 0.8j]))
    var = float(np.vdot(sig, sig).real) / (expected_noise_energy(books, ofdm, 1.0) * 1.0e3)
    noise = beamspace_noise(books, ofdm, var, np.random.default_rng(4))
    return MeasurementTensor(data=sig + noise, codebooks=books, ofdm=ofdm, noise_var=var)


def test_an_unconverged_start_run_stands_and_the_restarts_stay_idle(monkeypatch):
    config = default_scenario()
    scene = random_scene(config.scene, config.seed)
    cases = [
        (config.receiver_tensor(scene, rx, config.seed), "auto", config.max_rank,
         replace(config.als, seed=receiver_seed(config.seed, rx)))
        for rx in range(len(scene.receivers))
    ]
    cases.append((equal_delay_tensor(), 2, DEFAULT_MAX_RANK, AlsOptions(restarts=2, seed=0)))
    seen = spy_on_the_sweeps(monkeypatch)
    with_start = [estimate_paths(t, rank=r, opts=o, max_rank=m) for t, r, m, o in cases]
    # one run per case, from the start, with the whole sweep budget; stock
    # trial 0's runs end at the cap, unconverged, and their results stand
    assert [s[:2] for s in seen] == [(1, o.max_sweeps) for *_, o in cases]
    assert [s[2:] for s in seen[:2]] == [(config.als.max_sweeps, False)] * 2
    decline_the_start(monkeypatch)
    without = [estimate_paths(t, rank=r, opts=o, max_rank=m) for t, r, m, o in cases]
    assert with_start != without


def test_degenerate_inputs_decline_the_start():
    tensor, _ = planted_tensor(2, [1.0, 0.5j])
    data = tensor.data
    vectors = np.linalg.eigh(estimator._mode_gram(data, 4))[1]
    assert estimator._vandermonde_start(np.zeros_like(data), 2, vectors) is None
    assert estimator._vandermonde_start(data, data.shape[-1], vectors) is None
    # a subspace whose shift map has a zero eigenvalue: the unit columns
    # e_0 and e_(n-1) give U[:-1] a zero column
    ends = np.zeros((data.shape[-1], 2), dtype=complex)
    ends[0, 0] = ends[-1, -1] = 1.0
    assert estimator._vandermonde_start(data, 2, ends) is None


def test_each_stock_receiver_makes_one_decomposition_call(monkeypatch):
    # each receiver makes one cpd_als call, and that call gets the
    # eigenvectors select_model_order returned
    config = default_scenario()
    scene = random_scene(config.scene, config.seed)
    orders, calls = [], []
    select, als = estimator.select_model_order, estimator.cpd_als

    def spy_select(*args, **kwargs):
        orders.append(select(*args, **kwargs))
        return orders[-1]

    def spy_als(*args, **kwargs):
        calls.append(args)
        return als(*args, **kwargs)

    monkeypatch.setattr(estimator, "select_model_order", spy_select)
    monkeypatch.setattr(estimator, "cpd_als", spy_als)
    for rx in range(len(scene.receivers)):
        estimate_paths(config.receiver_tensor(scene, rx, config.seed), max_rank=config.max_rank,
                       opts=replace(config.als, seed=receiver_seed(config.seed, rx)))
    assert len(calls) == len(orders) == len(scene.receivers)
    for (_, rank, _, vectors), (order, want) in zip(calls, orders):
        assert rank == order and vectors is want


def spy_on_the_sweeps(monkeypatch):
    """(stacked starts, sweep cap, sweeps run, converged) of each ALS run."""
    seen = []
    sweeps = estimator._als_sweeps

    def recorded(data, norm_t, factors, max_sweeps, floor):
        raw, history, converged = sweeps(data, norm_t, factors, max_sweeps, floor)
        seen.append((factors[0].shape[0], max_sweeps, len(history), converged))
        return raw, history, converged

    monkeypatch.setattr(estimator, "_als_sweeps", recorded)
    return seen


def test_a_start_whose_polish_loses_rank_falls_back_to_the_restarts(monkeypatch):
    # a start with two equal columns makes the first least-squares system of
    # its run singular; cpd_als then runs the restarts
    tensor = noisy_rank_three()
    vectors = select_model_order(tensor)[1]
    opts = AlsOptions(restarts=2, seed=0)
    start, sweeps = estimator._vandermonde_start, estimator._als_sweeps
    formed = []

    def twinned(*args):
        factors = [f.copy() for f in start(*args)]
        for f in factors:
            f[:, 1] = f[:, 0]
        formed.append(factors)
        return factors

    monkeypatch.setattr(estimator, "_vandermonde_start", twinned)
    seen = spy_on_the_sweeps(monkeypatch)
    got = cpd_als(tensor, 3, opts, vectors)
    # the start was formed, and its run raised before it could be recorded:
    # only the restarts ran
    assert len(formed) == 1 and [s[:2] for s in seen] == [(2, opts.max_sweeps)]
    with pytest.raises(RankDeficiencyError):
        sweeps(tensor.data, np.linalg.norm(tensor.data), [f[None] for f in formed[0]], 2, np.inf)
    decline_the_start(monkeypatch)
    for want in (cpd_als(tensor, 3, opts, vectors), cpd_als(tensor, 3, opts)):
        assert got.residual_history == want.residual_history and got.converged == want.converged
        for x, y in zip(got.factors + [got.gains], want.factors + [want.gains]):
            np.testing.assert_array_equal(x, y)


def test_the_start_runs_to_its_own_stop_and_stands(monkeypatch):
    tensor, _ = lattice_tensor((1, 0))
    order, vectors = select_model_order(tensor)
    seen = spy_on_the_sweeps(monkeypatch)
    cp = cpd_als(tensor, order, AlsOptions(restarts=5, seed=1000), vectors)
    # REL_TOL stops the run after its second sweep
    assert seen == [(1, 300, 2, True)] and cp.sweeps == 2 and cp.converged
    seen.clear()
    # one sweep leaves REL_TOL no second residual: the run ends at the cap,
    # unconverged, and still stands
    cp = cpd_als(tensor, order, AlsOptions(max_sweeps=1, restarts=5, seed=1000), vectors)
    assert seen == [(1, 1, 1, False)] and cp.sweeps == 1 and not cp.converged
    seen.clear()
    # a header that understates the noise puts the floor below the fit: the
    # run converges above it, and it still stands
    understated = replace(tensor, noise_var=tensor.noise_var / 4.0)
    cp = cpd_als(understated, 4, AlsOptions(restarts=5, seed=1000), vectors)
    assert seen == [(1, 300, 2, True)] and cp.residual > estimator._noise_floor(understated)


def test_each_stock_receiver_runs_als_once_from_the_start(monkeypatch):
    config = default_scenario()
    scene = random_scene(config.scene, config.seed)
    starts, runs = [], []
    start, sweeps = estimator._vandermonde_start, estimator._als_sweeps

    def spy_start(*args):
        starts.append(start(*args))
        return starts[-1]

    def spy_sweeps(data, norm_t, factors, max_sweeps, floor):
        runs.append(([f.copy() for f in factors], max_sweeps))
        return sweeps(data, norm_t, factors, max_sweeps, floor)

    monkeypatch.setattr(estimator, "_vandermonde_start", spy_start)
    monkeypatch.setattr(estimator, "_als_sweeps", spy_sweeps)
    for rx in range(len(scene.receivers)):
        estimate_paths(config.receiver_tensor(scene, rx, config.seed), max_rank=config.max_rank,
                       opts=replace(config.als, seed=receiver_seed(config.seed, rx)))
    assert len(runs) == len(starts) == len(scene.receivers)
    for (factors, max_sweeps), formed in zip(runs, starts):
        assert max_sweeps == config.als.max_sweeps
        assert len(factors) == len(formed)
        for f, want in zip(factors, formed):
            np.testing.assert_array_equal(f, want[None])


def test_estimate_paths_runs_each_public_stage_once(monkeypatch):
    # estimate_paths looks its stages up by their public names, so a wrapper
    # around one (this spy, or a tracer's) sees every call: one model order,
    # one decomposition (ALS from the algebraic start) and one
    # angle search over the four spatial factors
    calls = []

    def spy(name):
        stage = getattr(estimator, name)

        def spied(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)

        monkeypatch.setattr(estimator, name, spied)

    for name in ("select_model_order", "cpd_als", "extract_angle"):
        spy(name)
    tensor, _ = lattice_tensor((1, 0))
    assert len(estimate_paths(tensor, opts=AlsOptions(restarts=5, seed=1000))) == 4
    assert calls == ["select_model_order", "cpd_als", "extract_angle"]


def test_the_start_has_pure_ramp_subcarrier_columns():
    # ESPRIT roots of a noisy tensor lie off the unit circle; projected onto
    # it, every subcarrier column is a unit-modulus ramp times one scale
    tensor, _ = lattice_tensor((1, 35))
    order, vectors = select_model_order(tensor)
    e = estimator._vandermonde_start(tensor.data, order, vectors)[4]
    np.testing.assert_allclose(np.abs(e), np.abs(e[:1]) * np.ones_like(np.abs(e)), rtol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_start_alone_reproduces_noiseless_paths(data):
    # L <= 8 paths with delays at least one delay cell 1/(N spacing) apart,
    # circularly: each sits in its own even cell, jittered by up to a cell
    books = make_books()
    ofdm = OfdmConfig(num_subcarriers=32)
    n = ofdm.num_subcarriers
    cell = 1.0 / (n * ofdm.subcarrier_spacing)
    slots = data.draw(st.lists(st.integers(0, n // 2 - 1), min_size=1, max_size=8, unique=True))
    rank = len(slots)
    jitter = data.draw(st.lists(st.floats(0.0, 1.0), min_size=rank, max_size=rank))
    turn = data.draw(st.floats(0.0, n, exclude_max=True))
    taus = [((2 * s + j + turn) % n) * cell for s, j in zip(slots, jitter)]
    cos = st.floats(-0.7, 0.7)
    paths = []
    for tau in taus:
        ux_rx, uy_rx, ux_tx, uy_tx = (data.draw(cos) for _ in range(4))
        paths.append(PathRecord(gain=1.0, delay=tau, aoa=angles_from_cosines(ux_rx, uy_rx)[0],
                                aod=angles_from_cosines(ux_tx, uy_tx)[0], label=LABEL_LOS))
    gains = np.array([data.draw(st.floats(0.5, 2.0)) * np.exp(1j * data.draw(st.floats(0.0, 6.28)))
                      for _ in paths])
    truth = [path_beam_factors(p, books, ofdm) for p in paths]
    # rank L needs independent spatial signatures, not only distinct delays
    spatial = np.stack([np.einsum("a,b,c,d->abcd", *f[:4]).ravel() for f in truth], axis=1)
    s = np.linalg.svd(spatial, compute_uv=False)
    assume(s[-1] > 1e-3 * s[0])
    sig = tensor_from_paths(paths, books, ofdm, gains=gains)

    start = estimator._vandermonde_start(sig, rank, np.linalg.eigh(estimator._mode_gram(sig, 4))[1])
    assert start is not None
    delays = [extract_delay(start[4][:, l], ofdm.subcarrier_spacing) for l in range(rank)]
    gap = np.abs(np.subtract.outer(delays, taus))
    gap = np.minimum(gap, n * cell - gap)  # delays are read modulo the period
    rows, cols = linear_sum_assignment(gap)
    assert np.max(gap[rows, cols]) <= 1e-6 * cell
    for l, k in zip(rows, cols):
        for got, want in zip(start, truth[k]):
            col = got[:, l]
            match = abs(np.vdot(col, want)) / (np.linalg.norm(col) * np.linalg.norm(want))
            assert match >= 1.0 - 1e-9
    model = rank_one_sum(np.ones(rank), [f.T for f in start])
    assert np.linalg.norm(model - sig) <= 1e-8 * np.linalg.norm(sig)
