import json
from dataclasses import replace

import numpy as np
import pytest

from disacsim.estimator import AlsOptions, cpd_als
from disacsim.geometry import AnglePair, BORESIGHT_ALONG_X
from disacsim.harness import default_scenario
from disacsim.scene import (
    LABEL_LOS,
    PathRecord,
    ReceiverNode,
    Scene,
    TransmitterNode,
    UpaGeometry,
    generate_ground_truth_paths,
)
from disacsim.waveform import (
    AXIS_LABELS,
    BeamCodebook,
    CodebookSet,
    MeasurementTensor,
    OfdmConfig,
    beam_response,
    beamspace_noise,
    channel_matrix,
    dbm_to_watts,
    dft_codebook,
    expected_noise_energy,
    export_tensor,
    load_tensor,
    path_beam_factors,
    phase_ramp,
    synthesize_tensor,
    tensor_from_paths,
)
from oracles import einsum_beamspace_noise

RX_GEOM = UpaGeometry(4, 4, 0.01, 0.02)
TX_GEOM = UpaGeometry(4, 4, 0.01, 0.02)


def small_books(square=False):
    tx_beams = 4 if square else 2
    return CodebookSet(
        rx_el=dft_codebook(4, 4, "rx_el"),
        rx_az=dft_codebook(4, 4, "rx_az"),
        tx_el=dft_codebook(4, tx_beams, "tx_el"),
        tx_az=dft_codebook(4, tx_beams, "tx_az"),
        rx_geom=RX_GEOM,
        tx_geom=TX_GEOM,
    )


def random_paths(rng, count):
    paths = []
    for _ in range(count):
        paths.append(
            PathRecord(
                gain=complex(rng.standard_normal(), rng.standard_normal()),
                delay=float(rng.uniform(0.0, 300e-9)),
                aoa=AnglePair(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)),
                aod=AnglePair(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)),
                label=LABEL_LOS,
            )
        )
    return paths


# ---------------------------------------------------------------------------
# OFDM grid
# ---------------------------------------------------------------------------


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)


def test_ofdm_defaults():
    ofdm = OfdmConfig()
    assert ofdm.subcarrier_spacing == pytest.approx(1.5625e6)
    assert ofdm.delay_period == pytest.approx(640e-9)
    # the stock grid sounds the whole band, so the resolution is 1 / bandwidth
    assert ofdm.delay_resolution == pytest.approx(1.0 / ofdm.bandwidth)
    assert ofdm.tx_amplitude == pytest.approx(np.sqrt(10.0))  # 40 dBm
    assert ofdm.wavelength == pytest.approx(299792458.0 / 15e9)


def test_ofdm_rejects_overfull_grid():
    with pytest.raises(ValueError):
        OfdmConfig(bandwidth=100e6, num_subcarriers=64, subcarrier_spacing=2e6)
    with pytest.raises(ValueError):
        OfdmConfig(num_subcarriers=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"carrier_freq": 0.0}, "carrier frequency and bandwidth must be positive"),
        ({"bandwidth": -1.0e6}, "carrier frequency and bandwidth must be positive"),
        ({"subcarrier_spacing": 0.0}, "subcarrier spacing must be positive"),
        ({"subcarrier_spacing": -1.5625e6}, "subcarrier spacing must be positive"),
    ],
    ids=["zero-carrier", "negative-bandwidth", "zero-spacing", "negative-spacing"],
)
def test_ofdm_refuses_a_value_at_or_below_zero(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OfdmConfig(**kwargs)


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------


def test_dft_codebook_full_gram():
    book = dft_codebook(4, 4, "rx_az")
    np.testing.assert_allclose(book.gram(), 4.0 * np.eye(4), atol=1e-12)


def test_dft_codebook_subset_orthogonal():
    book = dft_codebook(8, 4, "tx_az")
    g = book.gram()
    np.testing.assert_allclose(g - np.diag(np.diag(g)), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.diag(g).real, 8.0, atol=1e-12)


def test_dft_codebook_default_centering_and_bounds():
    book = dft_codebook(8, 4, "rx_el")
    assert book.beam_indices == (6, 7, 0, 1)  # -2..1 modulo 8
    with pytest.raises(ValueError):
        dft_codebook(4, 5, "rx_el")
    with pytest.raises(ValueError):
        dft_codebook(4, 0, "rx_el")


def test_beam_points_at_negative_grid_cosine():
    # column k responds maximally to the ramp with u = -2k/N (mod 2);
    # the sign is easy to get wrong and everything downstream leans on it
    book = dft_codebook(16, 4, "tx_el", first_beam=11)
    geom = UpaGeometry(1, 16, 0.01, 0.02)  # half-wavelength: scale = pi
    for slot, k in enumerate(book.beam_indices):
        u = (-2.0 * k / 16.0 + 1.0) % 2.0 - 1.0
        ramp = phase_ramp(geom.phase_scale * u, 16)
        resp = beam_response(book, ramp)
        assert int(np.argmax(np.abs(resp))) == slot
        assert abs(resp[slot]) == pytest.approx(16.0, rel=1e-12)


def test_codebook_equal_norm_enforced():
    bad = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        BeamCodebook(matrix=bad, axis="rx_el", beam_indices=(0, 1))
    # non-orthogonal but equal-norm columns are fine (used for custom fans)
    ok = np.array([[1.0, 1.0], [1.0, 1.0j]], dtype=complex)
    BeamCodebook(matrix=ok, axis="rx_el", beam_indices=(0, 1))


def test_codebook_refuses_an_unknown_axis_or_a_matrix_that_is_not_2d():
    ok = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="axis must be one of"):
        BeamCodebook(matrix=ok, axis="ue_az", beam_indices=(0, 1))
    with pytest.raises(ValueError, match="must be 2-D"):
        BeamCodebook(matrix=np.ones(4, dtype=complex), axis="rx_el", beam_indices=(0,))


def test_codebook_set_slot_validation():
    with pytest.raises(ValueError):
        CodebookSet(
            rx_el=dft_codebook(4, 4, "rx_az"),  # wrong label for the slot
            rx_az=dft_codebook(4, 4, "rx_az"),
            tx_el=dft_codebook(4, 2, "tx_el"),
            tx_az=dft_codebook(4, 2, "tx_az"),
            rx_geom=RX_GEOM,
            tx_geom=TX_GEOM,
        )
    with pytest.raises(ValueError):
        CodebookSet(
            rx_el=dft_codebook(8, 4, "rx_el"),  # 8 elements vs 4-element axis
            rx_az=dft_codebook(4, 4, "rx_az"),
            tx_el=dft_codebook(4, 2, "tx_el"),
            tx_az=dft_codebook(4, 2, "tx_az"),
            rx_geom=RX_GEOM,
            tx_geom=TX_GEOM,
        )
    assert small_books().beam_shape == (4, 4, 2, 2)
    assert AXIS_LABELS == ("rx_el", "rx_az", "tx_el", "tx_az")


# ---------------------------------------------------------------------------
# Channel and tensor
# ---------------------------------------------------------------------------


def test_channel_matrix_boresight_all_ones():
    p = PathRecord(gain=1.0, delay=0.0, aoa=AnglePair(0, 0), aod=AnglePair(0, 0),
                   label=LABEL_LOS)
    h = channel_matrix([p], TX_GEOM, RX_GEOM, subcarrier=0, spacing=1.5625e6)
    np.testing.assert_allclose(h, np.ones((16, 16)), atol=1e-14)
    assert np.linalg.matrix_rank(h) == 1


def test_channel_matrix_subcarrier_ratio():
    tau = 80e-9
    spacing = 1.5625e6
    p = PathRecord(gain=1.0, delay=tau, aoa=AnglePair(0.3, 0.1),
                   aod=AnglePair(-0.2, 0.05), label=LABEL_LOS)
    h0 = channel_matrix([p], TX_GEOM, RX_GEOM, subcarrier=0, spacing=spacing)
    h3 = channel_matrix([p], TX_GEOM, RX_GEOM, subcarrier=3, spacing=spacing)
    np.testing.assert_allclose(
        h3, h0 * np.exp(-2j * np.pi * 3 * spacing * tau), atol=1e-12
    )


def test_channel_matrix_linear_in_paths():
    rng = np.random.default_rng(0)
    pa, pb = random_paths(rng, 2)
    h = channel_matrix([pa, pb], TX_GEOM, RX_GEOM, 2, 1.5625e6)
    ha = channel_matrix([pa], TX_GEOM, RX_GEOM, 2, 1.5625e6)
    hb = channel_matrix([pb], TX_GEOM, RX_GEOM, 2, 1.5625e6)
    np.testing.assert_allclose(h, ha + hb, atol=1e-12)


def test_tensor_matches_direct_beam_contraction():
    """tensor_from_paths must equal beamforming applied to channel_matrix."""
    rng = np.random.default_rng(1)
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    paths = random_paths(rng, 3)
    tensor = tensor_from_paths(paths, books, ofdm)

    k_count = ofdm.num_subcarriers
    n_x, n_y = RX_GEOM.n_x, RX_GEOM.n_y
    t_x, t_y = TX_GEOM.n_x, TX_GEOM.n_y
    direct = np.zeros(books.beam_shape + (k_count,), dtype=complex)
    for k in range(k_count):
        h = channel_matrix(paths, TX_GEOM, RX_GEOM, k, ofdm.subcarrier_spacing)
        # element axes: kron(ax, ay) means x is slow, y fast
        e = h.reshape(n_x, n_y, t_x, t_y).transpose(1, 0, 3, 2)  # [y, x, ty, tx]
        direct[..., k] = np.einsum(
            "ya,xb,tc,ud,yxtu->abcd",
            books.rx_el.matrix.conj(),
            books.rx_az.matrix.conj(),
            books.tx_el.matrix,
            books.tx_az.matrix,
            e,
            optimize=True,
        )
    np.testing.assert_allclose(tensor, ofdm.tx_amplitude * direct, rtol=1e-10, atol=1e-9)


def test_square_codebooks_invert_to_element_space():
    # with square codebooks the beamforming is a bijection per axis
    rng = np.random.default_rng(2)
    books = small_books(square=True)
    ofdm = OfdmConfig(num_subcarriers=4)
    paths = random_paths(rng, 2)
    tensor = tensor_from_paths(paths, books, ofdm)

    e = tensor
    e = np.linalg.solve(books.rx_el.matrix.conj().T, np.moveaxis(e, 0, 0).reshape(4, -1)).reshape(e.shape)
    e = np.moveaxis(np.linalg.solve(books.rx_az.matrix.conj().T, np.moveaxis(e, 1, 0).reshape(4, -1)).reshape(4, 4, 4, 4, 4), 0, 1)
    e = np.moveaxis(np.linalg.solve(books.tx_el.matrix.T, np.moveaxis(e, 2, 0).reshape(4, -1)).reshape(4, 4, 4, 4, 4), 0, 2)
    e = np.moveaxis(np.linalg.solve(books.tx_az.matrix.T, np.moveaxis(e, 3, 0).reshape(4, -1)).reshape(4, 4, 4, 4, 4), 0, 3)

    for k in range(4):
        h = channel_matrix(paths, TX_GEOM, RX_GEOM, k, ofdm.subcarrier_spacing)
        expected = h.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2)
        np.testing.assert_allclose(
            e[..., k], ofdm.tx_amplitude * expected, rtol=1e-9, atol=1e-9
        )


def test_path_beam_factors_consistent_with_tensor():
    rng = np.random.default_rng(3)
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    (p,) = random_paths(rng, 1)
    fs = path_beam_factors(p, books, ofdm)
    manual = ofdm.tx_amplitude * p.gain * np.einsum(
        "a,b,c,d,e->abcde", *fs, optimize=True
    )
    np.testing.assert_allclose(tensor_from_paths([p], books, ofdm), manual, atol=1e-12)
    # no paths: the zero tensor of the same shape
    empty = tensor_from_paths([], books, ofdm)
    assert empty.shape == manual.shape == books.beam_shape + (ofdm.num_subcarriers,)
    assert empty.dtype == complex and not empty.any()


def test_measurement_tensor_shape_validation():
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    with pytest.raises(ValueError):
        MeasurementTensor(
            data=np.zeros((4, 4, 2, 2, 7), dtype=complex), codebooks=books, ofdm=ofdm
        )
    shape = books.beam_shape + (8,)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        data = np.zeros(shape, dtype=complex)
        data[1, 2, 0, 1, 3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            MeasurementTensor(data=data, codebooks=books, ofdm=ofdm)
    with pytest.raises(ValueError, match="noise variance"):
        MeasurementTensor(
            data=np.zeros(shape, dtype=complex), codebooks=books, ofdm=ofdm,
            noise_var=float("nan"),
        )
    # an infinite noise level would zero the model order and the noise floor
    with pytest.raises(ValueError, match="noise_var must be finite"):
        MeasurementTensor(
            data=np.zeros(shape, dtype=complex), codebooks=books, ofdm=ofdm,
            noise_var=float("inf"),
        )


def test_measurement_tensor_stores_c_order():
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    data = np.arange(8 * 2 * 2 * 4 * 4, dtype=complex).reshape(8, 2, 2, 4, 4).T
    tensor = MeasurementTensor(data=data, codebooks=books, ofdm=ofdm)
    assert tensor.data.flags.c_contiguous
    assert np.array_equal(tensor.data, data)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def test_expected_noise_energy_matches_samples():
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    var = 0.37
    rng = np.random.default_rng(12)
    energies = [
        float(np.vdot(n, n).real)
        for n in (beamspace_noise(books, ofdm, var, rng) for _ in range(300))
    ]
    assert np.mean(energies) == pytest.approx(
        expected_noise_energy(books, ofdm, var), rel=0.05
    )


def test_noise_covariance_kronecker_small():
    # quick structural check; the acceptance suite does the strict version
    rx_el = BeamCodebook(
        matrix=np.array([[1.0, 1.0], [1.0, 1.0j]], dtype=complex),
        axis="rx_el", beam_indices=(0, 1),
    )
    rx_az = dft_codebook(2, 2, "rx_az")
    books = CodebookSet(
        rx_el=rx_el, rx_az=rx_az,
        tx_el=dft_codebook(2, 1, "tx_el"), tx_az=dft_codebook(2, 1, "tx_az"),
        rx_geom=UpaGeometry(2, 2, 0.01, 0.02), tx_geom=UpaGeometry(2, 2, 0.01, 0.02),
    )
    ofdm = OfdmConfig(num_subcarriers=2)
    var = 1.0
    rng = np.random.default_rng(77)
    dim = 2 * 2 * 1 * 1 * 2
    draws = 8000
    acc = np.zeros((dim, dim), dtype=complex)
    for _ in range(draws):
        v = beamspace_noise(books, ofdm, var, rng).ravel(order="F")
        acc += np.outer(v, v.conj())
    sample = acc / draws
    expected = var * np.kron(
        np.eye(2), np.kron(np.eye(1), np.kron(np.eye(1), np.kron(rx_az.gram(), rx_el.gram())))
    )
    err = np.linalg.norm(sample - expected) / np.linalg.norm(expected)
    assert err < 0.08


@pytest.mark.parametrize("which", ["stock", "small", "fewer_az_beams"])
def test_beamspace_noise_is_the_einsum(which):
    # bit for bit where the einsum also contracts the elevation axis first;
    # with fewer azimuth than elevation beams it goes the other way round
    books = {
        "stock": lambda: default_scenario().books,
        "small": small_books,
        "fewer_az_beams": lambda: CodebookSet(
            rx_el=dft_codebook(4, 3, "rx_el"), rx_az=dft_codebook(4, 2, "rx_az"),
            tx_el=dft_codebook(4, 2, "tx_el"), tx_az=dft_codebook(4, 3, "tx_az"),
            rx_geom=RX_GEOM, tx_geom=TX_GEOM,
        ),
    }[which]()
    ofdm = OfdmConfig() if which == "stock" else OfdmConfig(num_subcarriers=8)
    for seed in range(20):
        mine, ref = (np.random.Generator(np.random.Philox(key=[seed, 1])) for _ in range(2))
        noise = beamspace_noise(books, ofdm, 0.37, mine)
        expected = einsum_beamspace_noise(books, ofdm, 0.37, ref)
        if which == "fewer_az_beams":
            np.testing.assert_allclose(noise, expected, rtol=0.0, atol=1e-14)
        else:
            assert np.array_equal(noise, expected)


# ---------------------------------------------------------------------------
# End-to-end synthesis
# ---------------------------------------------------------------------------


def _one_path_scene():
    tx = TransmitterNode(position=[0.0, 0.0, 14.0], array=TX_GEOM)
    rx = ReceiverNode(
        node_id=0, position=[40.0, 0.0, 1.0], orientation=BORESIGHT_ALONG_X.copy(),
        timing_offset=0.0, array=RX_GEOM,
    )
    return Scene(tx=tx, receivers=[rx], targets=[], clutter=[])


def test_synthesize_noiseless_rank_one():
    scene = _one_path_scene()
    ofdm = OfdmConfig(num_subcarriers=16, noise_variance_dbm=float("-inf"))
    tensor = synthesize_tensor(scene, 0, small_books(), ofdm, noise_seed=0)
    assert tensor.noise_var == 0.0
    cp = cpd_als(tensor, 1, AlsOptions(restarts=1, seed=0))
    assert cp.residual <= 1e-10 * np.linalg.norm(tensor.data)


def test_synthesize_snr_calibration():
    scene = _one_path_scene()
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=16)
    tensor = synthesize_tensor(scene, 0, books, ofdm, noise_seed=3, effective_snr_db=20.0)
    signal = tensor_from_paths(generate_ground_truth_paths(scene, 0), books, ofdm)
    sig_energy = float(np.vdot(signal, signal).real)
    assert sig_energy / expected_noise_energy(books, ofdm, tensor.noise_var) == pytest.approx(100.0)
    noise = tensor.data - signal
    measured = float(np.vdot(noise, noise).real)
    assert measured == pytest.approx(expected_noise_energy(books, ofdm, tensor.noise_var), rel=0.2)


def test_synthesize_deterministic_in_seed():
    scene = _one_path_scene()
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    a = synthesize_tensor(scene, 0, books, ofdm, noise_seed=5, effective_snr_db=20.0)
    b = synthesize_tensor(scene, 0, books, ofdm, noise_seed=5, effective_snr_db=20.0)
    np.testing.assert_array_equal(a.data, b.data)
    c = synthesize_tensor(scene, 0, books, ofdm, noise_seed=6, effective_snr_db=20.0)
    assert not np.array_equal(a.data, c.data)


def test_synthesize_rejects_mismatched_arrays():
    scene = _one_path_scene()
    books = CodebookSet(
        rx_el=dft_codebook(8, 8, "rx_el"), rx_az=dft_codebook(8, 8, "rx_az"),
        tx_el=dft_codebook(4, 2, "tx_el"), tx_az=dft_codebook(4, 2, "tx_az"),
        rx_geom=UpaGeometry(8, 8, 0.01, 0.02), tx_geom=TX_GEOM,
    )
    with pytest.raises(ValueError, match="receiver array differs"):
        synthesize_tensor(scene, 0, books, OfdmConfig(num_subcarriers=8), noise_seed=0)
    # the right receiver array, but a transmitter at another wavelength
    books = replace(small_books(), tx_geom=UpaGeometry(4, 4, 0.01, 0.03))
    with pytest.raises(ValueError, match="transmitter array differs"):
        synthesize_tensor(scene, 0, books, OfdmConfig(num_subcarriers=8), noise_seed=0)


# ---------------------------------------------------------------------------
# File round trip
# ---------------------------------------------------------------------------


def test_export_load_round_trip(tmp_path):
    scene = _one_path_scene()
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    tensor = synthesize_tensor(scene, 0, books, ofdm, noise_seed=1, effective_snr_db=30.0)
    prefix = str(tmp_path / "rx0")
    bin_path, json_path = export_tensor(tensor, prefix)
    with open(json_path) as fh:
        header = json.load(fh)
    assert header["format"] == "disacsim-tensor/1"
    assert header["shape"] == list(tensor.data.shape)

    back = load_tensor(prefix)
    np.testing.assert_array_equal(back.data, tensor.data)
    # either file's path reads as its prefix
    for path in (json_path, bin_path):
        np.testing.assert_array_equal(load_tensor(str(path)).data, tensor.data)
    assert back.noise_var == tensor.noise_var
    assert back.ofdm == tensor.ofdm
    np.testing.assert_array_equal(back.codebooks.rx_el.matrix, books.rx_el.matrix)
    assert back.codebooks.tx_az.beam_indices == books.tx_az.beam_indices

    # a non-contiguous beam list is not a DFT sector the writer could emit
    header["codebooks"]["rx_az"]["beam_indices"] = [0, 2]
    with open(json_path, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match="rx_az beam indices"):
        load_tensor(prefix)

    header["format"] = "disacsim-tensor/2"
    with open(json_path, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(ValueError, match="unrecognized tensor format 'disacsim-tensor/2'"):
        load_tensor(prefix)


def test_tensor_file_is_interleaved_float64_in_c_order(tmp_path):
    books = small_books()
    ofdm = OfdmConfig(num_subcarriers=8)
    tensor = synthesize_tensor(_one_path_scene(), 0, books, ofdm, noise_seed=2)
    # a transposed view has a different memory layout but must write the same bytes
    tensor.data = np.ascontiguousarray(tensor.data.T).T
    bin_path, _ = export_tensor(tensor, str(tmp_path / "rx0"))
    flat = np.fromfile(bin_path, dtype=np.float64)
    expected = np.empty(2 * tensor.data.size)
    expected[0::2] = tensor.data.real.ravel(order="C")
    expected[1::2] = tensor.data.imag.ravel(order="C")
    np.testing.assert_array_equal(flat, expected)


@pytest.mark.parametrize("extra", [1, -1])
def test_load_rejects_a_payload_off_by_one_float(tmp_path, extra):
    tensor = synthesize_tensor(
        _one_path_scene(), 0, small_books(), OfdmConfig(num_subcarriers=8), noise_seed=2
    )
    prefix = str(tmp_path / "rx0")
    bin_path, _ = export_tensor(tensor, prefix)
    flat = np.fromfile(bin_path, dtype=np.float64)
    flat = np.append(flat, 1.0) if extra > 0 else flat[:-1]
    flat.tofile(bin_path)
    with pytest.raises(ValueError, match="payload size"):
        load_tensor(prefix)
