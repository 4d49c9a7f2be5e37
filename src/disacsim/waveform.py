"""Beamspace measurement synthesis for one transmitter-receiver pair.

The transmitter sounds every (tx beam, rx beam, subcarrier) combination
once. Stacking the beamformed outputs gives an order-5 tensor with axes

    [rx elevation beam, rx azimuth beam, tx elevation beam, tx azimuth beam,
     subcarrier]

Each propagation path contributes a rank-1 term: the Kronecker structure
of the planar-array response splits per axis, and the subcarrier profile
of a delay tau is the ramp s_k = exp(-2j*pi*k*spacing*tau). Receiver-side
noise is white at the elements and enters beamspace through the combiner
adjoints, so the beamspace noise covariance is exactly

    sigma^2 * I_K kron I_MTaz kron I_MTel kron (Waz^H Waz) kron (Wel^H Wel)

for the column-major vectorization of the tensor.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .scene import (
    SPEED_OF_LIGHT,
    PathRecord,
    Scene,
    UpaGeometry,
    axis_responses,
    generate_ground_truth_paths,
    phase_ramp,
    steering_vector,
)

# ---------------------------------------------------------------------------
# OFDM configuration
# ---------------------------------------------------------------------------


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class OfdmConfig:
    """Pilot sounding grid. Powers are dBm, frequencies Hz."""

    carrier_freq: float = 15.0e9
    bandwidth: float = 100.0e6
    num_subcarriers: int = 64
    subcarrier_spacing: float | None = None  # defaults to bandwidth / num_subcarriers
    tx_power_dbm: float = 40.0
    noise_variance_dbm: float = -93.85

    def __post_init__(self):
        if self.carrier_freq <= 0 or self.bandwidth <= 0:
            raise ValueError("carrier frequency and bandwidth must be positive")
        if self.num_subcarriers < 1:
            raise ValueError("need at least one subcarrier")
        if self.subcarrier_spacing is None:
            object.__setattr__(
                self, "subcarrier_spacing", self.bandwidth / self.num_subcarriers
            )
        if self.subcarrier_spacing <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.subcarrier_spacing * self.num_subcarriers > self.bandwidth * (1 + 1e-9):
            raise ValueError("sounded subcarriers exceed the bandwidth")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def delay_period(self) -> float:
        """Unambiguous delay range of the subcarrier ramp, 1 / spacing."""
        return 1.0 / self.subcarrier_spacing

    @property
    def delay_resolution(self) -> float:
        """Delay resolution of the aperture: one over the swept bandwidth."""
        return 1.0 / (self.subcarrier_spacing * self.num_subcarriers)

    @property
    def tx_amplitude(self) -> float:
        return float(np.sqrt(dbm_to_watts(self.tx_power_dbm)))

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watts(self.noise_variance_dbm)


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------

AXIS_LABELS = ("rx_el", "rx_az", "tx_el", "tx_az")


@dataclass
class BeamCodebook:
    """Analog beamforming codebook for one array axis.

    matrix has shape (elements, beams); columns are unnormalized DFT
    beams, hence mutually orthogonal with equal norms sqrt(elements).
    beam_indices records which DFT columns were taken.
    """

    matrix: np.ndarray
    axis: str
    beam_indices: tuple[int, ...]

    def __post_init__(self):
        if self.axis not in AXIS_LABELS:
            raise ValueError(f"axis must be one of {AXIS_LABELS}, got {self.axis!r}")
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2:
            raise ValueError("codebook matrix must be 2-D (elements x beams)")
        norms = np.linalg.norm(self.matrix, axis=0)
        if norms.size and not np.allclose(norms, norms[0], rtol=1e-9):
            raise ValueError("codebook columns must have equal norms")

    @property
    def num_elements(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_beams(self) -> int:
        return self.matrix.shape[1]

    def gram(self) -> np.ndarray:
        return self.matrix.conj().T @ self.matrix


def dft_codebook(axis_size: int, num_beams: int, axis: str, first_beam: int | None = None) -> BeamCodebook:
    """Take ``num_beams`` columns of the size-``axis_size`` DFT matrix.

    By default the selection is centered on broadside (indices
    -floor(M/2) .. ceil(M/2)-1 modulo N) so the beams tile a symmetric
    sector; pass ``first_beam`` to aim the sector elsewhere, e.g. a
    downtilted elevation fan.
    """
    if not 1 <= num_beams <= axis_size:
        raise ValueError(f"num_beams must lie in [1, {axis_size}], got {num_beams}")
    if first_beam is None:
        first_beam = -(num_beams // 2)
    indices = tuple(int((first_beam + j) % axis_size) for j in range(num_beams))
    n = np.arange(axis_size)[:, None]
    cols = np.exp(-2j * np.pi * n * np.asarray(indices)[None, :] / axis_size)
    return BeamCodebook(matrix=cols, axis=axis, beam_indices=indices)


def axis_elements(label: str, rx_geom: UpaGeometry, tx_geom: UpaGeometry) -> int:
    """Element count of the array axis that codebook ``label`` addresses."""
    geom = rx_geom if label.startswith("rx") else tx_geom
    return geom.n_x if label.endswith("az") else geom.n_y


@dataclass
class CodebookSet:
    """The four per-axis codebooks plus the array geometries they address."""

    rx_el: BeamCodebook
    rx_az: BeamCodebook
    tx_el: BeamCodebook
    tx_az: BeamCodebook
    rx_geom: UpaGeometry
    tx_geom: UpaGeometry

    def __post_init__(self):
        for label in AXIS_LABELS:
            cb = getattr(self, label)
            n_expected = axis_elements(label, self.rx_geom, self.tx_geom)
            if cb.axis != label:
                raise ValueError(f"codebook in slot {label} is labeled {cb.axis}")
            if cb.num_elements != n_expected:
                raise ValueError(
                    f"{label} codebook has {cb.num_elements} element rows, "
                    f"array axis has {n_expected}"
                )

    @property
    def beam_shape(self) -> tuple[int, int, int, int]:
        return tuple(getattr(self, label).num_beams for label in AXIS_LABELS)


def beam_response(codebook: BeamCodebook, ramp: np.ndarray) -> np.ndarray:
    """Beamspace signature of a per-axis phase ramp.

    Receive axes apply the combiner adjoint W^H a. Transmit axes see the
    steering vector conjugated (the channel couples a_T^H into the
    precoder), giving conj(F^H a). ``ramp`` is (..., elements): any leading
    axes are kept, and the beam axis replaces the element axis.
    """
    resp = np.asarray(ramp) @ codebook.matrix.conj()
    if codebook.axis.startswith("tx"):
        return resp.conj()
    return resp


# ---------------------------------------------------------------------------
# Channel and tensor synthesis
# ---------------------------------------------------------------------------


def channel_matrix(
    paths: list[PathRecord],
    tx_geom: UpaGeometry,
    rx_geom: UpaGeometry,
    subcarrier: int,
    spacing: float,
) -> np.ndarray:
    """Element-space frequency-domain channel at one subcarrier.

    H_k = sum_paths gain * exp(-2j*pi*k*spacing*delay) * a_R a_T^H with
    a_R, a_T the full Kronecker responses. Shape (rx elements, tx
    elements).
    """
    h = np.zeros((rx_geom.num_elements, tx_geom.num_elements), dtype=complex)
    for p in paths:
        a_r = steering_vector(p.aoa, rx_geom)
        a_t = steering_vector(p.aod, tx_geom)
        phase = np.exp(-2j * np.pi * subcarrier * spacing * p.delay)
        h += p.gain * phase * np.outer(a_r, a_t.conj())
    return h


def path_beam_factors(
    path: PathRecord, books: CodebookSet, ofdm: OfdmConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The five per-axis signatures of one path (unit gain).

    Only ``aoa``, ``aod`` and ``delay`` are read, so an estimator's
    ``EstimatedPath`` serves as well as a ground-truth ``PathRecord``.
    """
    rx_ax, rx_ay = axis_responses(path.aoa, books.rx_geom)
    tx_ax, tx_ay = axis_responses(path.aod, books.tx_geom)
    omega = -2.0 * np.pi * ofdm.subcarrier_spacing * path.delay
    return (
        beam_response(books.rx_el, rx_ay),
        beam_response(books.rx_az, rx_ax),
        beam_response(books.tx_el, tx_ay),
        beam_response(books.tx_az, tx_ax),
        phase_ramp(omega, ofdm.num_subcarriers),
    )


@dataclass
class MeasurementTensor:
    """Order-5 beamspace snapshot plus the metadata needed to invert it.

    data axes: [rx_el beams, rx_az beams, tx_el beams, tx_az beams,
    subcarriers]. noise_var is the element-level noise power (W) actually
    injected, which downstream model-order selection relies on.
    """

    data: np.ndarray
    codebooks: CodebookSet
    ofdm: OfdmConfig
    noise_var: float = 0.0

    def __post_init__(self):
        # C order makes every unfolding of the estimator a view, not a copy
        self.data = np.ascontiguousarray(self.data, dtype=complex)
        expected = self.codebooks.beam_shape + (self.ofdm.num_subcarriers,)
        if self.data.shape != expected:
            raise ValueError(
                f"tensor shape {self.data.shape} does not match codebooks/subcarriers {expected}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("tensor data contains NaN or inf")
        if not 0.0 <= self.noise_var < np.inf:  # NaN fails too
            raise ValueError(
                f"noise variance noise_var must be finite and nonnegative, got {self.noise_var!r}"
            )


def rank_one_sum(gains: np.ndarray, stacked: list[np.ndarray]) -> np.ndarray:
    """Order-5 tensor sum_l gains[l] * stacked[0][l] o ... o stacked[4][l].

    stacked[i] has shape (terms, dim_i): one row per rank-1 term. The
    result has C order, so that flattening it (vdot, unfoldings) is a view.
    """
    return np.ascontiguousarray(
        np.einsum("l,la,lb,lc,ld,le->abcde", gains, *stacked, optimize=True)
    )


def tensor_from_paths(
    paths: list[PathRecord],
    books: CodebookSet,
    ofdm: OfdmConfig,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Noise-free beamspace tensor for a list of paths.

    gains defaults to tx_amplitude * path.gain; pass explicit values to
    plant arbitrary coefficients.
    """
    if not paths:
        return np.zeros(books.beam_shape + (ofdm.num_subcarriers,), dtype=complex)
    if gains is None:
        gains = np.array([ofdm.tx_amplitude * p.gain for p in paths])
    factors = [path_beam_factors(p, books, ofdm) for p in paths]
    return rank_one_sum(np.asarray(gains), [np.stack([f[i] for f in factors]) for i in range(5)])


# entries (256 KiB) of the operand block of one product in the blocked
# tensor contractions (here and in estimator._mode_gram)
BLOCK_ENTRIES = 1 << 14


def _apply_adjoint(matrix: np.ndarray, x: np.ndarray):
    """Overwrite the first rows of ``x`` (elements x columns), one per beam,
    with matrix^H x, a block of columns at a time: each output column
    depends on its own input column alone, so no second array of x's size
    is needed."""
    adjoint = matrix.conj().T
    step = max(1, BLOCK_ENTRIES // len(x))
    for j in range(0, x.shape[1], step):
        x[:len(adjoint), j:j + step] = adjoint @ x[:, j:j + step]


def beamspace_noise(
    books: CodebookSet, ofdm: OfdmConfig, noise_var: float, rng: np.random.Generator
) -> np.ndarray:
    """Receiver noise in beamspace with exactly the advertised covariance.

    Element-space circular white noise of variance ``noise_var`` is drawn
    for every (tx beam pair, subcarrier) sounding and pushed through the
    per-axis combiner adjoints, in place: the element noise is the only
    array of the tensor's size, and the result is a view of it.
    """
    m_el, m_az, mt_el, mt_az = books.beam_shape
    n_y = books.rx_geom.n_y
    n_x = books.rx_geom.n_x
    k = ofdm.num_subcarriers
    z = np.empty((n_y, n_x, mt_el * mt_az * k), dtype=complex)
    # every real part, then every imaginary part, drawn one y row at a time
    for part in (z.real, z.imag):
        for row in part:
            row[...] = rng.standard_normal(row.shape)
    z *= np.sqrt(noise_var / 2.0)
    # W_el^H on the y axis, then W_az^H on the x axis of each el beam
    _apply_adjoint(books.rx_el.matrix, z.reshape(n_y, -1))
    for a in range(m_el):
        _apply_adjoint(books.rx_az.matrix, z[a])
    return z[:m_el, :m_az].reshape(m_el, m_az, mt_el, mt_az, k)


def expected_noise_energy(books: CodebookSet, ofdm: OfdmConfig, noise_var: float) -> float:
    """E ||N||_F^2 of the beamspace noise tensor."""
    tr_el = float(np.real(np.trace(books.rx_el.gram())))
    tr_az = float(np.real(np.trace(books.rx_az.gram())))
    mt_el, mt_az = books.tx_el.num_beams, books.tx_az.num_beams
    return noise_var * ofdm.num_subcarriers * mt_el * mt_az * tr_az * tr_el


def synthesize_tensor(
    scene: Scene,
    rx_id: int,
    books: CodebookSet,
    ofdm: OfdmConfig,
    noise_seed: int,
    effective_snr_db: float | None = None,
) -> MeasurementTensor:
    """Sound the channel of one receiver and return its beamspace tensor.

    The noise power is ofdm.noise_variance_dbm unless ``effective_snr_db``
    is given, in which case it is calibrated so that
    ||signal||^2 / E||noise||^2 hits the requested ratio (the usual knob
    for controlled accuracy sweeps).
    """
    rx = scene.receiver(rx_id)
    if rx.array != books.rx_geom:
        raise ValueError("receiver array differs from the codebook geometry")
    if scene.tx.array != books.tx_geom:
        raise ValueError("transmitter array differs from the codebook geometry")
    paths = generate_ground_truth_paths(scene, rx_id)
    signal = tensor_from_paths(paths, books, ofdm)
    if effective_snr_db is None:
        noise_var = ofdm.noise_power_w
    else:
        sig_energy = float(np.vdot(signal, signal).real)
        unit_noise = expected_noise_energy(books, ofdm, 1.0)
        noise_var = sig_energy / (unit_noise * 10.0 ** (effective_snr_db / 10.0))
    rng = np.random.Generator(np.random.Philox(key=[noise_seed, 1]))
    data = signal
    if noise_var > 0.0:
        data += beamspace_noise(books, ofdm, noise_var, rng)
    return MeasurementTensor(data=data, codebooks=books, ofdm=ofdm, noise_var=noise_var)


# ---------------------------------------------------------------------------
# Tensor file format
# ---------------------------------------------------------------------------
#
# <prefix>.bin: the 5-D array as complex128 in C order, i.e. float64 pairs
# (re, im) in the machine's byte order.
# <prefix>.json: shape, axis order, codebook recipe, noise power, and the
# fields of the OfdmConfig and of both UpaGeometry objects.


def export_tensor(tensor: MeasurementTensor, prefix: str) -> tuple[str, str]:
    """Write <prefix>.bin and <prefix>.json; returns both paths."""
    bin_path, json_path = prefix + ".bin", prefix + ".json"
    tensor.data.tofile(bin_path)  # C order whatever the memory layout
    books = tensor.codebooks
    header = {
        "format": "disacsim-tensor/1",
        "shape": list(tensor.data.shape),
        "axes": [*AXIS_LABELS, "subcarrier"],
        "storage": "row-major float64 interleaved re/im",
        "noise_var": tensor.noise_var,
        "ofdm": asdict(tensor.ofdm),
        "rx_geom": asdict(books.rx_geom),
        "tx_geom": asdict(books.tx_geom),
        "codebooks": {
            label: {
                "axis_size": getattr(books, label).num_elements,
                "beam_indices": list(getattr(books, label).beam_indices),
            }
            for label in AXIS_LABELS
        },
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return bin_path, json_path


def _int_list(value, minimum: float = -np.inf) -> bool:
    return isinstance(value, list) and all(type(n) is int and n >= minimum for n in value)


# what a tensor header value may be, by kind: (description, test)
_HEADER_KINDS = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "number": ("a finite number",
               lambda v: type(v) is int or type(v) is float and math.isfinite(v)),
    "integer": ("an integer", lambda v: type(v) is int),
    "indices": ("a list of integers", _int_list),
    "shape": ("a list of positive integers", lambda v: _int_list(v, 1)),
}


class _Header(dict):
    """A JSON object of a tensor header: a missing key, or a value of the
    wrong kind (see _HEADER_KINDS), is a ValueError naming the key."""

    def __missing__(self, key):
        raise ValueError(f"tensor header lacks key {key!r}")

    def take(self, key: str, kind: str):
        value = self[key]
        what, test = _HEADER_KINDS[kind]
        if not test(value):
            raise ValueError(f"tensor header key {key!r} must be {what}, got {value!r}")
        return value


def _record(header: _Header, key: str, cls):
    """The ``cls`` that the header's object ``key`` holds as exactly cls's fields:
    integers where annotated int, finite numbers elsewhere. A failure names ``key``."""
    block = header.take(key, "object")
    kinds = {f.name: "integer" if f.type is int else "number" for f in fields(cls)}
    try:
        if not block.keys() <= kinds.keys():
            raise ValueError(f"unknown key(s) {sorted(block.keys() - kinds.keys())}")
        return cls(**{name: block.take(name, kind) for name, kind in kinds.items()})
    except ValueError as exc:
        raise ValueError(f"tensor header key {key!r} holds no {cls.__name__}: {exc}") from exc


def load_tensor(prefix: str) -> MeasurementTensor:
    """Read a tensor written by :func:`export_tensor` (pass the same prefix).

    A header that lacks a key, or holds a value of the wrong kind (an
    object, a finite number, integers; see _HEADER_KINDS), is a ValueError
    naming the key; so is an ``ofdm`` or geometry block whose keys are not
    its dataclass's fields (see _record).
    """
    if prefix.endswith(".json") or prefix.endswith(".bin"):
        prefix = prefix.rsplit(".", 1)[0]
    with open(prefix + ".json") as fh:
        header = json.load(fh, object_hook=_Header)
    if header.get("format") != "disacsim-tensor/1":
        raise ValueError(f"unrecognized tensor format {header.get('format')!r}")
    shape = header.take("shape", "shape")
    bin_path = prefix + ".bin"
    if os.path.getsize(bin_path) != np.dtype(np.complex128).itemsize * int(np.prod(shape)):
        raise ValueError("binary payload size does not match the header shape")
    data = np.fromfile(bin_path, dtype=np.complex128).reshape(shape)
    ofdm = _record(header, "ofdm", OfdmConfig)
    geoms = {key: _record(header, key, UpaGeometry) for key in ("rx_geom", "tx_geom")}
    books_spec = header.take("codebooks", "object")
    cbs = {}
    for label in AXIS_LABELS:
        spec = books_spec.take(label, "object")
        idx = tuple(spec.take("beam_indices", "indices"))
        axis_size = spec.take("axis_size", "integer")
        cb = dft_codebook(axis_size, len(idx), label, first_beam=idx[0] if idx else None)
        if cb.beam_indices != idx:
            raise ValueError(
                f"{label} beam indices {list(idx)} are not a contiguous DFT sector"
            )
        cbs[label] = cb
    books = CodebookSet(**cbs, **geoms)
    return MeasurementTensor(
        data=data, codebooks=books, ofdm=ofdm, noise_var=header.take("noise_var", "number")
    )

