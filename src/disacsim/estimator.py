"""Multipath parameter estimation from one beamspace tensor.

The measurement tensor of a receiver is (noise aside) a sum of L rank-1
terms, one per propagation path. Estimation proceeds in three steps:

1. model order: count singular values of the mode unfoldings (square
   roots of the eigenvalues of the mode Grams) that clear a noise-floor
   threshold derived from the injected noise power;
2. canonical polyadic decomposition by alternating least squares with
   random restarts, stacked on one leading axis and run together; each
   sweep takes the MTTKRPs of all restarts from a dimension tree (two
   GEMMs over the tensor), checks each Gram's condition from its
   eigenvalues, and takes its residual from the norm identity, or
   directly near an exact fit; the first restart to converge at the
   tensor's expected noise residual ends the decomposition (see cpd_als);
3. per-path parameter extraction from the factor columns: each spatial
   column is matched against the beamspace signature of a phase ramp (a
   dense grid scan, whose ramps are built once per element count, then a
   golden-section refinement; all columns of a factor go through both
   together, one stacked product per step), the two per-array ramps are
   jointly inverted into angles, and the subcarrier column yields the
   delay through its shift invariance. Gains are re-fit by least squares
   against the rank-1 signatures of the extracted parameters.
"""

import functools
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import AnglePair, angles_from_cosines
from .scene import phase_ramp
from .waveform import (
    BLOCK_ENTRIES,
    BeamCodebook,
    MeasurementTensor,
    beam_response,
    expected_noise_energy,
    path_beam_factors,
)

logger = logging.getLogger(__name__)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# correlation threshold below which an extracted parameter is distrusted
LOW_CONFIDENCE_CORR = 0.5

DEFAULT_MAX_RANK = 12  # cap on the automatically selected model order
COND_LIMIT = 1.0e12  # ALS Gram matrices worse conditioned than this are rank deficient
NOISE_MARGIN = 1.4  # see select_model_order
# singular values below this share of the largest are roundoff: the Gram
# route of select_model_order resolves them only down to about sqrt(eps) ~ 1e-8
REL_FLOOR = 1.0e-6
# coarse ramp scan of extract_angle; its ramps are memoised per element count
# (_grid_ramp) and each call scores all of a factor's columns against them at once
ANGLE_GRID_POINTS = 2048
# a restart of cpd_als that converges within this factor of the tensor's
# expected noise residual ends the call: the other restarts could only tie it
FLOOR_MARGIN = 1.01


class RankDeficiencyError(RuntimeError):
    """A least-squares subproblem inside ALS lost rank."""


class AlsMonotonicityError(RuntimeError):
    """The ALS residual increased across a sweep (should never happen)."""


@dataclass
class AlsOptions:
    """ALS stopping rule and restarts.

    The defaults are the stock values of the scenario's estimation section
    and of ``disacsim estimate``; acceptance criterion 2 and the lattice
    benchmark run 5 restarts. cpd_als also stops at the noise floor, which
    it reads from the tensor, not from these options.
    """

    max_sweeps: int = 300
    rel_tol: float = 1.0e-8
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1 or self.restarts < 1:
            raise ValueError("max_sweeps and restarts must be at least 1")
        if not self.rel_tol >= 0.0:  # NaN fails too; below 0 the tolerance stop never fires
            raise ValueError(f"rel_tol must be a number >= 0, got {self.rel_tol!r}")


@dataclass
class CpFactors:
    """CPD result: unit-norm factor columns and complex gains.

    factors[i] has shape (dim_i, rank); every column has unit 2-norm and
    its largest-magnitude entry rotated to the positive real axis, so the
    decomposition is unique up to column permutation when the underlying
    model is. residual_history is the per-sweep absolute residual of the
    winning restart (empty for a zero tensor, which needs no sweep),
    sweeps its length, and converged tells whether that restart stopped
    on rel_tol or an exact fit (True) or at max_sweeps (False). None of
    these enter a canonical record.
    """

    factors: list[np.ndarray]
    gains: np.ndarray
    residual: float
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def rank(self) -> int:
        return len(self.gains)

    @property
    def sweeps(self) -> int:
        return len(self.residual_history)


def _pivot_rotation(column: np.ndarray) -> complex:
    """Unit phasor turning a column's largest-magnitude entry real positive.

    A zero column needs no turn: the rotation is then 1.
    """
    pivot = column[int(np.argmax(np.abs(column)))]
    return np.conj(pivot) / abs(pivot) if pivot != 0 else 1.0


def _tensor_data(tensor) -> np.ndarray:
    return tensor.data if isinstance(tensor, MeasurementTensor) else np.asarray(tensor)


def _khatri_rao(mats: list[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product, first matrix varying slowest.

    Leading axes broadcast: (..., n_i, L) factors give (..., prod n_i, L).
    """
    out = mats[0]
    for m in mats[1:]:
        out = out[..., :, None, :] * m[..., None, :, :]
        out = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    return out


# the small operands are made contiguous so that matmul hands each product to
# BLAS; leading axes (the restarts of cpd_als) broadcast
def _contract_last(y: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """sum_n y[..., l, x, n] conj(factor[..., n, l]): contracts (L, X, n) to (L, X)."""
    small = np.ascontiguousarray(factor.swapaxes(-1, -2).conj())
    return np.matmul(y, small[..., None])[..., 0]


def _contract_lead(kr_conj: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_x kr_conj[..., x, l] y[..., l, x, n]: contracts (L, X, n) to the (n, L) MTTKRP."""
    small = np.ascontiguousarray(kr_conj.swapaxes(-1, -2))
    return np.matmul(small[..., None, :], y)[..., 0, :].swapaxes(-1, -2)


def _update_mode(factors, grams, mode: int, v: np.ndarray, restarts: np.ndarray):
    """Update one mode of every stacked restart from its MTTKRP ``v`` (K, n, L).

    factors[m] is (K, n_m, L) and grams[m] (K, L, L); restarts names the
    restart of each stack entry. Returns the (K, L, L) Gram products.
    """
    rank = v.shape[-1]
    others = [grams[m] for m in range(len(factors)) if m != mode]
    g = others[0].copy()
    for gram in others[1:]:
        g *= gram
    # g is Hermitian, so its 2-norm condition is lambda_max / lambda_min; a
    # non-finite g is zeroed so that it reads as singular
    finite = np.isfinite(g).all(axis=(-2, -1))
    lam = np.linalg.eigvalsh(g if finite.all() else np.where(finite[:, None, None], g, 0.0))
    lo, hi = lam[:, 0], lam[:, -1]
    g_cond = np.divide(hi, lo, out=np.full_like(lo, np.inf), where=lo > 0.0)
    bad = g_cond > COND_LIMIT
    if bad.any():
        k = int(np.argmax(bad))
        raise RankDeficiencyError(
            f"restart {restarts[k]}: mode-{mode} least-squares system is rank deficient "
            f"(condition {g_cond[k]:.2e}); the tensor likely has rank < {rank}"
        )
    # normal equations: new = V conj(G)^-1, and G is Hermitian
    new = np.linalg.solve(g, v.swapaxes(-1, -2)).swapaxes(-1, -2)
    if mode != len(factors) - 1:
        norms = np.linalg.norm(new, axis=-2, keepdims=True)
        norms[norms == 0.0] = 1.0
        new = new / norms
    factors[mode] = new
    grams[mode] = new.swapaxes(-1, -2).conj() @ new
    return g


def cpd_als(tensor, rank: int, opts: AlsOptions | None = None) -> CpFactors:
    """Rank-``rank`` canonical polyadic decomposition of an order-5 tensor.

    Alternating least squares from random complex Gaussian starts. Each
    restart r draws its start from a Philox generator keyed
    ``[seed + r, 2]``. These streams are not independent across
    calls whose seeds lie closer than the restart count: in a trial,
    harness.receiver_seed gives neighbouring receivers seeds one apart, so
    receiver 0's restart 1 starts where receiver 1's restart 0 does, and
    so on along the diagonal (ROADMAP item 2 gives the restart its own key
    word, which moves every canonical digest). The
    residual of each restart is checked to be non-increasing across sweeps,
    which exact per-mode least squares guarantees up to roundoff.

    All restarts run together: every factor is stacked as (K, n_i, L) and
    every Gram as (K, L, L) over the K restarts still running. A restart
    that meets its stopping rule is recorded and leaves the stack; the
    others go on.

    The winner is chosen in one of two ways:

    - Noise floor (a MeasurementTensor with noise_var > 0 only). The floor
      is sqrt(expected_noise_energy), about the residual the true model
      itself leaves. A restart that stops on rel_tol or on the exact-fit
      test with residual <= FLOOR_MARGIN * floor wins at once, and the
      restarts still running are dropped. Every restart that converges there reaches the
      same fit, so more sweeps could only let roundoff choose among equal
      fits; this is the stop of Morozov's discrepancy principle. If several
      restarts qualify in the same sweep, the lowest r wins.
    - Otherwise (a raw array, noise_var == 0, or no restart converged at the
      floor, for instance because each ended at max_sweeps) every restart
      runs to its own stop and the smallest final residual wins, ties going
      to the lowest r.

    Each sweep updates the modes a, b, c, d, e (rx_el, rx_az, tx_el, tx_az,
    subcarrier) in turn from their MTTKRPs (tensor times the Khatri-Rao
    product of the other, conjugated factors), computed along a dimension
    tree with two passes over the tensor, each one GEMM for all restarts.
    The first pass is Y_e = conj(E_all)^T T_(abcd x e)^T, with E_all the
    restarts' E factors side by side (n_e x K L); contracting d and then c
    out of it gives Y_de and Y_cde. Modes a and b take their MTTKRPs from
    Y_cde, mode c from Y_de with the new A and B, mode d from Y_e with the
    new A, B and C. The second pass is mode e's GEMM,
    T_(abcd x e)^T conj(KR_all), with KR_all the restarts' KR(A, B, C, D)
    side by side. Each mode's Gram product is checked for conditioning
    through its eigenvalues (eigvalsh, lambda_max / lambda_min: the 2-norm
    condition, as the Gram is Hermitian) before it is solved.

    The residual then follows from the norm identity ||T - M||^2 = ||T||^2
    - 2 Re sum(V_e * conj(E)) + sum(G_not_e * E^H E), with V_e mode e's
    MTTKRP and G_not_e the Hadamard product of the other modes' Grams,
    both already at hand. The identity cancels catastrophically near an
    exact fit, so when it gives res^2 <= 1e-6 ||T||^2 the residual is
    computed directly from T - KR(A, B, C, D) E^T instead.

    Raises
    ------
    ValueError
        If the tensor is not of order 5 or rank < 1.
    RankDeficiencyError
        If a mode's least-squares system becomes numerically singular in
        any restart; the message names the restart.
    """
    if opts is None:
        opts = AlsOptions()
    data = _tensor_data(tensor)
    if data.ndim != 5:
        raise ValueError(f"expected an order-5 tensor, got order {data.ndim}")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    norm_t = float(np.linalg.norm(data))
    if norm_t == 0.0:
        # degenerate but well-defined: zero gains reproduce the tensor
        factors = []
        for n in data.shape:
            f = np.zeros((n, rank), dtype=complex)
            f[0, :] = 1.0
            factors.append(f)
        return CpFactors(
            factors=factors,
            gains=np.zeros(rank, dtype=complex),
            residual=0.0,
            converged=True,
        )

    n_a, n_b, n_c, n_d, n_e = data.shape
    t_mat = data.reshape(-1, n_e)
    norm_sq = norm_t * norm_t

    rngs = [
        np.random.Generator(np.random.Philox(key=[opts.seed + restart, 2]))
        for restart in range(opts.restarts)
    ]
    factors = [
        np.stack([
            (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
            for rng in rngs
        ])
        for n in data.shape
    ]
    grams = [f.swapaxes(-1, -2).conj() @ f for f in factors]
    # residual at or below which a converged restart wins at once; only a
    # tensor that carries a positive noise level has one
    floor = -np.inf
    if isinstance(tensor, MeasurementTensor) and tensor.noise_var > 0.0:
        energy = expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var)
        floor = FLOOR_MARGIN * float(np.sqrt(energy))
    best = None
    running = np.arange(opts.restarts)
    histories: list[list[float]] = [[] for _ in running]
    # each finished restart's raw factors and whether it converged; only the
    # winner is finalized
    done: dict[int, tuple[list[np.ndarray], bool]] = {}

    def record(k: int, converged: bool):
        done[int(running[k])] = ([f[k] for f in factors], converged)

    for sweep in range(opts.max_sweeps):
        n_run = len(running)
        # first pass: contract e, then d, then c out of the tensor
        e_all = factors[4].transpose(1, 0, 2).reshape(n_e, -1)
        y_e = (e_all.T.conj() @ t_mat.T).reshape(n_run, rank, n_a * n_b * n_c, n_d)
        y_de = _contract_last(y_e, factors[3]).reshape(n_run, rank, n_a * n_b, n_c)
        y_cde = _contract_last(y_de, factors[2]).reshape(n_run, rank, n_a, n_b)
        v_a = _contract_last(y_cde, factors[1]).swapaxes(-1, -2)
        _update_mode(factors, grams, 0, v_a, running)
        kr = factors[0].conj()
        _update_mode(factors, grams, 1, _contract_lead(kr, y_cde), running)
        kr = _khatri_rao([kr, factors[1].conj()])
        _update_mode(factors, grams, 2, _contract_lead(kr, y_de), running)
        kr = _khatri_rao([kr, factors[2].conj()])
        _update_mode(factors, grams, 3, _contract_lead(kr, y_e), running)
        # second pass: mode e over the updated factors. The sweep's largest
        # temporaries, y_e and kr_all, are freed as soon as they are used
        del y_e
        kr = _khatri_rao([kr, factors[3].conj()])
        kr_all = kr.transpose(1, 0, 2).reshape(kr.shape[1], -1)
        v_e = (t_mat.T @ kr_all).reshape(n_e, n_run, rank).transpose(1, 0, 2)
        del kr_all
        g_e = _update_mode(factors, grams, 4, v_e, running)

        keep = np.ones(n_run, dtype=bool)
        for k, r in enumerate(running):
            history = histories[r]
            prev = history[-1] if history else np.inf
            res_sq = (
                norm_sq
                - 2.0 * float(np.sum(v_e[k] * factors[4][k].conj()).real)
                + float(np.sum(g_e[k] * grams[4][k]).real)
            )
            if res_sq > 1.0e-6 * norm_sq:
                res = float(np.sqrt(res_sq))
            else:
                # direct residual: the identity's cancellation is too large here
                res = float(np.linalg.norm(t_mat - kr[k].conj() @ factors[4][k].T))
            history.append(res)
            if res > prev * (1.0 + 1.0e-9) + 1.0e-12 * norm_t:
                raise AlsMonotonicityError(
                    f"restart {r}: residual rose from {prev:.6e} to {res:.6e} at sweep {sweep}"
                )
            if prev - res <= opts.rel_tol * norm_t or res <= 1.0e-13 * norm_t:
                record(k, converged=True)
                keep[k] = False
                if best is None and res <= floor:
                    best = int(r)  # running is ascending: the lowest restart wins
        if best is not None:
            break
        if not keep.all():
            running = running[keep]
            factors = [f[keep] for f in factors]
            grams = [g[keep] for g in grams]
            if not running.size:
                break
    if best is None:
        for k in range(running.size):
            record(k, converged=False)
        # min keeps the first of equal residuals: ties go to the lowest restart
        best = min(range(opts.restarts), key=lambda r: histories[r][-1])
    raw, converged = done[best]
    return _finalize(raw, histories[best], converged)


def _finalize(factors: list[np.ndarray], history: list[float], converged: bool) -> CpFactors:
    rank = factors[0].shape[1]
    gains = np.ones(rank, dtype=complex)
    unit = []
    for f in factors:
        norms = np.linalg.norm(f, axis=0)
        safe = np.where(norms == 0.0, 1.0, norms)
        fn = f / safe
        gains = gains * norms
        cols = []
        for l in range(rank):
            rot = _pivot_rotation(fn[:, l])
            cols.append(fn[:, l] * rot)
            gains[l] = gains[l] / rot
        unit.append(np.stack(cols, axis=1))
    return CpFactors(factors=unit, gains=gains, residual=history[-1], residual_history=history,
                     converged=converged)


# ---------------------------------------------------------------------------
# Model-order selection
# ---------------------------------------------------------------------------


def _mode_gram(data: np.ndarray, mode: int) -> np.ndarray:
    """unf unf^H of a mode unfolding, summed over blocks of the tensor.

    Only one block of at most BLOCK_ENTRIES entries is ever conjugated, so
    no copy of the whole tensor is made.
    """
    m = data.shape[mode]
    gram = np.zeros((m, m), dtype=complex)
    if mode == data.ndim - 1:
        # row blocks: the (p, m, 1) slices below would be p outer products
        rows = data.reshape(-1, m)
        step = max(1, BLOCK_ENTRIES // m)
        for i in range(0, len(rows), step):
            c = rows[i:i + step]
            gram += c.T @ c.conj()
        return gram
    x = data.reshape(int(np.prod(data.shape[:mode])), m, -1)
    cols = min(x.shape[2], max(1, BLOCK_ENTRIES // m))
    slices = max(1, BLOCK_ENTRIES // (m * cols))
    for i in range(0, len(x), slices):
        for j in range(0, x.shape[2], cols):
            c = x[i:i + slices, :, j:j + cols]
            gram += np.matmul(c, c.conj().swapaxes(-1, -2)).sum(axis=0)
    return gram


def select_model_order(tensor: MeasurementTensor, max_rank: int = DEFAULT_MAX_RANK) -> int:
    """Number of rank-1 components distinguishable from the noise floor.

    For every mode unfolding (an m x n matrix) the noise singular values
    concentrate below sqrt(var_entry) * (sqrt(m) + sqrt(n)), where
    var_entry is the per-entry beamspace noise variance, E||N||^2 spread
    evenly over the tensor's entries (see expected_noise_energy). Singular
    values above NOISE_MARGIN times that edge (and above REL_FLOOR times
    the largest, for the noiseless case) count as signal; the answer is
    the largest count over modes, capped at max_rank. The singular values
    are the square roots of the eigenvalues of the m x m Gram unf unf^H,
    which is summed over blocks of the tensor (see _mode_gram) without
    copying the unfolding or its conjugate.
    """
    data = tensor.data
    var_entry = expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var) / data.size
    best = 0
    for mode in range(data.ndim):
        m = data.shape[mode]
        n = data.size // m
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(_mode_gram(data, mode)), 0.0, None))
        edge = np.sqrt(var_entry) * (np.sqrt(m) + np.sqrt(n))
        thr = max(NOISE_MARGIN * edge, REL_FLOOR * sv[-1])
        count = int(np.sum(sv > thr))
        best = max(best, count)
    return min(best, max_rank)


# ---------------------------------------------------------------------------
# Parameter extraction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _grid_ramp(num_elements: int) -> np.ndarray:
    """Read-only ramps of the ANGLE_GRID_POINTS-point scan, one per element count."""
    grid = np.linspace(-np.pi, np.pi, ANGLE_GRID_POINTS, endpoint=False)
    ramp = phase_ramp(grid, num_elements)
    ramp.flags.writeable = False
    return ramp


def extract_angle(factor: np.ndarray, codebook: BeamCodebook) -> tuple[np.ndarray, np.ndarray]:
    """Spatial frequency (radians per element) best explaining each factor column.

    ``factor`` is (beams, columns). Each column u is scored against the
    beamspace signatures s(omega) of a dense grid of ramps exp(j*omega*n)
    by the normalized correlation |u^H s(omega)| / (||u|| ||s(omega)||),
    and its winner is refined by golden-section search to 1e-6 rad.
    Returns (omegas, correlations), one entry per column; the caller
    decides what correlation is trustworthy.

    All columns go through every step together: the grid scan is one
    stacked product, and each golden-section step probes one omega per
    column in one signature build. The columns are stacked as views with
    their own stride, so each product rounds exactly as the column's own
    product would.
    """
    factor = np.asarray(factor, dtype=complex)
    if codebook.num_beams < 2:
        raise ValueError("cannot identify a spatial frequency from a single beam")
    if factor.ndim != 2 or factor.shape[0] != codebook.num_beams:
        raise ValueError(
            f"factor must be (beams, columns) with {codebook.num_beams} beams, "
            f"got shape {factor.shape}"
        )
    # the 1-D norm of each column: an axis norm differs in the last bit
    u_norms = np.array([np.linalg.norm(factor[:, l]) for l in range(factor.shape[1])])
    zero = np.flatnonzero(u_norms == 0.0)
    if zero.size:
        raise ValueError(f"factor column {zero[0]} is zero")
    u = factor.T[:, :, None]  # (columns, beams, 1), no copy

    def corr(sig):
        """(columns, k) correlations of each column with its own k signatures."""
        norms = np.linalg.norm(sig, axis=-1)
        norms[norms == 0.0] = np.inf
        return np.abs(np.matmul(sig.conj(), u)[..., 0]) / (norms * u_norms[:, None])

    def probe(omegas):
        return corr(beam_response(codebook, phase_ramp(omegas, codebook.num_elements)))

    grid = np.linspace(-np.pi, np.pi, ANGLE_GRID_POINTS, endpoint=False)
    step = grid[1] - grid[0]
    grid_sig = beam_response(codebook, _grid_ramp(codebook.num_elements))
    peak = np.argmax(corr(grid_sig[None]), axis=1)
    # golden-section refinement (maximization) down to 1e-6 rad, all columns at once
    a, b = grid[peak] - step, grid[peak] + step
    d = GOLDEN * (b - a)
    x1, x2 = b - d, a + d
    f1, f2 = probe(np.stack([x1, x2], axis=1)).T
    # every bracket starts one grid step either side and shrinks by the
    # same ratio, so all columns stop on the same step
    while (b - a > 1.0e-6).any():
        right = f1 < f2  # the maximum lies in [x1, b]
        a = np.where(right, x1, a)
        b = np.where(right, b, x2)
        d = GOLDEN * (b - a)
        x = np.where(right, a + d, b - d)
        f = probe(x[:, None])[:, 0]
        x1, x2 = np.where(right, x2, x), np.where(right, x, x1)
        f1, f2 = np.where(right, f2, f), np.where(right, f, f1)
    omegas = 0.5 * (a + b)
    return omegas, probe(omegas[:, None])[:, 0]


def extract_delay(factor_column: np.ndarray, subcarrier_spacing: float) -> float:
    """Delay from the shift invariance of the subcarrier ramp.

    tau = -angle(sum_k u_{k+1} conj(u_k)) / (2 pi spacing), reduced into
    [0, 1/spacing). Exact on noiseless ramps.
    """
    u = np.asarray(factor_column, dtype=complex)
    if u.size < 2:
        raise ValueError("need at least two subcarriers to estimate a delay")
    accum = np.sum(u[1:] * np.conj(u[:-1]))
    if abs(accum) < 1.0e-9 * float(np.vdot(u, u).real):
        raise ValueError("degenerate subcarrier column (no phase progression)")
    tau = -np.angle(accum) / (2.0 * np.pi * subcarrier_spacing)
    period = 1.0 / subcarrier_spacing
    # a tiny negative tau rounds up to the period itself, which is delay 0
    tau = float(tau % period)
    return 0.0 if tau == period else tau


@dataclass(frozen=True)
class EstimatedPath:
    """One recovered path: complex gain, measured delay, local-frame angles.

    low_confidence marks paths whose spatial factors matched the ramp
    dictionary poorly or whose direction-cosine pair left the unit disk;
    they are kept so downstream stages can decide, but their parameters
    are suspect.
    """

    gain: complex
    delay: float
    aoa: AnglePair
    aod: AnglePair
    low_confidence: bool = False


def estimate_paths(
    tensor: MeasurementTensor,
    rank: int | str = "auto",
    opts: AlsOptions | None = None,
    max_rank: int = DEFAULT_MAX_RANK,
) -> list[EstimatedPath]:
    """Full per-receiver estimation chain: CPD then parameter extraction.

    rank="auto" selects the model order from the data; rank=0 or an empty
    selection returns []. The returned paths are sorted by descending
    |gain| (ties broken by delay).
    """
    if rank == "auto":
        order = select_model_order(tensor, max_rank=max_rank)
    else:
        order = int(rank)
    if order == 0:
        return []
    cp = cpd_als(tensor, order, opts)

    books = tensor.codebooks
    kd_rx = books.rx_geom.phase_scale
    kd_tx = books.tx_geom.phase_scale
    axes = [
        (books.rx_el, kd_rx),
        (books.rx_az, kd_rx),
        (books.tx_el, kd_tx),
        (books.tx_az, kd_tx),
    ]
    # per axis, each path's direction cosine and correlation
    cosines = []
    corrs = []
    for i, (cb, scale) in enumerate(axes):
        om, c = extract_angle(cp.factors[i], cb)
        cosines.append([float(x) / scale for x in om])
        corrs.append(c)
    found = []
    for l in range(cp.rank):
        aoa, aoa_ok = angles_from_cosines(cosines[1][l], cosines[0][l])
        aod, aod_ok = angles_from_cosines(cosines[3][l], cosines[2][l])
        tau = extract_delay(cp.factors[4][:, l], tensor.ofdm.subcarrier_spacing)
        low_conf = (
            min(c[l] for c in corrs) < LOW_CONFIDENCE_CORR or not aoa_ok or not aod_ok
        )
        found.append(
            EstimatedPath(gain=0j, delay=tau, aoa=aoa, aod=aod, low_confidence=low_conf)
        )

    # re-fit gains against the signatures of the extracted parameters; the
    # design columns are rank-1, so its Gram is the Hadamard product of the
    # per-mode Grams and its right-hand side a contraction of the tensor
    sigs = [path_beam_factors(p, books, tensor.ofdm) for p in found]
    mats = [np.stack([fac[i] for fac in sigs], axis=1) for i in range(5)]
    gram = np.ones((cp.rank, cp.rank), dtype=complex)
    for m in mats:
        gram *= m.conj().T @ m
    rhs = mats[4].T.conj() @ tensor.data.reshape(-1, mats[4].shape[0]).T
    for m in mats[3::-1]:
        rhs = _contract_last(rhs.reshape(cp.rank, -1, m.shape[0]), m)
    gains, *_ = np.linalg.lstsq(gram, rhs[:, 0], rcond=None)

    paths = [replace(p, gain=complex(g)) for p, g in zip(found, gains)]
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    logger.debug("estimated %d paths (model order %d)", len(paths), order)
    return paths
