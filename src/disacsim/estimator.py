"""Multipath parameter estimation from one beamspace tensor.

The measurement tensor of a receiver is (noise aside) a sum of L rank-1
terms, one per propagation path. Estimation proceeds in three steps:

1. model order (select_model_order): count singular values of the mode
   unfoldings (square roots of the eigenvalues of the mode Grams) that
   clear a noise-floor threshold derived from the injected noise power.
   The subcarrier mode is counted first, from one eigh that also gives the
   algebraic start its signal subspace; a later mode no wider than the
   count so far is skipped, as it cannot count more;
2. canonical polyadic decomposition (cpd_als). For a tensor with a noise
   level an algebraic start is tried first: the subcarrier factor of
   every path is a Vandermonde column, so ESPRIT (Roy & Kailath, IEEE
   TASSP 1989) on the signal subspace of that mode gives its generators,
   a least-squares solve the Khatri-Rao product of the four spatial
   factors, and a rank-1 split of each of its columns the spatial factors
   (Sorensen & De Lathauwer, IEEE TSP 2013). Alternating least squares
   runs from that start to its own stop, and its result stands. Only when
   no start can be formed do random restarts run instead, stacked on one
   leading axis and run together; the first restart to converge at the
   tensor's expected noise residual ends the decomposition. Each sweep
   takes its MTTKRPs from a dimension tree (two GEMMs over the tensor),
   checks each Gram's condition from its eigenvalues, and takes its
   residual from the norm identity, or directly near an exact fit;
3. per-path parameter extraction from the factor columns: each spatial
   column is matched against the beamspace signature of a phase ramp
   (extract_angle: a dense grid scan against signatures built once per
   codebook and process, then a golden-section refinement; the four
   spatial factors share one refinement loop, each probing its own
   columns in one stacked product per step), the two per-array ramps are
   jointly inverted into angles, and the subcarrier column yields the
   delay through its shift invariance. Gains are re-fit by least squares
   against the rank-1 signatures of the extracted parameters.

estimate_paths runs the chain and calls select_model_order, cpd_als and
extract_angle by their public names, so a wrapper installed on any of
them (a tracer's, say) sees each call.
"""

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
# coarse ramp scan of the angle search; each codebook's signatures of it are
# built once per process (_grid_signature) and score all columns at once
ANGLE_GRID_POINTS = 2048
# a restart of cpd_als that converges within this factor of the tensor's
# expected noise residual ends the call: the other restarts could only tie it
FLOOR_MARGIN = 1.01
# an ALS run has converged once a sweep lowers its residual by at most this
# share of the tensor's norm
REL_TOL = 1.0e-8


class RankDeficiencyError(RuntimeError):
    """A least-squares subproblem inside ALS lost rank."""


class AlsMonotonicityError(RuntimeError):
    """The ALS residual increased across a sweep (should never happen)."""


@dataclass
class AlsOptions:
    """ALS sweep cap, restarts and their seed.

    The defaults are the stock values of the scenario's estimation section
    and of ``disacsim estimate``; acceptance criterion 2 and the lattice
    benchmark ask for 5 restarts. cpd_als runs the restarts only when no
    algebraic start can be formed (on the stock and lattice tensors one
    always can), and runs that start for up to max_sweeps sweeps. Every
    run stops on the fixed tolerance REL_TOL; among the restarts cpd_als
    also stops at the noise floor, which it reads from the tensor, not
    from these options.
    """

    max_sweeps: int = 300
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1 or self.restarts < 1:
            raise ValueError("max_sweeps and restarts must be at least 1")


@dataclass
class CpFactors:
    """CPD result: unit-norm factor columns and complex gains.

    factors[i] has shape (dim_i, rank); every column has unit 2-norm and
    its largest-magnitude entry rotated to the positive real axis, so the
    decomposition is unique up to column permutation when the underlying
    model is. residual_history is the per-sweep absolute residual of the
    winning restart (empty for a zero tensor, which needs no sweep),
    sweeps its length, and converged tells whether that restart stopped
    on REL_TOL or an exact fit (True) or at max_sweeps (False). None of
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


def _noise_floor(tensor: MeasurementTensor) -> float:
    """Residual at or below which a converged fit stands at the noise floor.

    FLOOR_MARGIN * sqrt(expected_noise_energy) for noise_var > 0; -inf (no
    floor) for noise_var == 0.
    """
    if tensor.noise_var > 0.0:
        energy = expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var)
        return FLOOR_MARGIN * float(np.sqrt(energy))
    return -np.inf


def cpd_als(
    tensor: MeasurementTensor,
    rank: int,
    opts: AlsOptions | None = None,
    vectors: np.ndarray | None = None,
) -> CpFactors:
    """Rank-``rank`` canonical polyadic decomposition of a measurement tensor.

    ``vectors`` are the subcarrier-mode Gram's eigenvectors, as
    select_model_order returns them. Given them and a tensor with
    noise_var > 0, the algebraic Vandermonde start (_vandermonde_start) is
    formed first, and ALS runs from it for up to opts.max_sweeps sweeps,
    stopping on REL_TOL; that run is returned, converged or not. Only when
    no start can be formed (_vandermonde_start returns None, or forming or
    running it raises RankDeficiencyError or LinAlgError) do the random
    restarts run, as they would without it.

    The restarts run alternating least squares from random complex
    Gaussian starts. Each restart r draws its start from a Philox
    generator keyed ``[seed + r, 2]``. These streams are not independent
    across calls whose seeds lie closer than the restart count: in a trial,
    harness.receiver_seed gives neighbouring receivers seeds one apart, so
    receiver 0's restart 1 starts where receiver 1's restart 0 does, and
    so on along the diagonal; no stock or lattice tensor runs the restarts,
    as a start can be formed on each. The residual of every run is checked
    to be non-increasing across sweeps, which exact per-mode least squares
    guarantees up to roundoff.

    All restarts run together: every factor is stacked as (K, n_i, L) and
    every Gram as (K, L, L) over the K restarts still running. A restart
    that meets its stopping rule is recorded and leaves the stack; the
    others go on. The run from the start is the same loop with K = 1.

    The winner is chosen in one of two ways:

    - Noise floor (a tensor with noise_var > 0 only). The floor is
      sqrt(expected_noise_energy), about the residual the true model
      itself leaves. A restart that stops on REL_TOL or on the exact-fit
      test with residual <= FLOOR_MARGIN * floor wins at once, and the
      restarts still running are dropped. Every restart that converges there reaches the
      same fit, so more sweeps could only let roundoff choose among equal
      fits; this is the stop of Morozov's discrepancy principle. If several
      restarts qualify in the same sweep, the lowest r wins.
    - Otherwise (noise_var == 0, or no restart converged at the
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
        If rank < 1.
    RankDeficiencyError
        If a mode's least-squares system becomes numerically singular in
        any restart; the message names the restart.
    """
    if opts is None:
        opts = AlsOptions()
    data = tensor.data
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

    # residual at or below which a converged restart wins at once
    floor = _noise_floor(tensor)
    if vectors is not None and tensor.noise_var > 0.0:
        try:
            start = _vandermonde_start(data, rank, vectors)
            if start is not None:
                return _finalize(*_als_sweeps(
                    data, norm_t, [f[None] for f in start], opts.max_sweeps, floor
                ))
        except (RankDeficiencyError, np.linalg.LinAlgError):
            pass  # no start: the restarts run

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
    return _finalize(*_als_sweeps(data, norm_t, factors, opts.max_sweeps, floor))


def _als_sweeps(data: np.ndarray, norm_t: float, factors: list[np.ndarray], max_sweeps: int,
                floor: float) -> tuple[list[np.ndarray], list[float], bool]:
    """The winner's raw factors, residual history and convergence among the
    stacked ALS restarts from the (K, n_i, L) ``factors`` (see cpd_als)."""
    n_a, n_b, n_c, n_d, n_e = data.shape
    t_mat = data.reshape(-1, n_e)
    norm_sq = norm_t * norm_t
    starts, _, rank = factors[0].shape
    grams = [f.swapaxes(-1, -2).conj() @ f for f in factors]
    best = None
    running = np.arange(starts)
    histories: list[list[float]] = [[] for _ in running]
    # each finished restart's raw factors and whether it converged; only the
    # winner is finalized
    done: dict[int, tuple[list[np.ndarray], bool]] = {}

    def record(k: int, converged: bool):
        done[int(running[k])] = ([f[k] for f in factors], converged)

    for sweep in range(max_sweeps):
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
            if prev - res <= REL_TOL * norm_t or res <= 1.0e-13 * norm_t:
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
        best = min(range(starts), key=lambda r: histories[r][-1])
    raw, converged = done[best]
    return raw, histories[best], converged


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


def select_model_order(tensor: MeasurementTensor,
                       max_rank: int = DEFAULT_MAX_RANK) -> tuple[int, np.ndarray]:
    """Number of rank-1 components distinguishable from the noise floor,
    and the subcarrier-mode Gram's eigenvectors.

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

    The subcarrier mode is counted first, then the spatial modes in order;
    a mode whose dimension m is at most the largest count so far is
    skipped, as its m singular values cannot count more than m. The count
    is the one a count over every mode gives.

    Returns (order, vectors): vectors are the eigenvectors of the
    subcarrier-mode Gram as np.linalg.eigh returns them, columns in
    ascending eigenvalue order. That one decomposition gives both the
    subcarrier mode's count and the algebraic start's signal subspace
    (see cpd_als).
    """
    data = tensor.data
    var_entry = expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var) / data.size
    last = data.ndim - 1
    best = 0
    for mode in (last, *range(last)):
        m = data.shape[mode]
        if m <= best:
            continue  # m singular values cannot count more than m
        n = data.size // m
        gram = _mode_gram(data, mode)
        if mode == last:
            lam, vectors = np.linalg.eigh(gram)
        else:
            lam = np.linalg.eigvalsh(gram)
        sv = np.sqrt(np.clip(lam, 0.0, None))
        edge = np.sqrt(var_entry) * (np.sqrt(m) + np.sqrt(n))
        thr = max(NOISE_MARGIN * edge, REL_FLOOR * sv[-1])
        best = max(best, int(np.sum(sv > thr)))
    return min(best, max_rank), vectors


# ---------------------------------------------------------------------------
# Algebraic start from the Vandermonde subcarrier mode
# ---------------------------------------------------------------------------


def _vandermonde_start(data: np.ndarray, order: int, vectors: np.ndarray) -> list[np.ndarray] | None:
    """Rank-``order`` factors computed algebraically from the subcarrier mode.

    The subcarrier factor of every path is a Vandermonde column z^k with
    z = exp(-2j pi spacing tau) (Sorensen & De Lathauwer, "Blind signal
    separation via tensor decomposition with Vandermonde factor", IEEE TSP
    2013). With U the top-``order`` eigenvectors of the subcarrier-mode
    Gram (the unfolding's signal subspace; ``vectors`` holds all of them,
    as np.linalg.eigh returns them), the generators z are
    the eigenvalues of U[:-1]^+ U[1:] (ESPRIT: Roy & Kailath, IEEE TASSP
    1989), projected onto the unit circle. With E = [z_l^k] the Khatri-Rao
    product of the four spatial factors is KR = T_(abcd x e) (E^T)^+; each
    of its columns is split into the four spatial columns by the leading
    eigenvector of each unfolding's Gram (all columns of a mode in one
    batched eigh), and the column's least-squares scale goes into E.

    Returns the five factors (the spatial ones with unit columns), or None
    when the start cannot be formed: an all-zero tensor, ``order`` at or
    above the subcarrier count (U[:-1] then has no more rows than
    columns), or an ESPRIT root that is zero or not finite.
    """
    n_e = data.shape[-1]
    if order >= n_e or not data.any():
        return None
    u = vectors[:, -order:]
    z = np.linalg.eigvals(np.linalg.pinv(u[:-1]) @ u[1:])
    mag = np.abs(z)
    if not (np.isfinite(z).all() and (mag > 0.0).all()):
        return None
    vand = (z / mag)[None, :] ** np.arange(n_e)[:, None]
    kr = data.reshape(-1, n_e) @ np.linalg.pinv(vand.T)
    cols = kr.T.reshape((order,) + data.shape[:-1])
    spatial = []
    for mode in range(1, cols.ndim):
        unf = np.moveaxis(cols, mode, 1).reshape(order, cols.shape[mode], -1)
        lead = np.linalg.eigh(unf @ unf.conj().swapaxes(-1, -2))[1][..., -1]
        spatial.append(lead.T)
    scale = np.sum(_khatri_rao(spatial).conj() * kr, axis=0)
    return spatial + [vand * scale]


# ---------------------------------------------------------------------------
# Parameter extraction
# ---------------------------------------------------------------------------


# the coarse scan of the angle search and its spacing
_ANGLE_GRID = np.linspace(-np.pi, np.pi, ANGLE_GRID_POINTS, endpoint=False)
_ANGLE_GRID.flags.writeable = False
# (matrix bytes, shape, strides, transmit kind) -> the codebook's conjugated
# grid signature (1, points, beams) and its norms (1, points); see _grid_signature
_GRID_SIGNATURES: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
GRID_CACHE_SIZE = 16  # codebooks whose grid signatures are kept at once


def _grid_signature(codebook: BeamCodebook) -> tuple[np.ndarray, np.ndarray]:
    """Read-only conjugated beamspace signatures of the grid ramps, and their norms.

    Built once per process for each codebook matrix and receive or
    transmit kind, as a BeamCodebook may hold any matrix; the key holds
    the matrix layout too, so a cached signature is the one the codebook's
    own matrix gives. A zero norm is stored as inf, so that its
    correlations read 0.
    """
    matrix = codebook.matrix
    key = (matrix.tobytes(), matrix.shape, matrix.strides, codebook.axis.startswith("tx"))
    cached = _GRID_SIGNATURES.get(key)
    if cached is None:
        sig = beam_response(codebook, phase_ramp(_ANGLE_GRID, codebook.num_elements))[None]
        norms = np.linalg.norm(sig, axis=-1)
        norms[norms == 0.0] = np.inf
        cached = (sig.conj(), norms)
        for array in cached:
            array.flags.writeable = False
        if len(_GRID_SIGNATURES) >= GRID_CACHE_SIZE:
            del _GRID_SIGNATURES[next(iter(_GRID_SIGNATURES))]
        _GRID_SIGNATURES[key] = cached
    return cached


class _AngleAxis:
    """One factor's part of the angle search: its codebook, its columns and
    their norms."""

    def __init__(self, factor: np.ndarray, codebook: BeamCodebook):
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
        self.columns = factor.shape[1]
        self.u_norms = u_norms[:, None]
        self.u = factor.T[:, :, None]  # (columns, beams, 1), no copy
        self.codebook = codebook

    def corr(self, conj_sig: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """(columns, k) correlations of each column with its own k signatures."""
        return np.abs(np.matmul(conj_sig, self.u)[..., 0]) / (norms * self.u_norms)

    def probe(self, omegas: np.ndarray) -> np.ndarray:
        """Correlations of each column with the signatures of its own (columns, k) omegas."""
        sig = beam_response(self.codebook, phase_ramp(omegas, self.codebook.num_elements))
        norms = np.linalg.norm(sig, axis=-1)
        norms[norms == 0.0] = np.inf
        return self.corr(sig.conj(), norms)


def extract_angle(factors: list[np.ndarray],
                  codebooks: list[BeamCodebook]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Spatial frequency (radians per element) best explaining each factor column.

    ``factors`` is a list of (beams, columns) factors and ``codebooks`` the
    codebook of each, in the same order. Each column u is scored against
    the beamspace signatures s(omega) of a dense grid of ramps
    exp(j*omega*n) by the normalized correlation |u^H s(omega)| / (||u||
    ||s(omega)||), and its winner is refined by golden-section search to
    1e-6 rad. Returns one (omegas, correlations) pair per factor, in order,
    one entry per column; the caller decides what correlation is
    trustworthy. estimate_paths passes a decomposition's four spatial
    factors.

    All columns of all factors go through every step together: the grid
    scan scores each factor in one stacked product against its codebook's
    grid signatures, built once per process (_grid_signature), and one
    golden-section loop keeps the brackets and step bookkeeping of every
    column side by side, each step probing each factor once, one omega per
    column, in one signature build. The columns are stacked as views with
    their own stride, so each product rounds exactly as the column's own
    product would, whatever else is searched with it.
    """
    if len(factors) != len(codebooks):
        raise ValueError(f"need one codebook per factor, got {len(factors)} factors "
                         f"and {len(codebooks)} codebooks")
    axes = [_AngleAxis(f, cb) for f, cb in zip(factors, codebooks)]
    ends = np.cumsum([axis.columns for axis in axes]).tolist()
    rows = [slice(end - axis.columns, end) for axis, end in zip(axes, ends)]

    def probe(omegas):
        return np.concatenate([axis.probe(omegas[r]) for axis, r in zip(axes, rows)])

    peak = np.concatenate([
        np.argmax(axis.corr(*_grid_signature(axis.codebook)), axis=1) for axis in axes
    ])
    step = _ANGLE_GRID[1] - _ANGLE_GRID[0]
    # golden-section refinement (maximization) down to 1e-6 rad
    a, b = _ANGLE_GRID[peak] - step, _ANGLE_GRID[peak] + step
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
    corrs = probe(omegas[:, None])[:, 0]
    return [(omegas[r], corrs[r]) for r in rows]


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

    The decomposition is one cpd_als call, given the subcarrier-mode
    Gram's eigenvectors for its algebraic start: those select_model_order
    returns, or, for an explicit rank on a tensor with noise_var > 0, those
    of one eigh here.
    """
    vectors = None
    if rank == "auto":
        order, vectors = select_model_order(tensor, max_rank)
    else:
        order = int(rank)
    if order == 0:
        return []
    if vectors is None and tensor.noise_var > 0.0:
        vectors = np.linalg.eigh(_mode_gram(tensor.data, tensor.data.ndim - 1))[1]
    cp = cpd_als(tensor, order, opts, vectors)

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
    found_angles = extract_angle(cp.factors[:4], [cb for cb, _ in axes])
    for (om, c), (_, scale) in zip(found_angles, axes):
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
