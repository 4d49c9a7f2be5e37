"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithmic
approach than the code under test (union-find instead of BFS, explicit
normal equations instead of SVD, closed-form geometry instead of the
estimation chain) so agreement is meaningful. Where the package replaced
a plain algorithm by a faster one (the dense SVD solve by block
elimination), the plain one is kept here as the reference.
"""

import numpy as np

from disacsim.estimator import ANGLE_GRID_POINTS, GOLDEN, NOISE_MARGIN, REL_FLOOR, EstimatedPath
from disacsim.fusion import (
    CONDITION_LIMIT,
    WEIGHT_FLOOR_FRACTION,
    IllConditionedError,
    LosMeasurement,
    PathMeasurement,
)
from disacsim.geometry import BORESIGHT_ALONG_X, AnglePair, angles_from_direction, as_vec3
from disacsim.scene import (
    _STREAM_PATH_PHASE,
    LABEL_CLUTTER,
    LABEL_LOS,
    LABEL_TARGET,
    PathRecord,
    phase_ramp,
)
from disacsim.waveform import beam_response, expected_noise_energy


# ---------------------------------------------------------------------------
# DBSCAN reference (union-find over the closed eps-graph)
# ---------------------------------------------------------------------------


def brute_dbscan_partition(points, eps, min_points):
    """Return (clusters, noise) as a set of frozensets and a frozenset.

    Core points: closed eps-ball holds at least min_points points,
    itself included. Clusters are connected components of core points
    under eps-adjacency; border points join the cluster of the nearest
    core point (ties toward the component containing the smaller core
    index, matching the production tie rule).
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    adj = dist <= eps
    core = [i for i in range(n) if int(adj[i].sum()) >= min_points]
    core_set = set(core)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i in core:
        for j in core:
            if adj[i, j]:
                union(i, j)

    comp_of_core = {i: find(i) for i in core}
    members: dict[int, set[int]] = {}
    for i in core:
        members.setdefault(comp_of_core[i], set()).add(i)

    noise = set()
    for i in range(n):
        if i in core_set:
            continue
        reach = [j for j in core if adj[i, j]]
        if not reach:
            noise.add(i)
            continue
        # nearest core point; ties go to the component whose smallest
        # core index is smallest (components are rooted at min index)
        best = min(reach, key=lambda j: (dist[i, j], comp_of_core[j]))
        members[comp_of_core[best]].add(i)

    clusters = {frozenset(s) for s in members.values()}
    return clusters, frozenset(noise)


def labels_to_partition(labels):
    """Convert a label vector into (clusters, noise) for comparison."""
    labels = np.asarray(labels)
    clusters = set()
    for lab in np.unique(labels):
        if lab == -1:
            continue
        clusters.add(frozenset(np.nonzero(labels == lab)[0].tolist()))
    noise = frozenset(np.nonzero(labels == -1)[0].tolist())
    return clusters, noise


# ---------------------------------------------------------------------------
# Weighted least squares via explicit normal equations
# ---------------------------------------------------------------------------


def wls_normal_equations(a, b, w):
    """(A^T W A)^-1 A^T W b, no conditioning safeguards."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    awa = a.T @ (w[:, None] * a)
    awb = a.T @ (w * b)
    return np.linalg.solve(awa, awb)


def reference_solve_wls(a, b, w):
    """Dense SVD solve of the whole weighted system, and its refusal rule.

    The weights are floored and the system weighted as fusion.solve_wls
    does; the SVD refuses cond(A^T W A) > CONDITION_LIMIT and names the
    largest entry of the last right singular vector. Returns (x, weighted
    residual norm).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    sw = np.sqrt(np.maximum(w, WEIGHT_FLOOR_FRACTION * w.max()))
    aw = a * sw[:, None]
    bw = b * sw
    u, s, vt = np.linalg.svd(aw, full_matrices=False)
    if s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > CONDITION_LIMIT:
        dependent = int(np.argmax(np.abs(vt[-1])))
        raise IllConditionedError(
            f"normal matrix condition {np.inf if s[-1] == 0 else (s[0] / s[-1]) ** 2:.2e} "
            f"exceeds {CONDITION_LIMIT:.0e}; column {dependent} is numerically dependent",
            dependent_column=dependent,
        )
    x = vt.T @ ((u.T @ bw) / s)
    return x, float(np.linalg.norm(aw @ x - bw))


def random_well_conditioned_system(rng, rows, cols, cond_max=50.0):
    """Random full-rank system with a controlled singular value spread."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.linspace(1.0, cond_max, cols)
    a = u[:, :cols] @ np.diag(s) @ v.T
    b = rng.standard_normal(rows)
    w = rng.uniform(0.5, 2.0, rows)
    return a, b, w


# ---------------------------------------------------------------------------
# CP decomposition by plain alternating least squares
# ---------------------------------------------------------------------------


def reference_als(data, rank, seed, max_sweeps, rel_tol):
    """One ALS restart the textbook way: full Khatri-Rao products, dense residual.

    Every mode is updated from its unfolding times the full (conjugated)
    Khatri-Rao product of the other factors, and the residual is taken
    from an explicit reconstruction each sweep. Starts from the same
    Philox draw as ``cpd_als`` restart 0 with this seed, normalises the
    columns of every mode but the last, and stops on the same rule.
    Returns (raw factors, residual history).
    """
    data = np.asarray(data, dtype=complex)
    order = data.ndim
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    factors = [
        (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
        for n in data.shape
    ]
    norm_t = np.linalg.norm(data)
    history = []
    prev = np.inf
    for _ in range(max_sweeps):
        for mode in range(order):
            others = [factors[m] for m in range(order) if m != mode]
            kr = others[0]
            for f in others[1:]:
                kr = (kr[:, None, :] * f[None, :, :]).reshape(-1, rank)
            unfolded = np.moveaxis(data, mode, 0).reshape(data.shape[mode], -1)
            gram = kr.T @ kr.conj()
            new = np.linalg.solve(gram.T, (unfolded @ kr.conj()).T).T
            if mode != order - 1:
                new = new / np.linalg.norm(new, axis=0)
            factors[mode] = new
        model = np.zeros_like(data)
        for l in range(rank):
            term = factors[0][:, l]
            for f in factors[1:]:
                term = np.multiply.outer(term, f[:, l])
            model += term
        res = float(np.linalg.norm(data - model))
        history.append(res)
        stop = prev - res <= rel_tol * norm_t or res <= 1.0e-13 * norm_t
        prev = res
        if stop:
            break
    return factors, history


def svd_model_order(tensor, max_rank):
    """``select_model_order``'s count the direct way: a full SVD of each
    copied mode unfolding, thresholded by the same rule."""
    data = tensor.data
    var_entry = expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var) / data.size
    best = 0
    for mode in range(data.ndim):
        unf = np.moveaxis(data, mode, 0).reshape(data.shape[mode], -1)
        m, n = unf.shape
        sv = np.linalg.svd(unf, compute_uv=False)
        edge = np.sqrt(var_entry) * (np.sqrt(m) + np.sqrt(n))
        best = max(best, int(np.sum(sv > max(NOISE_MARGIN * edge, REL_FLOOR * sv[0]))))
    return min(best, max_rank)


def reference_model_order(tensor, max_rank):
    """``select_model_order``'s count over every mode, in mode order: the
    eigenvalues of each copied unfolding's Gram, thresholded by the same
    rule, with no mode skipped."""
    data = tensor.data
    var_entry = expected_noise_energy(tensor.codebooks, tensor.ofdm, tensor.noise_var) / data.size
    best = 0
    for mode in range(data.ndim):
        m = data.shape[mode]
        n = data.size // m
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(unfolding_gram(data, mode)), 0.0, None))
        edge = np.sqrt(var_entry) * (np.sqrt(m) + np.sqrt(n))
        best = max(best, int(np.sum(sv > max(NOISE_MARGIN * edge, REL_FLOOR * sv[-1]))))
    return min(best, max_rank)


def reference_extract_angle(factor_column, codebook):
    """One column's spatial frequency the per-column way: the ramp grid's
    signature is rebuilt for the column, then scored and refined by
    golden-section search. Returns (omega, correlation); ``extract_angle``
    must agree exactly on every column of a factor."""
    u = np.asarray(factor_column, dtype=complex)
    if codebook.num_beams < 2:
        raise ValueError("cannot identify a spatial frequency from a single beam")
    if u.shape != (codebook.num_beams,):
        raise ValueError("factor column length must equal the beam count")
    u_norm = np.linalg.norm(u)
    if u_norm == 0.0:
        raise ValueError("zero factor column")

    n_el = codebook.num_elements
    grid = np.linspace(-np.pi, np.pi, ANGLE_GRID_POINTS, endpoint=False)

    def corr(omegas):
        sig = beam_response(codebook, phase_ramp(omegas, n_el))
        sig = np.atleast_2d(sig)
        norms = np.linalg.norm(sig, axis=1)
        norms[norms == 0.0] = np.inf
        return np.abs(sig.conj() @ u) / (norms * u_norm)

    scores = corr(grid)
    peak = int(np.argmax(scores))
    step = grid[1] - grid[0]
    lo, hi = grid[peak] - step, grid[peak] + step

    # golden-section refinement (maximization) down to 1e-6 rad
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = corr(np.array([x1, x2]))
    while b - a > 1.0e-6:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = float(corr(np.array([x2]))[0])
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = float(corr(np.array([x1]))[0])
    omega = 0.5 * (a + b)
    return float(omega), float(corr(np.array([omega]))[0])


def einsum_beamspace_noise(books, ofdm, noise_var, rng):
    """``beamspace_noise`` as one einsum over the scaled element noise: the
    same draws (real parts, then imaginary parts) through both combiner
    adjoints at once."""
    m_el, m_az, mt_el, mt_az = books.beam_shape
    shape = (books.rx_geom.n_y, books.rx_geom.n_x, mt_el, mt_az, ofdm.num_subcarriers)
    z = np.sqrt(noise_var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return np.einsum(
        "ya,xb,yxcde->abcde", books.rx_el.matrix.conj(), books.rx_az.matrix.conj(), z,
        optimize=True,
    )


def unfolding_gram(data, mode):
    """unf unf^H of a copied mode unfolding, in one product."""
    unf = np.moveaxis(data, mode, 0).reshape(data.shape[mode], -1)
    return unf @ unf.conj().T


# ---------------------------------------------------------------------------
# Exact measurement construction from ground-truth geometry
# ---------------------------------------------------------------------------


def exact_paths(scene, rx_id):
    """Ground-truth paths of one receiver as estimator output records."""
    from disacsim.scene import generate_ground_truth_paths

    return [
        EstimatedPath(gain=p.gain, delay=p.delay, aoa=p.aoa, aod=p.aod)
        for p in generate_ground_truth_paths(scene, rx_id)
    ]


def reference_angles_from_direction(u):
    """``geometry.angles_from_direction`` for one vector, written per vector:
    its 1-D norm and scalar arcsin/arctan2, with its errors."""
    u = as_vec3(u)
    n = np.linalg.norm(u)
    if n == 0.0:
        raise ValueError("zero direction vector")
    u = u / n
    el = float(np.arcsin(np.clip(u[1], -1.0, 1.0)))
    az = float(np.arctan2(u[0], u[2]))
    if az <= -np.pi:
        az = np.pi
    return AnglePair(azimuth=az, elevation=el)


def reference_ground_truth_paths(scene, rx_id):
    """``generate_ground_truth_paths`` one path at a time.

    Each bounced path takes its own hop norms, its own phase draw from the
    receiver's stream and its own direction checks, in path order, so the
    array version must match it bit for bit and raise what it raises.
    """
    rx = scene.receiver(rx_id)
    tx = scene.tx.position
    lam = scene.tx.array.wavelength
    rng = np.random.Generator(
        np.random.Philox(key=[scene.phase_seed, (rx_id << 8) | _STREAM_PATH_PHASE])
    )

    def local(direction, orientation):
        return reference_angles_from_direction(orientation.T @ as_vec3(direction))

    d_los = np.linalg.norm(rx.position - tx)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    paths = [
        PathRecord(
            gain=complex(lam / (4.0 * np.pi * d_los) * np.exp(1j * phase)),
            delay=d_los / scene.speed_of_light + rx.timing_offset,
            aoa=local(tx - rx.position, rx.orientation),
            aod=local(rx.position - tx, BORESIGHT_ALONG_X),
            label=LABEL_LOS,
        )
    ]

    def bounce(point, reflectivity, label, target_id=None, point_index=None):
        point = as_vec3(point)
        r = np.linalg.norm(point - tx)
        d = np.linalg.norm(rx.position - point)
        amp = reflectivity * lam / (4.0 * np.pi * (r + d))
        ph = rng.uniform(0.0, 2.0 * np.pi)
        return PathRecord(
            gain=complex(amp * np.exp(1j * ph)),
            delay=(r + d) / scene.speed_of_light + rx.timing_offset,
            aoa=local(point - rx.position, rx.orientation),
            aod=local(point - tx, BORESIGHT_ALONG_X),
            label=label,
            target_id=target_id,
            point_index=point_index,
        )

    for tgt in scene.targets:
        for p_idx in range(len(tgt.scatter_points)):
            paths.append(bounce(tgt.scatter_points[p_idx], tgt.reflectivities[p_idx],
                                LABEL_TARGET, target_id=tgt.target_id, point_index=p_idx))
    for cl in scene.clutter:
        paths.append(bounce(cl.position, cl.reflectivity, LABEL_CLUTTER))
    return paths


def path_delay(scene, rx_id, scatter_point):
    """Measured delay of a single-bounce path via ``scatter_point``.

    Geometric two-hop time of flight plus the receiver clock offset; the
    offset enters the measured delay exactly once, here.
    """
    rx = scene.receiver(rx_id)
    p = np.asarray(scatter_point, dtype=float)
    hop1 = np.linalg.norm(p - scene.tx.position)
    hop2 = np.linalg.norm(rx.position - p)
    return (hop1 + hop2) / scene.speed_of_light + rx.timing_offset


def consistent_reflection(p_bs, ue_position, rx_orientation, r_bs, d_rx, dt,
                          u_bs, speed_of_light, gain=1.0):
    """An exactly self-consistent reflection path with a chosen geometry.

    Given the transmitter-side range r_bs (may be negative, to exercise
    the drop logic) and the receiver-side range d_rx, the receiver-side
    direction is forced so that the spatial rows close exactly:
    p_ue = p_bs + r_bs * u_bs + d_rx * u_v.
    """
    p_bs = np.asarray(p_bs, dtype=float)
    p_ue = np.asarray(ue_position, dtype=float)
    u_bs = np.asarray(u_bs, dtype=float)
    u_bs = u_bs / np.linalg.norm(u_bs)
    gap = p_ue - p_bs - r_bs * u_bs
    if abs(np.linalg.norm(gap) - d_rx) > 1e-9:
        raise ValueError("d_rx must equal |p_ue - p_bs - r_bs * u_bs|")
    u_v = gap / d_rx
    rot = np.asarray(rx_orientation, dtype=float)
    aod = angles_from_direction(BORESIGHT_ALONG_X.T @ u_bs)
    aoa = angles_from_direction(rot.T @ (-u_v))
    delay = (r_bs + d_rx) / speed_of_light + dt
    return EstimatedPath(gain=gain, delay=delay, aoa=aoa, aod=aod)


def exact_los_path(p_bs, ue_position, dt, speed_of_light, gain=3.0):
    """Direct path consistent with a receiver position and clock offset."""
    p_bs = np.asarray(p_bs, dtype=float)
    p_ue = np.asarray(ue_position, dtype=float)
    diff = p_ue - p_bs
    rng = np.linalg.norm(diff)
    u_los = diff / rng
    aod = angles_from_direction(BORESIGHT_ALONG_X.T @ u_los)
    # arrival angles of the direct path are irrelevant to the linear
    # system (it uses the departure direction); point the array back
    aoa = angles_from_direction(np.array([1.0, 0.0, 0.0]))
    delay = rng / speed_of_light + dt
    return EstimatedPath(gain=gain, delay=delay, aoa=aoa, aod=aod)


def los_measurement_from(p_bs, ue_position, dt, speed_of_light, ue_id, weight=3.0):
    p_bs = np.asarray(p_bs, dtype=float)
    diff = np.asarray(ue_position, dtype=float) - p_bs
    rng = float(np.linalg.norm(diff))
    return LosMeasurement(
        ue_id=ue_id,
        u_los=diff / rng,
        delay=rng / speed_of_light + dt,
        weight=weight,
    )


def path_measurement_from(p_bs, ue_position, scatter, dt, speed_of_light,
                          ue_id, path_index=0, weight=1.0):
    """Exact fusion-level measurement for a transmitter-scatter-receiver hop."""
    p_bs = np.asarray(p_bs, dtype=float)
    p_ue = np.asarray(ue_position, dtype=float)
    s = np.asarray(scatter, dtype=float)
    r_vec = s - p_bs
    d_vec = p_ue - s
    r = float(np.linalg.norm(r_vec))
    d = float(np.linalg.norm(d_vec))
    return PathMeasurement(
        ue_id=ue_id,
        path_index=path_index,
        u_bs=r_vec / r,
        u_v=d_vec / d,
        delay=(r + d) / speed_of_light + dt,
        weight=weight,
    )
