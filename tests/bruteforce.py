"""Independent brute-force reference implementations used as test oracles.

Deliberately avoids the package's evolution and measurement machinery:
propagators come from scipy.linalg.expm, projectors are built here from
explicit Kronecker products, and the correlator is a literal double sum over
measurement branches. The one exception is ``branch_correlator``, which
evolves each measurement branch with the package's checked
``evolve_density`` so that noisy and Trotter dynamics can be compared, and
``per_shot_correlator``, the package's former shot sampler, which draws and
flips every shot's bits one at a time. lgsim is imported inside the
functions that use it, so the module loads without the package.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def op_on(op, qubit, n):
    """Embed a single-qubit operator; qubit 0 is the least significant bit."""
    out = np.array([[1.0 + 0j]])
    for k in range(n - 1, -1, -1):
        out = np.kron(out, op if k == qubit else I2)
    return out


def pauli_string(s):
    """Character k of the string acts on qubit k: the Kronecker chain
    P[s[n-1]] (x) ... (x) P[s[0]], as the package built it before it moved
    to index arithmetic."""
    return reduce(np.kron, [PAULI[c] for c in reversed(s)])


def hamiltonian(num_qubits, terms):
    h = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    for coeff, s in terms:
        h = h + coeff * pauli_string(s)
    return h


def z_pair(qubit, n):
    """(value, projector) branches of a z readout of one qubit."""
    dim = 2**n
    idx = np.arange(dim)
    up = np.diag(((idx >> qubit) & 1 == 0).astype(complex))
    down = np.diag(((idx >> qubit) & 1 == 1).astype(complex))
    return [(+1, up), (-1, down)]


def parity_pair(qubits, n):
    """Coarse parity branches: one projector per sign subspace."""
    dim = 2**n
    idx = np.arange(dim)
    par = np.zeros(dim, dtype=int)
    for q in qubits:
        par ^= (idx >> q) & 1
    plus = np.diag((par == 0).astype(complex))
    minus = np.diag((par == 1).astype(complex))
    return [(+1, plus), (-1, minus)]


def x_pair(qubit, n):
    """(value, projector) branches of an x readout of one qubit."""
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    return [(+1, op_on(plus, qubit, n)), (-1, op_on(minus, qubit, n))]


def observable_pair(obs):
    """(value, projector) branches (I +/- Q) / 2 of a ``DichotomicObservable``,
    with Q the Kronecker product of its Pauli string: Z (basis "z") or X
    (basis "x") on each listed qubit."""
    paulis = ["I"] * obs.num_qubits
    for q in obs.qubits:
        paulis[q] = obs.basis.upper()
    q_op = pauli_string("".join(paulis))
    eye = np.eye(q_op.shape[0])
    return [(+1, (eye + q_op) / 2), (-1, (eye - q_op) / 2)]


def bitwise_parity_branches(qubits, n):
    """Fine branches: one projector per bit pattern of the measured qubits,
    valued by the pattern's parity (a full readout of those qubits)."""
    dim = 2**n
    idx = np.arange(dim)
    branches = []
    for pattern in range(2 ** len(qubits)):
        sel = np.ones(dim, dtype=bool)
        parity = 0
        for k, q in enumerate(qubits):
            bit = (pattern >> k) & 1
            parity ^= bit
            sel &= ((idx >> q) & 1) == bit
        proj = np.diag(sel.astype(complex))
        branches.append((+1 if parity == 0 else -1, proj))
    return branches


def correlator(rho0, h, t_i, t_j, first_branches, second_branches):
    """Literal branch double sum with expm propagators."""
    u1 = expm(-1j * h * t_i)
    u2 = expm(-1j * h * (t_j - t_i))
    rho_i = u1 @ rho0 @ u1.conj().T
    total = 0.0
    for q_n, p_n in first_branches:
        mid = p_n @ rho_i @ p_n
        evolved = u2 @ mid @ u2.conj().T
        for q_m, p_m in second_branches:
            total += q_n * q_m * np.trace(p_m @ evolved @ p_m).real
    return total


def branch_correlator(rho0, dynamics, t_i, t_j, first_branches, q2, noise=None):
    """Branch formula: sum of q p Tr[Q2 rho_b'] over the first-measurement
    branches (q, P) of the DensityMatrix ``rho0`` evolved to ``t_i``. Each
    branch P rho P / p is renormalised, evolved on to ``t_j`` by the checked
    ``lgsim.evolve_density`` and asserted PSD; branches with p <= 1e-12 are
    skipped."""
    from lgsim import DensityMatrix, evolve_density

    rho_i = evolve_density(rho0, dynamics, 0.0, t_i, noise).matrix
    total = 0.0
    for q, proj in first_branches:
        branch = proj @ rho_i @ proj
        p = np.trace(branch).real
        if p <= 1e-12:
            continue
        state = DensityMatrix(rho0.num_qubits, branch / p)
        evolved = evolve_density(state, dynamics, t_i, t_j, noise).matrix
        assert np.linalg.eigvalsh(evolved)[0] >= -1e-9
        total += q * p * np.trace(q2 @ evolved).real
    return total


def k3_triple(rho0, h, tau, first_branches, second_branches):
    c12 = correlator(rho0, h, 0.0, tau, first_branches, second_branches)
    c23 = correlator(rho0, h, tau, 2 * tau, first_branches, second_branches)
    c13 = correlator(rho0, h, 0.0, 2 * tau, first_branches, second_branches)
    return np.array([c12 + c23 - c13, -c12 - c23 - c13, -c12 + c23 + c13])


def bell_rho():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def ghz_rho(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def random_density_matrix(n, rng):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hamiltonian_terms(n, rng, max_terms=4):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        s = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms.append((float(rng.uniform(-1.5, 1.5)), s))
    return terms


def local_operator(op, targets, n):
    """Full-register matrix of ``op`` acting on ``targets`` (``targets[k]``
    supplies bit k of the local index), as a sum over the local matrix
    elements of Kronecker chains of single-qubit |a><b| factors."""
    basis = np.eye(2, dtype=complex)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(op.shape[0]):
        for b in range(op.shape[1]):
            factors = {
                q: np.outer(basis[(a >> k) & 1], basis[(b >> k) & 1])
                for k, q in enumerate(targets)
            }
            chain = np.array([[1.0 + 0j]])
            for q in range(n - 1, -1, -1):
                chain = np.kron(chain, factors.get(q, I2))
            full = full + op[a, b] * chain
    return full


def kraus_sum(rho, kraus_ops, targets):
    """Literal sum_k K rho K^dagger with every K embedded densely."""
    n = int(np.log2(rho.shape[0]))
    out = np.zeros_like(rho, dtype=complex)
    for k in kraus_ops:
        full = local_operator(k, targets, n)
        out = out + full @ rho @ full.conj().T
    return out


def depolarizing_ops(p, m):
    """Kraus operators sqrt(w) P of uniform depolarizing on m qubits."""
    ops = []
    for labels in itertools.product("IXYZ", repeat=m):
        w = 1 - p * (4**m - 1) / 4**m if set(labels) == {"I"} else p / 4**m
        ops.append(np.sqrt(w) * pauli_string("".join(labels)))
    return ops


def relaxation_ops(t1, t2, dt):
    """Kraus lists on one qubit: amplitude damping for t1, then dephasing at
    the pure-dephasing rate 1/t2 - 1/(2 t1)."""
    channels = []
    if t1 is not None:
        g = 1 - np.exp(-dt / t1)
        channels.append(
            [np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])]
        )
    if t2 is not None:
        rate = 1 / t2 - (0.5 / t1 if t1 is not None else 0.0)
        p = 0.5 * (1 - np.exp(-dt * max(rate, 0.0)))
        channels.append([np.sqrt(1 - p) * I2, np.sqrt(p) * Z])
    return channels


def slsqp_fit(matrix, target):
    """Least-squares fit of ``matrix @ x`` to ``target`` over the probability
    simplex by scipy's SLSQP, started at the uniform point."""
    from scipy import optimize

    from lgsim import MitigationFailed

    dim = target.size
    result = optimize.minimize(
        lambda x: float(np.sum((matrix @ x - target) ** 2)),
        x0=np.full(dim, 1.0 / dim),
        jac=lambda x: 2.0 * matrix.T @ (matrix @ x - target),
        bounds=[(0.0, 1.0)] * dim,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    if not result.success:
        raise MitigationFailed(f"constrained least squares failed: {result.message}")
    return result.x


def mitigate_row(target, matrix, fit):
    """Literal one-row readout mitigation: solve, fall back to ``fit`` on an
    entry below -0.01 or a singular matrix, clip at 0 and renormalise.
    Returns the row and whether it took the fit."""
    try:
        x = np.linalg.solve(matrix, target)
    except np.linalg.LinAlgError:
        x = None
    used_fit = x is None or x.min() < -0.01
    if used_fit:
        x = fit(matrix, target)
    x = np.clip(x, 0.0, None)
    return x / x.sum(), used_fit


def bootstrap_correlator(counts, n_shots, seed, matrix, fit):
    """Mitigated correlator and its bootstrap error over 200 resamples, one
    at a time; ``counts`` is in ++, +-, -+, -- order and the stream is
    seeded as in ``mitigate_correlator``."""
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    raw_probs = np.asarray(counts, dtype=float) / n_shots
    value = float(signs @ mitigate_row(raw_probs / raw_probs.sum(), matrix, fit)[0])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    draws = rng.multinomial(n_shots, raw_probs, size=200)
    values = np.empty(200)
    for i, sample in enumerate(draws):
        sample = sample.astype(float)
        values[i] = signs @ mitigate_row(sample / sample.sum(), matrix, fit)[0]
    return value, float(values.std(ddof=1))


# ---------------------------------------------------------------------------
# readout model


def flip_matrix(p_read1_given0, p_read0_given1):
    """1-bit readout confusion, entry (r, s) = P(read r | true s)."""
    return np.array(
        [[1 - p_read1_given0, p_read0_given1], [p_read1_given0, 1 - p_read0_given1]]
    )


def per_bit_map(single, m):
    """Entry (r, s) = prod_k single[bit k of r, bit k of s]: independent
    flips of m bits, enumerated pattern by pattern."""
    out = np.ones((2**m, 2**m))
    for r in range(2**m):
        for s in range(2**m):
            for k in range(m):
                out[r, s] *= single[(r >> k) & 1, (s >> k) & 1]
    return out


def sign_flip_confusion(p, m):
    """Sign confusion of an m-bit parity read under symmetric flips with
    probability p per bit: the sign flips with probability (1 - (1-2p)^m) / 2."""
    q = 0.5 * (1.0 - (1.0 - 2.0 * p) ** m)
    return np.array([[1 - q, q], [q, 1 - q]])


def per_shot_readouts(prepared, m, readout, shots, rng):
    """Read-pattern counts of ``shots`` reads of the basis state ``prepared``,
    each shot's bits flipped one at a time (the former calibration loop)."""
    patterns = np.full(shots, prepared, dtype=np.int64)
    return np.bincount(_record_patterns(patterns, m, readout, rng), minlength=2**m)


# ---------------------------------------------------------------------------
# per-shot sampler

UNREACHABLE_PROB = 1e-12


def _bit_distribution(rho: DensityMatrix, qubits: tuple[int, ...]) -> np.ndarray:
    """Probability over the computational-basis patterns of ``qubits``."""
    from lgsim.observables import _pattern_keys

    diag = np.clip(np.real(np.diagonal(rho.matrix)), 0.0, None)
    keys = _pattern_keys(rho.dim, qubits)
    dist = np.bincount(keys, weights=diag, minlength=2 ** len(qubits))
    total = dist.sum()
    return dist / total if total > 0 else dist


def _pattern_branch(rho: DensityMatrix, qubits: tuple[int, ...], pattern: int):
    """Probability and collapsed state for one bit pattern of ``qubits``."""
    from lgsim import DensityMatrix
    from lgsim.observables import _pattern_keys

    sel = _pattern_keys(rho.dim, qubits) == pattern
    p = float(np.real(np.diagonal(rho.matrix))[sel].sum())
    if p <= UNREACHABLE_PROB:
        return p, None
    mask = np.outer(sel, sel)
    return p, DensityMatrix(rho.num_qubits, np.where(mask, rho.matrix, 0.0) / p)


def _first_branches(rho: DensityMatrix, obs: DichotomicObservable):
    """Collapse branches of the first measurement at the observable's
    granularity, for the sampled engine: (value, probability, collapsed
    state or None)."""
    from lgsim import DensityMatrix
    from lgsim.observables import _pattern_signs

    if obs.bitwise_collapse and len(obs.qubits) > 1:
        signs = _pattern_signs(len(obs.qubits))
        out = []
        for pattern in range(2 ** len(obs.qubits)):
            p, rho_b = _pattern_branch(rho, obs.qubits, pattern)
            out.append((int(signs[pattern]), p, rho_b))
        return out
    out = []
    for value, proj in observable_pair(obs):
        p = float(np.trace(proj @ rho.matrix).real)
        if p > UNREACHABLE_PROB:
            out.append((value, p, DensityMatrix(rho.num_qubits, proj @ rho.matrix @ proj / p)))
        else:
            out.append((value, p, None))
    return out


def _confusion_matrix_for(
    readout: "ConfusionMatrix", m: int
) -> tuple[np.ndarray, bool]:
    """Return (matrix, per_bit). Per-bit mode applies the 2x2 matrix to each
    measured bit independently; otherwise the matrix must cover all m bits."""
    from lgsim import InvalidNoiseParameter

    if readout.num_bits == 1:
        return readout.matrix, True
    if readout.num_bits == m:
        return readout.matrix, False
    raise InvalidNoiseParameter(
        f"readout confusion on {readout.num_bits} bits cannot serve a "
        f"{m}-bit measurement"
    )


def _record_patterns(
    true_patterns: np.ndarray,
    m: int,
    readout: "ConfusionMatrix",
    rng: np.random.Generator,
) -> np.ndarray:
    """Pass true bit patterns through the confusion matrix."""
    matrix, per_bit = _confusion_matrix_for(readout, m)
    if per_bit:
        p_read1_given0 = matrix[1, 0]
        p_read0_given1 = matrix[0, 1]
        out = true_patterns.copy()
        for k in range(m):
            bits = (true_patterns >> k) & 1
            flip_prob = np.where(bits == 0, p_read1_given0, p_read0_given1)
            flips = rng.random(true_patterns.shape[0]) < flip_prob
            out ^= flips.astype(out.dtype) << k
        return out
    cum = np.cumsum(matrix, axis=0)
    u = rng.random(true_patterns.shape[0])
    out = np.empty_like(true_patterns)
    for pattern in np.unique(true_patterns):
        mask = true_patterns == pattern
        out[mask] = np.minimum(
            np.searchsorted(cum[:, pattern], u[mask]), matrix.shape[0] - 1
        )
    return out


def _draw_categorical(
    dist: np.ndarray, u: np.ndarray
) -> np.ndarray:
    cum = np.cumsum(dist)
    return np.minimum(np.searchsorted(cum, u), dist.size - 1)


def per_shot_correlator(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    sched: MeasurementSchedule,
    n_shots: int,
    noise: "NoiseModel | None" = None,
    seed: int = 0,
) -> tuple[CorrelatorEstimate, CountsVector]:
    """Shot-sampled two-time correlator, one record per shot: the sampler
    that ``lgsim.sampled_correlator`` replaced by one multinomial draw over
    the exact recorded law, kept as its oracle.

    Each shot evolves to the first time, samples and collapses the first
    observable, evolves on, and samples the second. The deterministic pieces
    (branch states and their outcome distributions) are computed once; shots
    draw from them, so the counts match the naive per-shot loop distribution
    exactly. With ``noise.readout_confusion`` set, every read bit is flipped
    through the confusion matrix before being recorded.
    """
    from lgsim import CorrelatorEstimate, CountsVector, InvalidObservable, evolve_density
    from lgsim.observables import METHOD_SAMPLED, _check_register, _pattern_signs

    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    _check_register(rho0, sched)
    obs1, obs2 = sched.first_observable, sched.second_observable
    readout = noise.readout_confusion if noise is not None else None
    m1, m2 = len(obs1.qubits), len(obs2.qubits)
    for obs, m in ((obs1, m1), (obs2, m2)):
        if readout is not None and m > 1 and obs.basis != "z":
            raise InvalidObservable(
                "bit-level readout error needs computational-basis observables"
            )

    rho_i = evolve_density(rho0, dynamics, 0.0, sched.t_first, noise)
    rng = np.random.default_rng(seed)

    # --- first measurement -------------------------------------------------
    pattern_level_1 = m1 > 1 and (readout is not None or obs1.bitwise_collapse)
    u1 = rng.random(n_shots)
    if pattern_level_1:
        dist1 = _bit_distribution(rho_i, obs1.qubits)
        patterns1 = _draw_categorical(dist1, u1)
        signs1 = _pattern_signs(m1)
        q1 = signs1[patterns1]
        branch_ids = patterns1 if obs1.bitwise_collapse else q1
    else:
        p_plus = float(np.trace(observable_pair(obs1)[0][1] @ rho_i.matrix).real)
        q1 = np.where(u1 < p_plus, 1, -1)
        patterns1 = ((1 - q1) // 2).astype(np.int64)
        branch_ids = q1

    if readout is not None:
        recorded1 = _pattern_signs(m1)[_record_patterns(patterns1, m1, readout, rng)]
    else:
        recorded1 = q1

    # --- collapse, evolve, second measurement ------------------------------
    branches = _first_branches(rho_i, obs1)
    if obs1.bitwise_collapse and m1 > 1:
        keys = list(range(2**m1))
    else:
        keys = [+1, -1]
    evolved: dict[int, DensityMatrix | None] = {}
    for key, (_, _, rho_b) in zip(keys, branches):
        if rho_b is None:
            evolved[key] = None
        else:
            evolved[key] = evolve_density(rho_b, dynamics, sched.t_first, sched.t_second, noise)

    pattern_level_2 = m2 > 1 and readout is not None
    u2 = rng.random(n_shots)
    q2 = np.empty(n_shots, dtype=np.int64)
    patterns2 = np.empty(n_shots, dtype=np.int64)
    signs2 = _pattern_signs(m2)
    for key in keys:
        mask = branch_ids == key
        if not mask.any():
            continue
        rho_j = evolved[key]
        if rho_j is None:
            raise RuntimeError("shots landed on an unreachable branch")
        if pattern_level_2:
            dist2 = _bit_distribution(rho_j, obs2.qubits)
            patterns2[mask] = _draw_categorical(dist2, u2[mask])
            q2[mask] = signs2[patterns2[mask]]
        else:
            p_plus2 = float(np.trace(observable_pair(obs2)[0][1] @ rho_j.matrix).real)
            q2[mask] = np.where(u2[mask] < p_plus2, 1, -1)
            patterns2[mask] = (1 - q2[mask]) // 2

    if readout is not None:
        recorded2 = signs2[_record_patterns(patterns2, m2, readout, rng)]
    else:
        recorded2 = q2

    # --- aggregate ----------------------------------------------------------
    products = recorded1 * recorded2
    value = float(products.mean())
    if n_shots > 1:
        std_error = float(products.std(ddof=1) / np.sqrt(n_shots))
    else:
        std_error = float("nan")
    pair_index = 2 * ((1 - recorded1) // 2) + (1 - recorded2) // 2
    raw = np.bincount(pair_index, minlength=4)
    counts = CountsVector(2, tuple(int(c) for c in raw), n_shots, seed)
    estimate = CorrelatorEstimate(value, std_error, n_shots, METHOD_SAMPLED)
    return estimate, counts
