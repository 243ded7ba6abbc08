"""Independent brute-force reference implementations used as test oracles.

Deliberately avoids the package's evolution and measurement machinery:
propagators come from scipy.linalg.expm, projectors are built here from
explicit Kronecker products, and the correlator is a literal double sum over
measurement branches. The one exception is ``branch_correlator``, which
evolves each measurement branch with the package's checked
``evolve_density`` so that noisy and Trotter dynamics can be compared.
"""

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
    """Character k of the string acts on qubit k."""
    out = np.array([[1.0 + 0j]])
    for c in reversed(s):
        out = np.kron(out, PAULI[c])
    return out


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


def random_kraus_ops(num_targets, rank, rng):
    """Complete Kraus set: ``rank`` blocks of a random isometry."""
    dim = 2**num_targets
    a = rng.normal(size=(rank * dim, dim)) + 1j * rng.normal(size=(rank * dim, dim))
    isometry, _ = np.linalg.qr(a)
    return [isometry[i * dim : (i + 1) * dim] for i in range(rank)]


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
