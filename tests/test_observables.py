import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
import lgsim.core.evolution as evolution
import lgsim.observables as observables
from lgsim import (
    CountsVector,
    DensityMatrix,
    DichotomicObservable,
    Engine,
    InvalidChannel,
    InvalidGrid,
    InvalidObservable,
    InvalidState,
    MeasurementSchedule,
    NoiseModel,
    PauliSumHamiltonian,
    PureState,
    TrotterEvolution,
    exact_correlator,
    parity_observable,
    prepare_state,
    sampled_correlator,
    sigma_x_observable,
    sigma_z_observable,
)
from lgsim.core.channels import BlockChannel, PauliVector
from lgsim.mitigation import ConfusionMatrix
from lgsim.scenarios import run_bell_pair


def x_rotation(gamma, n=1, qubit=0):
    s = ["I"] * n
    s[qubit] = "X"
    return PauliSumHamiltonian.from_terms(n, [(gamma / 2.0, "".join(s))])


def two_qubit_rotations(g1, g2):
    return PauliSumHamiltonian.from_terms(2, [(g1 / 2.0, "XI"), (g2 / 2.0, "IX")])


# --- observable construction ------------------------------------------------


def dense(obs):
    """Q = P_+ - P_- from the brute-force projector pair."""
    (_, plus), (_, minus) = bf.observable_pair(obs)
    return plus - minus


def test_parity_of_single_qubit_is_z():
    obs = parity_observable([0], 1)
    assert np.abs(dense(obs) - bf.Z).max() < 1e-12
    assert (obs.basis, obs.flip) == ("z", 0)
    assert list(obs.signs) == [1.0, -1.0]
    assert not obs.bitwise_collapse


def test_two_qubit_parity_values_on_basis_states():
    obs = parity_observable([0, 1], 2)
    # |00>, |01>, |10>, |11>
    assert list(obs.signs) == [1.0, -1.0, -1.0, 1.0]
    assert np.array_equal(dense(obs), np.diag(obs.signs))


def test_bell_state_parity_expectation_is_one():
    rho = prepare_state("bell", 2).density_matrix()
    obs = parity_observable([0, 1], 2)
    # Z on qubits 0 and 1 is the Pauli string at index 3 + 3 * 4
    assert abs(PauliVector.of(rho.matrix).coefficients[15] - 1.0) < 1e-12
    assert abs(np.trace(dense(obs) @ rho.matrix).real - 1.0) < 1e-12


def test_duplicate_qubits_rejected():
    with pytest.raises(InvalidObservable):
        parity_observable([0, 0], 2)


def test_projector_algebra_validated():
    # every observable is a Z or X product, so only its description is checked
    with pytest.raises(InvalidObservable, match="basis"):
        DichotomicObservable("y_0", (0,), 1, basis="y")
    with pytest.raises(InvalidObservable, match="bitwise"):
        DichotomicObservable("x_0_1", (0, 1), 2, basis="x", bitwise_collapse=True)
    with pytest.raises(InvalidObservable, match="duplicate"):
        DichotomicObservable("z", (1, 1), 2)
    with pytest.raises(InvalidObservable, match="outside"):
        DichotomicObservable("z", (2,), 2)
    with pytest.raises(InvalidObservable, match="outside"):
        DichotomicObservable("z", (-1,), 2)
    # the derived fields are not settable
    with pytest.raises(TypeError):
        DichotomicObservable("z", (0,), 1, flip=1)
    with pytest.raises(ValueError):
        parity_observable([0], 1).signs[0] = -1.0


def test_sigma_x_observable_projects_onto_plus_minus():
    obs = sigma_x_observable(1, 2)
    assert (obs.basis, obs.flip, list(obs.signs)) == ("x", 2, [1.0] * 4)
    assert np.abs(dense(obs) - bf.op_on(bf.X, 1, 2)).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from(("z", "x", "x_product", "parity", "bitwise")),
    st.integers(0, 2**32 - 1),
)
def test_index_kernels_match_dense_projectors(n, kind, seed):
    # the collapse and the collapse branches on the Pauli form, Tr[Q y] read
    # from it, and the outcome weights from the diagonal, against the dense
    # Kronecker-product oracle
    rng = np.random.default_rng(seed)
    qubits = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    obs = {
        "z": sigma_z_observable(qubits[0], n),
        "x": sigma_x_observable(qubits[0], n),
        "x_product": DichotomicObservable("x", tuple(qubits), n, basis="x"),
        "parity": parity_observable(qubits, n, bitwise_collapse=False),
        "bitwise": parity_observable(qubits, n),
    }[kind]
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = (a + a.conj().T) / 2
    q = dense(obs)
    pairs = bf.observable_pair(obs)
    if obs.bitwise_collapse:
        pairs = bf.bitwise_parity_branches(qubits, n)

    def pauli(y):
        return PauliVector.of(y).coefficients

    r = pauli(rho)
    if not obs.bitwise_collapse:
        anticommutator = (q @ rho + rho @ q) / 2
        assert np.abs(observables._pauli_collapse(r, obs) - pauli(anticommutator)).max() <= 1e-12
    collapse = sum(v * p @ rho @ p for v, p in pairs)
    assert np.abs(observables._pauli_collapse(r, obs) - pauli(collapse)).max() <= 1e-12
    branches = observables._pauli_branches(r, obs)
    assert len(branches) == len(pairs)
    for branch, (_, p) in zip(branches, pairs):
        assert np.abs(branch - pauli(p @ rho @ p)).max() <= 1e-12
    c, lo, hi = observables._string(obs.basis, obs.qubits)
    value = c @ r[: 4 ** (hi + 1) : 4**lo]
    assert abs(value - np.trace(q @ rho).real) <= 1e-12
    weights = [np.trace(p @ rho).real for _, p in bf.observable_pair(obs)]
    diagonal = np.real(np.diagonal(rho))[:, None]
    law = observables._true_law(diagonal, np.array([value]), obs, 1)
    assert np.abs(law[0] - weights).max() <= 1e-12


@pytest.mark.parametrize(
    "build", [lambda: parity_observable([0, 11], 12), lambda: sigma_x_observable(0, 12)]
)
def test_twelve_qubit_observable_builds_without_dense_matrices(build):
    # one dense 2^12 x 2^12 complex projector alone would take 268 MB
    tracemalloc.start()
    try:
        obs = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obs.signs.shape == (2**12,)
    assert peak < 1_000_000


def test_schedule_ordering():
    obs = sigma_z_observable(0, 1)
    MeasurementSchedule((0.5, 0.5), obs, obs)  # same-time pair allowed
    with pytest.raises(InvalidGrid):
        MeasurementSchedule((1.0, 0.5), obs, obs)
    with pytest.raises(InvalidGrid):
        MeasurementSchedule((-0.1, 0.5), obs, obs)


@pytest.mark.parametrize(
    "times, name",
    [
        ((0.0, float("nan")), "second"),
        ((float("nan"), 1.0), "first"),
        ((0.0, float("inf")), "second"),
    ],
)
def test_schedule_times_must_be_finite(times, name):
    obs = sigma_z_observable(0, 1)
    with pytest.raises(InvalidGrid, match=f"{name} measurement time"):
        MeasurementSchedule(times, obs, obs)


def test_register_mismatch_rejected():
    rho = prepare_state("zero", 1).density_matrix()
    obs = sigma_z_observable(0, 2)
    sched = MeasurementSchedule((0.0, 1.0), obs, obs)
    with pytest.raises(InvalidObservable):
        exact_correlator(rho, x_rotation(1.0), [sched])
    with pytest.raises(InvalidObservable):
        sampled_correlator(rho, x_rotation(1.0), [sched], 16, None, [0])


# --- exact correlator -------------------------------------------------------


def test_single_qubit_correlator_matches_cosine():
    gamma = 1.3
    rho = prepare_state("zero", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    h = x_rotation(gamma)
    for t_i, t_j in ((0.0, 0.4), (0.2, 1.9), (1.0, 3.7)):
        (est,) = exact_correlator(rho, h, [MeasurementSchedule((t_i, t_j), obs, obs)])
        assert est.method == "exact"
        assert abs(est.value - np.cos(gamma * (t_j - t_i))) < 1e-10


def test_same_time_correlator_is_one():
    rho = prepare_state("plus", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    (est,) = exact_correlator(rho, x_rotation(0.9), [MeasurementSchedule((0.7, 0.7), obs, obs)])
    assert abs(est.value - 1.0) < 1e-12


def test_bell_cross_correlator_matches_bruteforce():
    rho = prepare_state("bell", 2).density_matrix()
    h = two_qubit_rotations(1.0, 1.0)
    first = sigma_z_observable(0, 2)
    second = sigma_z_observable(1, 2)
    h_dense = bf.hamiltonian(2, [(0.5, "XI"), (0.5, "IX")])
    for tau in (0.3, 1.1, 2.4):
        (est,) = exact_correlator(rho, h, [MeasurementSchedule((0.0, tau), first, second)])
        expected = bf.correlator(
            bf.bell_rho(), h_dense, 0.0, tau, bf.z_pair(0, 2), bf.z_pair(1, 2)
        )
        assert abs(est.value - expected) < 1e-10


def test_global_parity_correlator_uses_per_qubit_collapse():
    rho = prepare_state("bell", 2).density_matrix()
    h = two_qubit_rotations(1.0, 1.0)
    obs = parity_observable([0, 1], 2)
    h_dense = bf.hamiltonian(2, [(0.5, "XI"), (0.5, "IX")])
    for tau in (0.5, 1.7):
        (est,) = exact_correlator(rho, h, [MeasurementSchedule((0.0, tau), obs, obs)])
        fine = bf.correlator(
            bf.bell_rho(), h_dense, 0.0, tau,
            bf.bitwise_parity_branches([0, 1], 2), bf.parity_pair([0, 1], 2),
        )
        assert abs(est.value - fine) < 1e-10
    # the subspace-collapse variant is available by opting out
    coarse_obs = parity_observable([0, 1], 2, bitwise_collapse=False)
    for tau in (0.5, 1.7):
        (est,) = exact_correlator(rho, h, [MeasurementSchedule((0.0, tau), coarse_obs, coarse_obs)])
        coarse = bf.correlator(
            bf.bell_rho(), h_dense, 0.0, tau,
            bf.parity_pair([0, 1], 2), bf.parity_pair([0, 1], 2),
        )
        assert abs(est.value - coarse) < 1e-10


def test_exact_correlator_random_instances_vs_bruteforce():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        terms = bf.random_hamiltonian_terms(n, rng)
        h = PauliSumHamiltonian.from_terms(n, terms)
        rho = DensityMatrix(n, bf.random_density_matrix(n, rng))
        t_i = float(rng.uniform(0.0, 1.0))
        t_j = t_i + float(rng.uniform(0.0, 2.0))
        q1 = int(rng.integers(0, n))
        q2 = int(rng.integers(0, n))
        sched = MeasurementSchedule(
            (t_i, t_j), sigma_z_observable(q1, n), sigma_z_observable(q2, n)
        )
        (est,) = exact_correlator(rho, h, [sched])
        expected = bf.correlator(
            rho.matrix, bf.hamiltonian(n, terms), t_i, t_j, bf.z_pair(q1, n), bf.z_pair(q2, n)
        )
        assert abs(est.value - expected) < 1e-10
        assert abs(est.value) <= 1.0 + 1e-9


@st.composite
def correlator_cases(draw):
    n = draw(st.integers(1, 4))
    trotter = draw(st.booleans())
    first = draw(st.sampled_from(("z", "x", "parity", "bitwise")))
    depolarize = trotter and draw(st.booleans())
    relax = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return n, trotter, first, depolarize, relax, seed


def _on(n, paulis):
    return "".join(paulis.get(q, "I") for q in range(n))


def first_measurement(kind, n, rng):
    """A first observable of ``kind`` ("z", "x", "parity" or "bitwise") on
    qubits drawn from ``rng``, and its brute-force branches."""
    qubits = [int(q) for q in rng.permutation(n)[: int(rng.integers(min(2, n), n + 1))]]
    q = qubits[0]
    if kind == "z":
        return sigma_z_observable(q, n), bf.z_pair(q, n)
    if kind == "x":
        return sigma_x_observable(q, n), bf.x_pair(q, n)
    if kind == "parity":
        return parity_observable(qubits, n, bitwise_collapse=False), bf.parity_pair(qubits, n)
    return parity_observable(qubits, n), bf.bitwise_parity_branches(qubits, n)


def build_correlator_case(case):
    """State, dynamics, schedule, noise, and the brute-force branch lists of
    one drawn case; ``h_dense`` is None for Trotter dynamics."""
    n, trotter, first, depolarize, relax, seed = case
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(n, bf.random_density_matrix(n, rng))
    if trotter:
        # nearest-neighbour terms, each Pauli string once
        strings = []
        for q in range(n):
            strings += [_on(n, {q: "X"}), _on(n, {q: "Z"})]
        for q in range(n - 1):
            strings += [_on(n, {q: "Z", q + 1: "Z"}), _on(n, {q: "X", q + 1: "Y"})]
        terms = [(float(rng.uniform(-1.5, 1.5)), s) for s in strings]
    else:
        terms = bf.random_hamiltonian_terms(n, rng)
    h = PauliSumHamiltonian.from_terms(n, terms)
    if trotter:
        dt = float(rng.uniform(0.05, 0.4))
        dynamics = TrotterEvolution(h, dt)
        t_i = int(rng.integers(0, 4)) * dt
        t_j = t_i + int(rng.integers(0, 4)) * dt
        h_dense = None
    else:
        dynamics = h
        t_i = float(rng.uniform(0.0, 1.5))
        t_j = t_i + float(rng.uniform(0.0, 2.0))
        h_dense = bf.hamiltonian(n, terms)
    noise = None
    if depolarize or relax:
        t1 = float(rng.uniform(0.5, 5.0)) if relax else None
        noise = NoiseModel(
            t1=t1,
            t2=t1 * float(rng.uniform(0.2, 2.0)) if relax else None,
            gate_depolarizing_1q=float(rng.uniform(0.0, 0.1)) if depolarize else 0.0,
            gate_depolarizing_2q=float(rng.uniform(0.0, 0.2)) if depolarize else 0.0,
        )
    obs1, branches1 = first_measurement(first, n, rng)
    second = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    obs2 = parity_observable(second, n, bitwise_collapse=False)
    sched = MeasurementSchedule((t_i, t_j), obs1, obs2)
    return rho, dynamics, sched, noise, branches1, bf.parity_pair(second, n), h_dense


@settings(max_examples=80, deadline=None)
@given(correlator_cases())
@example((4, True, "bitwise", True, True, 11))
@example((4, False, "bitwise", False, True, 12))
@example((3, True, "x", True, False, 13))
@example((3, False, "parity", False, False, 14))
@example((2, False, "x", False, False, 15))
def test_signed_map_matches_branch_formula(case):
    # one evolution of M(rho_i) = sum_n q_n P_n rho_i P_n against one checked
    # evolution per renormalised branch, for every collapse kind and noise
    rho, dynamics, sched, noise, branches1, branches2, h_dense = build_correlator_case(case)
    q2 = sum(v * p for v, p in branches2)
    (est,) = exact_correlator(rho, dynamics, [sched], noise)
    oracle = bf.branch_correlator(rho, dynamics, *sched.times, branches1, q2, noise)
    assert abs(est.value - oracle) <= 1e-12
    if noise is None and h_dense is not None:
        expm = bf.correlator(rho.matrix, h_dense, *sched.times, branches1, branches2)
        assert abs(est.value - expm) <= 1e-12


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9, np.nan])
def test_evolved_signed_operator_is_checked(monkeypatch, scale):
    # an exact second segment whose propagator is not unitary must not yield
    # a value; a mixed start keeps the correlator on the density-matrix path,
    # which reads that segment backward. The first segment keeps its exact
    # propagator
    expm = observables._expm_hermitian
    monkeypatch.setattr(observables, "_expm_hermitian", lambda *args: scale * expm(*args))
    plus = prepare_state("plus", 2).density_matrix().matrix
    rho = DensityMatrix(2, 0.8 * plus + 0.05 * np.eye(4))
    sched = MeasurementSchedule((0.3, 0.9), sigma_x_observable(0, 2), sigma_z_observable(1, 2))
    with pytest.raises(InvalidState, match="drifted"):
        exact_correlator(rho, two_qubit_rotations(1.0, 0.4), [sched])


@settings(max_examples=60, deadline=None)
@given(correlator_cases().filter(lambda case: case[3] or case[4]))
def test_noisy_correlator_is_bounded(case):
    rho, dynamics, sched, noise, *_ = build_correlator_case(case)
    assert abs(exact_correlator(rho, dynamics, [sched], noise)[0].value) <= 1.0 + 1e-12


# --- state-vector path of the exact correlator -------------------------------


def random_pure_rho(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amps / np.linalg.norm(amps)).density_matrix()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from(("z", "x", "parity", "bitwise")),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(4, "bitwise", True, False, 41)
@example(3, "x", False, True, 42)
def test_pure_state_path_matches_the_density_path(n, first, trotter, readout, seed):
    # random nearest-neighbour Hamiltonian and pure start; readout confusion
    # is no channel, so it keeps the vector path
    _, dynamics, sched, *_ = build_correlator_case((n, True, first, False, False, seed))
    rng = np.random.default_rng(seed + 1)
    rho = random_pure_rho(n, rng)
    if not trotter:
        dynamics = dynamics.hamiltonian
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.1)) if readout else None
    assert observables._state_vector(rho) is not None
    vector = exact_correlator(rho, dynamics, [sched], noise)[0].value
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "_state_vector", lambda rho: None)
        density = exact_correlator(rho, dynamics, [sched], noise)[0].value
    assert abs(vector - density) <= 1e-12


def test_only_mixed_or_noisy_correlators_evolve_density_matrices(monkeypatch):
    # a noiseless pure start never sends a density matrix through a segment;
    # a mixed start or a noise channel keeps the density path, which runs
    # only the first segment forward, on the 4 x 4 array of the state, for
    # both kinds of dynamics, and reads the second one backward, within 1e-12
    # of the branch formula
    evolved = []
    evolve = evolution._evolve_segment

    def record(rho, *args):
        evolved.append(rho)
        return evolve(rho, *args)

    # under either name, so that a segment observables ran itself would count
    for module in (evolution, observables):
        monkeypatch.setattr(module, "_evolve_segment", record, raising=False)
    h = two_qubit_rotations(1.0, 0.4)
    sched = MeasurementSchedule((0.3, 0.9), sigma_x_observable(0, 2), sigma_z_observable(1, 2))
    pure = prepare_state("plus", 2).density_matrix()
    readout = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.1))
    for dynamics in (h, TrotterEvolution(h, 0.3)):
        exact_correlator(pure, dynamics, [sched])
        exact_correlator(pure, dynamics, [sched], readout)
    assert evolved == []
    mixed = DensityMatrix(2, 0.8 * pure.matrix + 0.05 * np.eye(4))
    branches, q2 = bf.x_pair(0, 2), dense(sched.second_observable)
    for dynamics in (h, TrotterEvolution(h, 0.3)):
        for rho, noise in ((mixed, None), (pure, NoiseModel(t2=2.0))):
            value = exact_correlator(rho, dynamics, [sched], noise)[0].value
            assert len(evolved) == 1 and type(evolved[0]) is np.ndarray
            assert evolved[0].shape == (4, 4)
            oracle = bf.branch_correlator(rho, dynamics, *sched.times, branches, q2, noise)
            assert abs(value - oracle) <= 1e-12
            evolved.clear()


@pytest.mark.parametrize(
    "module, match", [(evolution, "norm"), (observables, "drifted")]
)
@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
def test_evolved_state_vectors_are_checked(monkeypatch, module, match, scale):
    # a first (evolution) or second (observables) vector segment that gains
    # or loses norm must not yield a value
    evolve = module._evolve_vectors
    monkeypatch.setattr(module, "_evolve_vectors", lambda psi, *args: scale * evolve(psi, *args))
    rho = prepare_state("plus", 2).density_matrix()
    sched = MeasurementSchedule((0.3, 0.9), sigma_x_observable(0, 2), sigma_z_observable(1, 2))
    with pytest.raises(InvalidState, match=match):
        exact_correlator(rho, two_qubit_rotations(1.0, 0.4), [sched])


def test_readout_maps_are_built_once_per_scan(monkeypatch):
    # the 2-bit readout map of a global parity is one kron, shared by every
    # correlator of the scan; the sign-pair confusion is the other
    krons = []
    kron = np.kron

    def counting(*args):
        krons.append(args)
        return kron(*args)

    monkeypatch.setattr(np, "kron", counting)
    run_bell_pair(
        "lgi_global",
        1.0,
        0.8,
        Engine.sampled(256, seed=3, mitigate=True),
        NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.03)),
        n_points=5,
        tau_max=1.0,
    )
    assert len(krons) <= 2


# --- batches of schedules ----------------------------------------------------


@st.composite
def batch_cases(draw):
    n = draw(st.integers(1, 3))
    trotter = draw(st.booleans())
    start = draw(st.sampled_from(("pure", "mixed", "noisy")))
    kinds = draw(st.lists(st.sampled_from(("z", "x", "parity", "bitwise")), max_size=6))
    order = draw(st.permutations(range(len(kinds))))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, trotter, start, kinds, order, seed


def build_batch(case):
    """State, dynamics, noise, and a batch of schedules with their
    brute-force branch lists. First times come from a pool of two, so they
    repeat, and about a third of the windows are same-time pairs."""
    n, trotter, start, kinds, _, seed = case
    noisy = start == "noisy"
    rho, dynamics, _, noise, *_ = build_correlator_case(
        (n, trotter, "z", noisy and trotter, noisy, seed)
    )
    rng = np.random.default_rng(seed + 1)
    if start != "mixed":
        rho = random_pure_rho(n, rng)
    step = dynamics.dt if trotter else float(rng.uniform(0.2, 0.6))
    pool = [int(k) * step for k in rng.integers(0, 3, size=2)]
    batch = []
    for kind in kinds:
        t_i = pool[int(rng.integers(0, 2))]
        t_j = t_i + int(rng.integers(0, 3)) * step
        obs1, branches1 = first_measurement(kind, n, rng)
        q = int(rng.integers(0, n))
        obs2 = sigma_x_observable(q, n) if rng.random() < 0.3 else sigma_z_observable(q, n)
        batch.append((MeasurementSchedule((t_i, t_j), obs1, obs2), branches1, dense(obs2)))
    return rho, dynamics, noise, batch


@settings(max_examples=60, deadline=None)
@given(batch_cases())
@example((3, True, "pure", ["bitwise", "x", "z", "parity", "z", "x"], [5, 3, 1, 0, 2, 4], 51))
@example((3, False, "mixed", ["z", "bitwise", "x", "z"], [2, 0, 3, 1], 52))
@example((2, True, "noisy", ["x", "z", "z", "parity", "bitwise"], [4, 1, 0, 3, 2], 53))
def test_batch_matches_single_calls_and_bruteforce(case):
    # one call per batch gives what one call per schedule gives, in the order
    # of the batch, and the branch formula within 1e-12. The density path is
    # equal bit for bit; on the vector path a BLAS product rounds a column
    # differently depending on how many columns share it, by about 1e-16
    rho, dynamics, noise, batch = build_batch(case)
    schedules = [sched for sched, *_ in batch]
    values = [est.value for est in exact_correlator(rho, dynamics, schedules, noise)]
    assert len(values) == len(schedules)
    singles = [exact_correlator(rho, dynamics, [sched], noise)[0].value for sched in schedules]
    if observables._state_vector(rho) is None or noise is not None:
        assert values == singles
    np.testing.assert_allclose(values, singles, rtol=0, atol=1e-14)
    for value, (sched, branches1, q2) in zip(values, batch):
        oracle = bf.branch_correlator(rho, dynamics, *sched.times, branches1, q2, noise)
        assert abs(value - oracle) <= 1e-12
    order = case[4]
    shuffled = exact_correlator(rho, dynamics, [schedules[i] for i in order], noise)
    np.testing.assert_allclose(
        [est.value for est in shuffled], [values[i] for i in order], rtol=0, atol=1e-14
    )
    assert exact_correlator(rho, dynamics, [], noise) == ()


@settings(max_examples=30, deadline=None)
@given(batch_cases().filter(lambda case: case[3]), st.integers(0, 5))
def test_register_mismatch_in_a_batch_fails_before_any_evolution(case, position):
    rho, dynamics, noise, batch = build_batch(case)
    schedules = [sched for sched, *_ in batch]
    n = rho.num_qubits
    wrong = sigma_z_observable(0, n + 1)
    wrong_sched = MeasurementSchedule((0.0, 0.0), wrong, wrong)
    schedules.insert(position % (len(schedules) + 1), wrong_sched)
    evolved = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "evolve_density", lambda *args: evolved.append(args))
        with pytest.raises(InvalidObservable, match="do not match state register"):
            exact_correlator(rho, dynamics, schedules, noise)
    assert evolved == []


def test_trotter_batch_continues_a_longer_second_segment(monkeypatch):
    # C12 (0, tau) and C23 (tau, 2 tau) share the backward image of Q_j over
    # k steps, and C13 (0, 2 tau) continues it by k more; every value equals
    # its one-schedule call
    h = two_qubit_rotations(1.0, 0.4)
    evo = TrotterEvolution(h, 0.1)
    plus = prepare_state("plus", 2).density_matrix().matrix
    rho = DensityMatrix(2, 0.8 * plus + 0.05 * np.eye(4))
    obs1, obs2 = sigma_x_observable(0, 2), sigma_z_observable(1, 2)
    schedules = [MeasurementSchedule(w, obs1, obs2) for w in ((0.0, 0.3), (0.3, 0.6), (0.0, 0.6))]
    singles = [exact_correlator(rho, evo, [s], NoiseModel(t2=2.0))[0].value for s in schedules]
    steps = []
    backward = observables._heisenberg_image

    def recording(image, channels, count):
        steps.append(count)
        return backward(image, channels, count)

    monkeypatch.setattr(observables, "_heisenberg_image", recording)
    batch = exact_correlator(rho, evo, schedules, NoiseModel(t2=2.0))
    assert steps == [3, 3]
    assert [est.value for est in batch] == singles


def with_entry(r, index, value):
    r = r.copy()
    r[index] = value
    return r


@pytest.mark.parametrize(
    "qubit, edit, error, match",
    [
        # qubit 0 lies outside the light cone of Z_1, so the backward path
        # never runs its channel: only the check sees that it loses trace
        (0, lambda r: 0.999 * r, InvalidChannel, "not trace-preserving"),
        (0, lambda r: with_entry(r, (0, 3), np.nan), InvalidChannel, "not trace-preserving"),
        # Z -> Z on the qubit of Q_j: the value is NaN
        (1, lambda r: with_entry(r, (3, 3), np.nan), ValueError, "outside"),
    ],
    ids=["scaled", "nan_in_row_i", "nan_on_the_cone"],
)
def test_backward_path_checks_that_every_channel_keeps_the_trace(
    monkeypatch, qubit, edit, error, match
):
    # the fields on two qubits make one block channel per qubit; the first
    # measurement is at 0, so no first segment runs the edited channel
    evo = TrotterEvolution(two_qubit_rotations(1.0, 0.4), 0.1)
    noise = NoiseModel(t2=2.0)
    channels = tuple(
        BlockChannel(ch.target_qubits, edit(ch.transfer_matrix))
        if ch.target_qubits == (qubit,) else ch
        for ch in evo.block_channels(noise)
    )
    monkeypatch.setattr(TrotterEvolution, "block_channels", lambda self, noise: channels)
    rho = DensityMatrix(2, 0.25 * np.eye(4))
    sched = MeasurementSchedule((0.0, 0.3), sigma_x_observable(0, 2), sigma_z_observable(1, 2))
    with pytest.raises(error, match=match):
        exact_correlator(rho, evo, [sched], noise)


@st.composite
def light_cone_cases(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("trotter", "exact")))
    first = draw(st.sampled_from(("z", "x", "parity", "bitwise")))
    second = draw(st.sampled_from(("z", "x")))
    qubit = draw(st.integers(0, n - 1))
    relax = draw(st.booleans())
    start = draw(st.sampled_from(("mixed", "noisy")))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, k, kind, first, second, qubit, relax, start, seed


@settings(max_examples=40, deadline=None)
@given(light_cone_cases())
@example((6, 1, "trotter", "z", "z", 5, False, "mixed", 61))
@example((6, 1, "trotter", "parity", "z", 2, True, "noisy", 62))
@example((5, 2, "trotter", "bitwise", "x", 0, True, "mixed", 63))
@example((4, 2, "exact", "bitwise", "z", 3, True, "mixed", 64))
@example((3, 1, "exact", "x", "x", 1, False, "noisy", 65))
def test_backward_images_on_the_light_cone_match_bruteforce(case):
    # the three windows of one tau with dt = tau / k, on up to 6 qubits:
    # Trotter dynamics under gate noise, where the light cone of Q_j after k
    # steps is narrower than the register, or exact dynamics, whose backward
    # image covers it; each with or without t1/t2. Each value agrees with
    # the branch formula, and the batch with its one-schedule calls bit for
    # bit
    n, k, kind, first, second, qubit, relax, start, seed = case
    rho, evo, sched, noise, branches1, *_ = build_correlator_case(
        (n, True, first, True, relax, seed)
    )
    dynamics = evo if kind == "trotter" else evo.hamiltonian
    if start == "noisy":
        rho = random_pure_rho(n, np.random.default_rng(seed + 1))
    obs2 = (sigma_z_observable if second == "z" else sigma_x_observable)(qubit, n)
    tau = k * evo.dt
    schedules = [
        MeasurementSchedule(w, sched.first_observable, obs2)
        for w in ((0.0, tau), (tau, 2 * tau), (0.0, 2 * tau))
    ]
    values = [est.value for est in exact_correlator(rho, dynamics, schedules, noise)]
    assert values == [exact_correlator(rho, dynamics, [s], noise)[0].value for s in schedules]
    for value, s in zip(values, schedules):
        oracle = bf.branch_correlator(rho, dynamics, *s.times, branches1, dense(obs2), noise)
        assert abs(value - oracle) <= 1e-12


# --- sampled correlator -----------------------------------------------------


def test_same_seed_reproduces_counts():
    rho = prepare_state("zero", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    sched = MeasurementSchedule((0.0, 0.9), obs, obs)
    _, counts_a = sampled_correlator(rho, x_rotation(1.0), [sched], 4096, None, [123])[0]
    _, counts_b = sampled_correlator(rho, x_rotation(1.0), [sched], 4096, None, [123])[0]
    _, counts_c = sampled_correlator(rho, x_rotation(1.0), [sched], 4096, None, [124])[0]
    assert counts_a.counts == counts_b.counts
    assert counts_a.counts != counts_c.counts


def test_single_shot_is_flagged():
    rho = prepare_state("plus", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    ((est, counts),) = sampled_correlator(
        rho, x_rotation(1.0), [MeasurementSchedule((0.0, 0.5), obs, obs)], 1, None, [5]
    )
    assert est.value in (-1.0, 1.0)
    assert np.isnan(est.std_error)
    assert counts.total == 1


def test_quarter_period_correlator_concentrates_near_zero():
    rho = prepare_state("zero", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    sched = MeasurementSchedule((0.0, np.pi / 2), obs, obs)
    est, _ = sampled_correlator(rho, x_rotation(1.0), [sched], 8192, None, [31])[0]
    assert abs(est.value) <= 4.0 / np.sqrt(8192)


def test_sampled_matches_exact_within_four_sigma():
    rng = np.random.default_rng(424242)
    failures = 0
    for trial in range(20):
        n = int(rng.integers(1, 3))
        terms = bf.random_hamiltonian_terms(n, rng)
        h = PauliSumHamiltonian.from_terms(n, terms)
        rho = DensityMatrix(n, bf.random_density_matrix(n, rng))
        t_i = float(rng.uniform(0.0, 1.0))
        t_j = t_i + float(rng.uniform(0.1, 2.0))
        q1, q2 = int(rng.integers(0, n)), int(rng.integers(0, n))
        sched = MeasurementSchedule(
            (t_i, t_j), sigma_z_observable(q1, n), sigma_z_observable(q2, n)
        )
        exact = exact_correlator(rho, h, [sched])[0].value
        est, _ = sampled_correlator(rho, h, [sched], 4096, None, [1000 + trial])[0]
        sigma = est.std_error if est.std_error > 0 else 1.0 / np.sqrt(4096)
        if abs(est.value - exact) > 4.0 * sigma:
            failures += 1
    assert failures <= 1


def test_counts_marginals_match_single_time_distributions():
    # first readout at t = 0 on a z eigenstate is deterministic, so the
    # second-time marginal must track the one-time distribution
    gamma, tau = 1.0, 0.8
    rho = prepare_state("zero", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    sched = MeasurementSchedule((0.0, tau), obs, obs)
    est, counts = sampled_correlator(rho, x_rotation(gamma), [sched], 8192, None, [8])[0]
    probs = np.array(counts.counts) / counts.total
    # Q_i marginal: always +1
    assert probs[0] + probs[1] == 1.0
    # Q_j marginal vs exact single-time expectation cos(gamma tau)
    marginal = probs[0] + probs[2] - probs[1] - probs[3]
    sigma = np.sqrt((1 - np.cos(gamma * tau) ** 2) / 8192)
    assert abs(marginal - np.cos(gamma * tau)) < 4 * sigma


@pytest.mark.parametrize(
    "outcomes, n_shots, message",
    [
        ({"++": 1}, True, "n_shots must be an integer"),
        ({"++": 1}, "1", "n_shots must be an integer"),
        ({"++": 2}, 2.5, "n_shots must be an integer"),
        ({}, 0, "n_shots must be at least 1"),
        ({"++": -1, "+-": 0}, -1, "n_shots must be at least 1"),
    ],
)
def test_counts_table_needs_a_positive_integer_shot_count(outcomes, n_shots, message):
    # a boolean used to pass as 1 shot, and 0 shots gave NaN probabilities
    with pytest.raises(ValueError, match=message):
        CountsVector.from_outcomes(outcomes, n_shots)
    assert CountsVector.from_outcomes({"++": 2}, 2.0).total == 2
    with pytest.raises(ValueError, match="counts sum 10 != total 20"):
        CountsVector.from_outcomes({"++": 10}, 20)


def test_counts_vector_total_is_a_count():
    # a boolean total used to pass as 1 shot
    with pytest.raises(ValueError, match="total must be an integer, got True"):
        CountsVector(1, (1, 0), True)
    with pytest.raises(ValueError, match="total is negative"):
        CountsVector(1, (0, 0), -1)
    assert CountsVector(1, (1, 2), 3.0, seed=4).total == 3


def test_symmetric_readout_flips_damp_products():
    # frozen spins: true products are always +1; independent flips with
    # probability p damp the mean to (1-2p)^2
    p = 0.2
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(p))
    rho = prepare_state("zero", 1).density_matrix()
    h = PauliSumHamiltonian.from_terms(1, [(0.0, "X")])
    obs = sigma_z_observable(0, 1)
    ((est, _),) = sampled_correlator(
        rho, h, [MeasurementSchedule((0.0, 1.0), obs, obs)], 16384, noise, [77]
    )
    expected = (1 - 2 * p) ** 2
    assert abs(est.value - expected) < 4 * est.std_error


def test_asymmetric_readout_on_frozen_ground_state():
    # prepared |0>, never flipped to 1 physically: recording errors come only
    # from the read-1-given-0 channel
    p10 = 0.25
    noise = NoiseModel(readout_confusion=ConfusionMatrix(1, bf.flip_matrix(p10, 0.0)))
    rho = prepare_state("zero", 1).density_matrix()
    h = PauliSumHamiltonian.from_terms(1, [(0.0, "X")])
    obs = sigma_z_observable(0, 1)
    ((est, counts),) = sampled_correlator(
        rho, h, [MeasurementSchedule((0.0, 1.0), obs, obs)], 16384, noise, [99]
    )
    probs = np.array(counts.counts) / counts.total
    # marginal probability of recording -1 at either time is p10
    recorded_minus_first = probs[2] + probs[3]
    assert abs(recorded_minus_first - p10) < 0.02
    expected = (1 - 2 * p10) ** 2
    assert abs(est.value - expected) < 5 * est.std_error


def test_parity_readout_flips_damp_by_even_bit_count():
    # Bell parity at tau = 0 is exactly +1; per-bit flips with probability p
    # flip each recorded sign with probability (1 - (1-2p)^2) / 2
    p = 0.1
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(p))
    rho = prepare_state("bell", 2).density_matrix()
    h = two_qubit_rotations(0.0, 0.0)
    obs = parity_observable([0, 1], 2)
    ((est, _),) = sampled_correlator(
        rho, h, [MeasurementSchedule((0.0, 0.5), obs, obs)], 16384, noise, [13]
    )
    sign_flip = 0.5 * (1 - (1 - 2 * p) ** 2)
    expected = (1 - 2 * sign_flip) ** 2
    assert abs(est.value - expected) < 4 * est.std_error


def test_full_pair_confusion_matrix_accepted():
    p = 0.05
    pair = ConfusionMatrix.symmetric(p, num_bits=2)
    noise = NoiseModel(readout_confusion=pair)
    rho = prepare_state("bell", 2).density_matrix()
    h = two_qubit_rotations(0.0, 0.0)
    obs = parity_observable([0, 1], 2)
    ((est, _),) = sampled_correlator(
        rho, h, [MeasurementSchedule((0.0, 0.5), obs, obs)], 16384, noise, [21]
    )
    sign_flip = 0.5 * (1 - (1 - 2 * p) ** 2)
    expected = (1 - 2 * sign_flip) ** 2
    assert abs(est.value - expected) < 4 * est.std_error


def test_sampled_global_parity_agrees_with_exact_engine():
    rho = prepare_state("bell", 2).density_matrix()
    h = two_qubit_rotations(1.0, 1.0)
    obs = parity_observable([0, 1], 2)
    for tau in (0.6, 1.9):
        sched = MeasurementSchedule((0.0, tau), obs, obs)
        exact = exact_correlator(rho, h, [sched])[0].value
        est, _ = sampled_correlator(rho, h, [sched], 8192, None, [55])[0]
        assert abs(est.value - exact) < 4 * max(est.std_error, 1e-3)


def test_invalid_shot_count():
    rho = prepare_state("zero", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    sched = MeasurementSchedule((0.0, 1.0), obs, obs)
    with pytest.raises(ValueError):
        sampled_correlator(rho, x_rotation(1.0), [sched], 0, None, [0])


# --- recorded law of the sampled engine ---------------------------------------

PAIR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # q_i * q_j in OUTCOME_KEYS order


@settings(max_examples=80, deadline=None)
@given(correlator_cases())
@example((4, True, "bitwise", True, True, 21))
@example((3, False, "parity", False, True, 22))
@example((2, False, "x", False, False, 23))
def test_recorded_law_mean_is_the_exact_correlator(case):
    # without readout the sampled engine's law has the exact correlator as
    # its mean, for every collapse kind, dynamics and noise
    rho, dynamics, sched, noise, *_ = build_correlator_case(case)
    (law,) = observables._recorded_laws(rho, dynamics, [sched], noise)
    assert law.shape == (4,) and law.min() >= 0.0
    assert abs(law.sum() - 1.0) <= 1e-12
    exact = exact_correlator(rho, dynamics, [sched], noise)[0].value
    assert abs(law @ PAIR_SIGNS - exact) <= 1e-12


def with_readout(case, kind):
    """A drawn correlator case with readout confusion added: asymmetric
    per-bit flips, or a random m-bit matrix (the second observable then
    reads as many qubits as the first)."""
    rho, dynamics, sched, noise, *_ = build_correlator_case(case)
    rng = np.random.default_rng(case[-1] + 1)
    first, second = sched.first_observable, sched.second_observable
    n = rho.num_qubits
    if kind == "per_bit":
        readout = ConfusionMatrix(1, bf.flip_matrix(*rng.uniform(0.0, 0.3, size=2)))
    else:
        m = len(first.qubits)
        dim = 2**m
        mixing = rng.dirichlet(np.ones(dim), size=dim).T
        readout = ConfusionMatrix(m, 0.7 * np.eye(dim) + 0.3 * mixing)
        qubits = [int(q) for q in rng.permutation(n)[:m]]
        second = parity_observable(qubits, n, bitwise_collapse=False)
    noise = replace(noise or NoiseModel(), readout_confusion=readout)
    return rho, dynamics, MeasurementSchedule(sched.times, first, second), noise


# Statistical tests run a fixed set of drawn examples, so that a rare
# five-sigma excursion cannot make the suite flaky.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(correlator_cases(), st.sampled_from(("per_bit", "m_bit")))
@example((3, True, "bitwise", True, True, 31), "per_bit")
@example((3, False, "parity", False, True, 32), "per_bit")
@example((3, False, "bitwise", False, False, 33), "m_bit")
@example((2, False, "x", False, True, 34), "m_bit")
def test_recorded_law_matches_per_shot_oracle(case, kind):
    # every cell of the law against the frequencies of the former per-shot
    # sampler, which draws and flips the bits of every shot one by one
    rho, dynamics, sched, noise = with_readout(case, kind)
    shots = 20_000
    (law,) = observables._recorded_laws(rho, dynamics, [sched], noise)
    _, counts = bf.per_shot_correlator(rho, dynamics, sched, shots, noise, seed=case[-1])
    sigma = np.sqrt(law * (1.0 - law) / shots)
    assert np.all(np.abs(np.array(counts.counts) / shots - law) <= 5.0 * sigma + 1e-12)


def with_readout_flips(case, noise):
    """``noise`` with asymmetric per-bit readout flips drawn from the case."""
    rng = np.random.default_rng(case[-1] + 2)
    flips = ConfusionMatrix(1, bf.flip_matrix(*rng.uniform(0.0, 0.3, size=2)))
    return replace(noise or NoiseModel(), readout_confusion=flips)


@settings(max_examples=60, deadline=None)
@given(batch_cases(), st.booleans())
@example((3, True, "pure", ["bitwise", "x", "z", "parity", "z", "x"], [5, 3, 1, 0, 2, 4], 61), True)
@example((3, False, "pure", ["parity", "bitwise", "x", "z"], [2, 0, 3, 1], 62), True)
@example((3, False, "mixed", ["z", "bitwise", "x", "parity"], [2, 0, 3, 1], 63), True)
@example((2, True, "noisy", ["x", "z", "z", "parity", "bitwise"], [4, 1, 0, 3, 2], 64), False)
# density branches whose longer Trotter segment continues from a shorter one
@example((2, True, "mixed", ["z", "z", "x", "z", "bitwise"], [4, 3, 2, 1, 0], 60), False)
def test_batched_law_matches_one_schedule_batches(case, readout):
    # one law batch gives what one-schedule batches give, in the order of the
    # batch, on state vectors (a pure start) and on density matrices; without
    # readout each law's mean is the exact correlator. The density path is
    # equal bit for bit, as for exact_correlator
    rho, dynamics, noise, batch = build_batch(case)
    if readout:
        noise = with_readout_flips(case, noise)
    schedules = [sched for sched, *_ in batch]
    laws = observables._recorded_laws(rho, dynamics, schedules, noise)
    assert laws.shape == (len(schedules), 4)
    singles = np.array(
        [observables._recorded_laws(rho, dynamics, [sched], noise)[0] for sched in schedules]
    ).reshape(-1, 4)
    if case[2] != "pure":
        assert np.array_equal(laws, singles)
    np.testing.assert_allclose(laws, singles, rtol=0, atol=1e-12)
    if schedules:
        assert laws.min() >= 0.0 and np.abs(laws.sum(axis=1) - 1.0).max() <= 1e-12
    if not readout:
        exact = [est.value for est in exact_correlator(rho, dynamics, schedules, noise)]
        np.testing.assert_allclose(laws @ PAIR_SIGNS, exact, rtol=0, atol=1e-12)
    order = case[4]
    shuffled = observables._recorded_laws(rho, dynamics, [schedules[i] for i in order], noise)
    np.testing.assert_allclose(shuffled, laws[order].reshape(-1, 4), rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(batch_cases().filter(lambda case: case[3]), st.booleans())
@example((3, True, "pure", ["bitwise", "x", "parity"], [2, 1, 0], 71), True)
@example((2, False, "mixed", ["parity", "z", "x"], [2, 1, 0], 72), True)
def test_batched_law_matches_per_shot_oracle(case, readout):
    # every cell of every law of a batch against the frequencies of the
    # per-shot sampler, run one schedule at a time
    rho, dynamics, noise, batch = build_batch(case)
    if readout:
        noise = with_readout_flips(case, noise)
    schedules = [sched for sched, *_ in batch]
    laws = observables._recorded_laws(rho, dynamics, schedules, noise)
    shots = 20_000
    for index, (sched, law) in enumerate(zip(schedules, laws)):
        _, counts = bf.per_shot_correlator(rho, dynamics, sched, shots, noise, seed=case[-1] + index)
        sigma = np.sqrt(law * (1.0 - law) / shots)
        assert np.all(np.abs(np.array(counts.counts) / shots - law) <= 5.0 * sigma + 1e-12)


def test_sampled_batch_draws_each_schedule_from_its_own_seed():
    # a batch draws what one-schedule calls with the same seeds draw, and a
    # seed list of the wrong length is refused
    rho = prepare_state("bell", 2).density_matrix()
    obs = parity_observable([0, 1], 2)
    h = two_qubit_rotations(1.0, 0.4)
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.05))
    schedules = [MeasurementSchedule(w, obs, obs) for w in ((0.0, 0.4), (0.4, 0.8), (0.0, 0.8))]
    seeds = [11, 12, 11]
    batch = sampled_correlator(rho, h, schedules, 2048, noise, seeds)
    for (est, counts), sched, seed in zip(batch, schedules, seeds):
        ((single, single_counts),) = sampled_correlator(rho, h, [sched], 2048, noise, [seed])
        assert counts.counts == single_counts.counts and counts.seed == seed
        assert est == single
    assert sampled_correlator(rho, h, [], 2048, noise, []) == ()
    with pytest.raises(ValueError, match="2 seeds for 3 schedules"):
        sampled_correlator(rho, h, schedules, 2048, noise, seeds[:2])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(correlator_cases())
def test_sampled_within_five_sigma_of_exact(case):
    rho, dynamics, sched, noise, *_ = build_correlator_case(case)
    shots = 4096
    exact = exact_correlator(rho, dynamics, [sched], noise)[0].value
    est, counts = sampled_correlator(rho, dynamics, [sched], shots, noise, [case[-1]])[0]
    assert counts.total == shots == est.n_shots
    sigma = np.sqrt(max(1.0 - exact**2, 0.0) / shots)
    assert abs(est.value - exact) <= 5.0 * sigma + 1e-12


def test_std_error_is_the_per_shot_sample_deviation():
    rho = prepare_state("plus", 1).density_matrix()
    obs = sigma_z_observable(0, 1)
    sched = MeasurementSchedule((0.2, 0.9), obs, obs)
    est, counts = sampled_correlator(rho, x_rotation(1.3), [sched], 300, None, [4])[0]
    products = np.repeat(PAIR_SIGNS, counts.counts)
    assert est.value == products.mean()
    assert abs(est.std_error - products.std(ddof=1) / np.sqrt(300)) <= 1e-15


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
def test_recorded_law_is_checked(monkeypatch, scale):
    # branches whose evolution lost or gained trace must not be sampled, on
    # state vectors (a pure start); on density matrices (a mixed one) an
    # exact second segment whose propagator is not unitary must not be read
    # backward. The first segment keeps its exact propagator
    evolve_vectors, expm = observables._evolve_vectors, observables._expm_hermitian
    monkeypatch.setattr(
        observables, "_evolve_vectors", lambda psi, *args: np.sqrt(scale) * evolve_vectors(psi, *args)
    )
    monkeypatch.setattr(observables, "_expm_hermitian", lambda *args: scale * expm(*args))
    pure = prepare_state("bell", 2).density_matrix()
    mixed = DensityMatrix(2, 0.8 * pure.matrix + 0.05 * np.eye(4))
    obs = parity_observable([0, 1], 2)
    sched = MeasurementSchedule((0.3, 0.9), obs, obs)
    for rho, match in ((pure, "law"), (mixed, "drifted")):
        with pytest.raises(InvalidState, match=match):
            sampled_correlator(rho, two_qubit_rotations(1.0, 0.4), [sched], 64, None, [0])
