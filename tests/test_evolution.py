import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import bruteforce as bf
from lgsim import (
    ConfusionMatrix,
    DensityMatrix,
    InvalidGrid,
    InvalidHamiltonian,
    InvalidState,
    InvalidTrotterPlan,
    NoiseModel,
    PauliSumHamiltonian,
    PauliTerm,
    PureState,
    TrotterEvolution,
    evolve_density,
    prepare_state,
)
import lgsim.core.evolution as evolution
from lgsim.core import pauli_string_matrix

X = bf.X
Z = bf.Z


def tfic_hamiltonian(j=0.1, gammas=(1, 1, 1, 1, 2.0)):
    n = len(gammas)
    terms = []
    for i in range(n - 1):
        s = ["I"] * n
        s[i] = s[i + 1] = "Z"
        terms.append((-j, "".join(s)))
    for q, g in enumerate(gammas):
        s = ["I"] * n
        s[q] = "X"
        terms.append((-g, "".join(s)))
    return PauliSumHamiltonian.from_terms(n, terms)


def random_rho(n, rng):
    return DensityMatrix(n, bf.random_density_matrix(n, rng))


def conjugate(u, rho):
    return u @ rho.matrix @ u.conj().T


def test_pi_rotation_about_x_gives_minus_i_x():
    h = PauliSumHamiltonian.from_terms(1, [(0.5, "X")])
    rho = random_rho(1, np.random.default_rng(3))
    out = evolve_density(rho, h, 0.0, np.pi)
    assert np.abs(out.matrix - conjugate((-1j) * X, rho)).max() < 1e-10


def test_zero_duration_is_identity():
    h = PauliSumHamiltonian.from_terms(2, [(0.7, "XZ"), (-0.3, "YI")])
    rho = random_rho(2, np.random.default_rng(4))
    out = evolve_density(rho, h, 1.3, 1.3)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_z_rotation_matches_diagonal_phases():
    omega, t = 0.8, 2.1
    h = PauliSumHamiltonian.from_terms(1, [(-omega / 2, "Z")])
    rho = prepare_state("plus", 1).density_matrix()
    out = evolve_density(rho, h, 0.0, t)
    expected = np.diag([np.exp(1j * omega * t / 2), np.exp(-1j * omega * t / 2)])
    assert np.abs(out.matrix - conjugate(expected, rho)).max() < 1e-12


def test_reversed_times_rejected():
    h = PauliSumHamiltonian.from_terms(1, [(0.5, "X")])
    with pytest.raises(InvalidGrid):
        evolve_density(prepare_state("zero", 1).density_matrix(), h, 1.0, 0.5)


def test_non_finite_coefficient_rejected():
    with pytest.raises(InvalidHamiltonian):
        PauliSumHamiltonian.from_terms(1, [(float("nan"), "X")])
    with pytest.raises(InvalidHamiltonian):
        PauliSumHamiltonian.from_terms(1, [(float("inf"), "Z")])


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="IXYZ", min_size=1, max_size=6))
def test_pauli_string_matrix_matches_the_kron_chain(paulis):
    # equal entry by entry; the chain's zeros carry IEEE signs of no meaning
    got = pauli_string_matrix(paulis)
    want = bf.pauli_string(paulis)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def pauli_sums(draw, max_qubits=6):
    """(n, terms): up to six weighted Pauli strings on n qubits."""
    n = draw(st.integers(1, max_qubits))
    strings = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    return n, draw(st.lists(st.tuples(coefficients, strings), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(pauli_sums())
def test_hamiltonian_matrix_is_bit_identical_to_the_kron_sum(case):
    # the string matrices differ from the chain at most in the signs of
    # zeros, which the sum, started from +0, does not keep
    n, terms = case
    want = np.zeros((2**n, 2**n), dtype=complex)
    for coefficient, paulis in terms:
        want += coefficient * bf.pauli_string(paulis)
    got = PauliSumHamiltonian.from_terms(n, terms).matrix()
    assert got.tobytes() == want.tobytes()


def test_bad_pauli_string_rejected():
    with pytest.raises(InvalidHamiltonian):
        PauliSumHamiltonian.from_terms(2, [(1.0, "XQ")])
    with pytest.raises(InvalidHamiltonian):
        PauliSumHamiltonian.from_terms(2, [(1.0, "X")])


def test_unitarity_and_composition_on_random_hamiltonians():
    rng = np.random.default_rng(20240521)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        h = PauliSumHamiltonian.from_terms(n, bf.random_hamiltonian_terms(n, rng))
        t1, t2, t3 = np.sort(rng.uniform(0.0, 3.0, size=3))
        rho = random_rho(n, rng)
        rho13 = evolve_density(rho, h, t1, t3)
        rho123 = evolve_density(evolve_density(rho, h, t1, t2), h, t2, t3)
        # unitary conjugation keeps the spectrum
        spectrum = np.linalg.eigvalsh(rho.matrix)
        assert np.abs(np.linalg.eigvalsh(rho13.matrix) - spectrum).max() < 1e-9
        assert np.abs(rho123.matrix - rho13.matrix).max() < 1e-9


def test_matches_scipy_expm_on_random_hamiltonians():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        terms = bf.random_hamiltonian_terms(n, rng)
        h = PauliSumHamiltonian.from_terms(n, terms)
        t = float(rng.uniform(0.1, 2.0))
        rho = random_rho(n, rng)
        expected = conjugate(expm(-1j * bf.hamiltonian(n, terms) * t), rho)
        assert np.abs(evolve_density(rho, h, 0.0, t).matrix - expected).max() < 1e-9


# --- Trotter ---------------------------------------------------------------


def test_auto_partition_splits_bonds_by_parity():
    blocks = TrotterEvolution(tfic_hamiltonian(), 0.1)._blocks
    assert all(t.support() == s for block in blocks.values() for s, t in block)
    # layer 0 (odd): each odd bond, then the fields on its qubits, in term
    # order, and the lone field of qubit 0; layer 1 (even): the even bonds
    assert {key: [s for s, _ in block] for key, block in blocks.items()} == {
        (0, 0): [(0,)],
        (0, 1): [(1, 2), (1,), (2,)],
        (0, 3): [(3, 4), (3,), (4,)],
        (1, 0): [(0, 1)],
        (1, 2): [(2, 3)],
    }


def test_non_commuting_terms_on_one_bond_share_its_block_gate():
    # ZZ and ZX on the same bond differ on exactly one site, so they
    # anticommute; the bond's gate exponentiates them together. No odd bond
    # covers the fields of qubits 1 and 2, so each is a block of its own.
    terms = [(1.0, "ZZII"), (0.5, "ZXII"), (-0.3, "IIXY"), (0.7, "IXII"), (-0.4, "IIZI")]
    h = PauliSumHamiltonian.from_terms(4, terms)
    noise = NoiseModel(t1=2.0, t2=1.5, gate_depolarizing_1q=0.01, gate_depolarizing_2q=0.05)
    rho = random_rho(4, np.random.default_rng(8))
    out = evolve_density(rho, TrotterEvolution(h, 0.1), 0.0, 0.3, noise)
    expected = literal_trotter(rho.matrix, 4, h.terms, 0.1, 3, 0.01, 0.05, 2.0, 1.5)
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_auto_partition_rejects_long_range_terms():
    h = PauliSumHamiltonian.from_terms(3, [(1.0, "ZIZ")])
    with pytest.raises(InvalidTrotterPlan):
        TrotterEvolution(h, 0.1)


def trotterized(h, rho, k, total_time):
    """``k`` Trotter steps of the one evolution path over [0, total_time]."""
    evo = TrotterEvolution(h, total_time / k)
    return evolve_density(rho, evo, 0.0, total_time)


def test_commuting_hamiltonian_is_trotter_exact():
    h = PauliSumHamiltonian.from_terms(
        3, [(0.4, "ZZI"), (-0.2, "IZZ")]
    )
    rho = random_rho(3, np.random.default_rng(5))
    exact = evolve_density(rho, h, 0.0, 1.7).matrix
    stepped = trotterized(h, rho, 3, 1.7).matrix
    assert np.abs(stepped - exact).max() < 1e-9


def test_single_step_is_even_times_odd_factor():
    a, b, t = 0.6, -0.9, 0.75
    h = PauliSumHamiltonian.from_terms(2, [(a, "ZZ"), (b, "XI")])
    rho = random_rho(2, np.random.default_rng(6))
    got = trotterized(h, rho, 1, t).matrix
    expected = expm(-1j * a * bf.pauli_string("ZZ") * t) @ expm(
        -1j * b * bf.pauli_string("XI") * t
    )
    assert np.abs(got - conjugate(expected, rho)).max() < 1e-10


def trotter_errors(steps, total_time=0.5):
    h = tfic_hamiltonian()
    rho = prepare_state("ghz", 5).density_matrix()
    exact = evolve_density(rho, h, 0.0, total_time).matrix
    return {k: np.abs(trotterized(h, rho, k, total_time).matrix - exact).max() for k in steps}


def test_trotter_error_decreases_monotonically_for_tfic():
    errors = list(trotter_errors((1, 2, 3, 4, 5)).values())
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_trotter_error_halves_when_steps_double():
    err = trotter_errors((1, 2, 4, 8, 16))
    for k in (1, 2, 4, 8):
        ratio = err[2 * k] / err[k]
        assert 0.35 <= ratio <= 0.65


PAIRS = ["".join(p) for p in itertools.product("XYZ", repeat=2)]
coefficients = st.floats(-1.5, 1.5)


def on(n, paulis):
    return "".join(paulis.get(q, "I") for q in range(n))


@st.composite
def nearest_neighbour_terms(draw, min_qubits=1):
    """(n, terms): fields and nearest-neighbour bonds in a drawn order,
    sometimes with an identity term."""
    n = draw(st.integers(min_qubits, 4))
    terms = []
    for q in range(n):
        for p in draw(st.lists(st.sampled_from("XYZ"), max_size=2)):
            terms.append(PauliTerm(draw(coefficients), on(n, {q: p})))
    for q in range(n - 1):
        for a, b in draw(st.lists(st.sampled_from(PAIRS), max_size=2)):
            terms.append(PauliTerm(draw(coefficients), on(n, {q: a, q + 1: b})))
    if draw(st.booleans()):
        terms.append(PauliTerm(draw(coefficients), "I" * n))
    return n, draw(st.permutations(terms))


def literal_trotter(rho, n, terms, dt, steps, p1=0.0, p2=0.0, t1=None, t2=None):
    """``steps`` literal first-order steps: expm of the odd layer (odd bonds,
    then fields, in term order), a dense Kraus sum per gate, the same for the
    even layer, then relaxation on every qubit."""
    bonds = [t for t in terms if len(t.support()) == 2]
    fields = [t for t in terms if len(t.support()) == 1]
    odd = [t for t in bonds if t.support()[0] % 2] + fields
    even = [t for t in bonds if t.support()[0] % 2 == 0]
    step = []  # full-register Kraus lists, applied in order
    for layer in (odd, even):
        h = bf.hamiltonian(n, [(t.coefficient, t.paulis) for t in layer])
        step.append([expm(-1j * h * dt)])
        for t in layer:
            support = t.support()
            ops = bf.depolarizing_ops(p2 if len(support) == 2 else p1, len(support))
            step.append([bf.local_operator(k, support, n) for k in ops])
    for q in range(n):
        for ops in bf.relaxation_ops(t1, t2, dt):
            step.append([bf.local_operator(k, (q,), n) for k in ops])
    out = rho
    for _ in range(steps):
        for ops in step:
            out = sum(k @ out @ k.conj().T for k in ops)
    return out


@st.composite
def noise_models(draw):
    if not draw(st.booleans()):
        return None
    t1 = draw(st.none() | st.floats(0.5, 5.0))
    t2 = draw(st.none() | st.floats(0.2, 2.0))
    return NoiseModel(
        t1=t1,
        t2=None if t2 is None else t2 * (t1 if t1 is not None else 2.5),
        gate_depolarizing_1q=draw(st.just(0.0) | st.floats(0.0, 0.1)),
        gate_depolarizing_2q=draw(st.just(0.0) | st.floats(0.0, 0.2)),
    )


@settings(max_examples=60, deadline=None)
@given(
    nearest_neighbour_terms(),
    st.floats(0.01, 0.5),
    st.integers(1, 4),
    noise_models(),
    st.integers(0, 2**32 - 1),
)
def test_trotter_evolution_matches_literal_layers_and_kraus_sums(case, dt, steps, noise, seed):
    n, terms = case
    rho = random_rho(n, np.random.default_rng(seed))
    evo = TrotterEvolution(PauliSumHamiltonian(n, terms), dt)
    out = evolve_density(rho, evo, 0.0, steps * dt, noise)
    kwargs = {}
    if noise is not None:
        kwargs = dict(
            p1=noise.gate_depolarizing_1q, p2=noise.gate_depolarizing_2q, t1=noise.t1, t2=noise.t2
        )
    expected = literal_trotter(rho.matrix, n, terms, dt, steps, **kwargs)
    assert np.abs(out.matrix - expected).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(nearest_neighbour_terms(min_qubits=2), st.integers(0, 2**32 - 1))
def test_trotter_error_is_first_order_in_the_step(case, seed):
    # first-order Trotter error is O(dt) at a fixed total time (Childs et al.,
    # arXiv:1912.08854), so doubling the steps halves it
    n, terms = case
    h = PauliSumHamiltonian(n, terms)
    rho = random_rho(n, np.random.default_rng(seed))
    exact = evolve_density(rho, h, 0.0, 1.0).matrix
    err = {k: np.abs(trotterized(h, rho, k, 1.0).matrix - exact).max() for k in (8, 16, 32)}
    if err[8] > 1e-9:
        for k in (8, 16):
            assert 0.35 <= err[2 * k] / err[k] <= 0.65


def test_duplicated_term_trotterizes_as_its_sum():
    rho = random_rho(3, np.random.default_rng(12))
    listed = PauliSumHamiltonian.from_terms(
        3, [(0.3, "ZZI"), (0.7, "XII"), (0.2, "ZZI"), (-0.4, "IYZ"), (0.1, "XII")]
    )
    summed = PauliSumHamiltonian.from_terms(3, [(0.5, "ZZI"), (0.8, "XII"), (-0.4, "IYZ")])
    # relaxation acts once per step; gate noise would act once per listed term
    noise = NoiseModel(t1=4.0, t2=3.0)
    got = evolve_density(rho, TrotterEvolution(listed, 0.2), 0.0, 0.6, noise).matrix
    want = evolve_density(rho, TrotterEvolution(summed, 0.2), 0.0, 0.6, noise).matrix
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_noisy_trotter_step_is_one_pass_per_block(monkeypatch, n):
    # each qubit's relaxation is fused into the last block on it, so a step
    # with t1, t2 and gate noise is one pass per block: n blocks for odd n,
    # n + 1 for even n, where the last qubit is a lone field in the odd layer
    calls = []
    apply_channel = evolution.apply_channel

    def counting(*args, **kwargs):
        calls.append(args[1])
        return apply_channel(*args, **kwargs)

    monkeypatch.setattr(evolution, "apply_channel", counting)
    evo = TrotterEvolution(tfic_hamiltonian(gammas=[1.0] * (n - 1) + [2.0]), 0.25)
    noise = NoiseModel(t1=40.0, t2=30.0, gate_depolarizing_1q=1e-3, gate_depolarizing_2q=1e-2)
    steps = 3
    evolve_density(prepare_state("ghz", n).density_matrix(), evo, 0.0, steps * 0.25, noise)
    assert len(calls) == steps * (n if n % 2 else n + 1)


def test_segment_steps_follow_fixed_dt():
    h = tfic_hamiltonian()
    evo = TrotterEvolution(h, dt=0.25)
    assert evo.segment_steps(1.0) == 4
    assert evo.segment_steps(2.0) == 8
    assert evo.segment_steps(0.0) == 0
    with pytest.raises(InvalidTrotterPlan):
        evo.segment_steps(0.37)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.1])
def test_trotter_step_must_be_finite_and_nonnegative(dt):
    with pytest.raises(InvalidTrotterPlan, match="dt"):
        TrotterEvolution(tfic_hamiltonian(), dt)


@pytest.mark.parametrize("trotter", [False, True])
@pytest.mark.parametrize(
    "t_start, t_end, name",
    [(0.0, float("nan"), "t_end"), (float("nan"), 1.0, "t_start"), (0.0, float("inf"), "t_end")],
)
def test_non_finite_segment_times_rejected(trotter, t_start, t_end, name):
    h = tfic_hamiltonian(gammas=(1.0, 2.0))
    dynamics = TrotterEvolution(h, 0.25) if trotter else h
    rho = prepare_state("ghz", 2).density_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidGrid, match=name):
            evolve_density(rho, dynamics, t_start, t_end)


def test_pure_state_evolves_as_a_vector_when_noise_has_no_channel():
    rng = np.random.default_rng(17)
    h = tfic_hamiltonian(gammas=(1.0, 0.7, 2.0))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = PureState(3, amps / np.linalg.norm(amps))
    readout = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.05))
    for dynamics in (h, TrotterEvolution(h, 0.2)):
        out = evolve_density(psi, dynamics, 0.2, 0.8, readout)
        assert isinstance(out, PureState)
        want = evolve_density(psi.density_matrix(), dynamics, 0.2, 0.8).matrix
        assert np.abs(np.outer(out.amplitudes, out.amplitudes.conj()) - want).max() <= 1e-12
    assert evolve_density(psi, h, 0.5, 0.5) is psi
    with pytest.raises(InvalidState, match="density matrix"):
        evolve_density(psi, h, 0.0, 0.5, NoiseModel(t2=3.0))


def test_pure_state_and_density_matrix_evolution_agree():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        rho = DensityMatrix(n, np.outer(amps, amps.conj()))
        for _ in range(int(rng.integers(1, 4))):
            terms = bf.random_hamiltonian_terms(n, rng)
            h = PauliSumHamiltonian.from_terms(n, terms)
            t = float(rng.uniform(0.1, 1.5))
            amps = expm(-1j * bf.hamiltonian(n, terms) * t) @ amps
            rho = evolve_density(rho, h, 0.0, t)
        assert np.abs(np.outer(amps, amps.conj()) - rho.matrix).max() < 1e-10


def test_evolve_density_exact_matches_propagator():
    h = tfic_hamiltonian()
    rho = prepare_state("ghz", 5).density_matrix()
    out = evolve_density(rho, h, 0.0, 0.8)
    u = expm(-1j * bf.hamiltonian(5, [(t.coefficient, t.paulis) for t in h.terms]) * 0.8)
    assert np.abs(out.matrix - conjugate(u, rho)).max() < 1e-12


def test_each_non_empty_segment_checks_its_state_once(monkeypatch):
    # intermediate states inside a segment skip validation; the segment's
    # result goes through the full DensityMatrix check exactly once
    h = tfic_hamiltonian(gammas=(1, 1, 1, 2.0))
    evo = TrotterEvolution(h, 0.1)
    noise = NoiseModel(t2=50.0, gate_depolarizing_1q=0.001, gate_depolarizing_2q=0.01)
    rho = prepare_state("ghz", 4).density_matrix()
    checks = []
    check = DensityMatrix.__post_init__

    def counting_check(self):
        checks.append(self.num_qubits)
        check(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_check)
    out = evolve_density(rho, evo, 0.0, 0.5, noise)
    assert checks == [4]
    evolve_density(out, h, 0.0, 0.3, noise)
    assert checks == [4, 4]
    assert evolve_density(out, evo, 0.2, 0.2, noise) is out
    assert checks == [4, 4]


def test_trotter_layer_propagators_are_built_once_per_evolution(monkeypatch):
    # the block gates depend only on the layers and dt, so three noisy
    # segments over one TrotterEvolution build each of them once, and no
    # propagator of a whole layer is built
    from lgsim.core import evolution

    built = []
    expm_hermitian = evolution._expm_hermitian

    def counting(h, duration):
        built.append((h, duration))
        return expm_hermitian(h, duration)

    monkeypatch.setattr(evolution, "_expm_hermitian", counting)
    evo = TrotterEvolution(tfic_hamiltonian(gammas=(1, 1, 2.0)), 0.1)
    noise = NoiseModel(t2=50.0, gate_depolarizing_1q=0.001, gate_depolarizing_2q=0.01)
    rho = prepare_state("ghz", 3).density_matrix()
    for t_start, t_end in ((0.0, 0.3), (0.3, 0.5), (0.5, 1.0)):
        rho = evolve_density(rho, evo, t_start, t_end, noise)
    blocks = [
        [(-1.0, "X")],  # odd layer: the lone field of qubit 0
        [(-0.1, "ZZ"), (-1.0, "XI"), (-2.0, "IX")],  # the bond (1, 2) with its fields
        [(-0.1, "ZZ")],  # even layer: the bond (0, 1)
    ]
    expected = [(PauliSumHamiltonian.from_terms(len(b[0][1]), b), 0.1) for b in blocks]
    assert built == expected
