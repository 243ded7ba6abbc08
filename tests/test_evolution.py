import numpy as np
import pytest
from scipy.linalg import expm

import bruteforce as bf
from lgsim import (
    DensityMatrix,
    InvalidGrid,
    InvalidHamiltonian,
    InvalidTrotterPlan,
    NoiseModel,
    PauliSumHamiltonian,
    PauliTerm,
    TrotterEvolution,
    evolve_density,
    prepare_state,
    trotter_plan,
)

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
    h = tfic_hamiltonian()
    plan = trotter_plan(h, 3)
    even_supports = {t.support() for t in plan.even_terms}
    odd_supports = {t.support() for t in plan.odd_terms}
    assert even_supports == {(0, 1), (2, 3)}
    assert odd_supports == {(1, 2), (3, 4)}
    assert len(plan.single_site_terms) == 5
    assert plan.steps == 3


def test_partition_with_non_commuting_layer_rejected():
    from lgsim import TrotterPlan

    # ZZ and ZX on the same bond differ on exactly one site, so they anticommute
    with pytest.raises(InvalidTrotterPlan):
        TrotterPlan(
            2,
            1,
            even_terms=(PauliTerm(1.0, "ZZ"), PauliTerm(0.5, "ZX")),
            odd_terms=(),
            single_site_terms=(),
        )


def test_auto_partition_rejects_long_range_terms():
    h = PauliSumHamiltonian.from_terms(3, [(1.0, "ZIZ")])
    with pytest.raises(InvalidTrotterPlan):
        trotter_plan(h, 1)


def trotterized(h, rho, k, total_time):
    """``k`` Trotter steps of the one evolution path over [0, total_time]."""
    evo = TrotterEvolution(h, trotter_plan(h, k), total_time / k)
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


def test_trotter_evolution_rejects_foreign_plan():
    h = tfic_hamiltonian()
    other = PauliSumHamiltonian.from_terms(5, [(1.0, "XIIII")])
    plan = trotter_plan(other, 2)
    with pytest.raises(InvalidTrotterPlan):
        TrotterEvolution(h, plan, 0.15)


def test_segment_steps_follow_fixed_dt():
    h = tfic_hamiltonian()
    plan = trotter_plan(h, 4)
    evo = TrotterEvolution(h, plan, dt=0.25)
    assert evo.segment_steps(1.0) == 4
    assert evo.segment_steps(2.0) == 8
    assert evo.segment_steps(0.0) == 0
    with pytest.raises(InvalidTrotterPlan):
        evo.segment_steps(0.37)


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
    evo = TrotterEvolution(h, trotter_plan(h, 1), 0.1)
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
