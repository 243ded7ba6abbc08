"""Kernel microbenchmarks at n = 5, 8 and 10 qubits: ``apply_channel`` for
each channel kind on the noisy Trotter path (one- and two-qubit gate
depolarizing as an identity gate fused with its noise, dephasing, relaxation
with t1 and t2 fused into one channel, and a two-qubit block gate fused with
its bond and field depolarizing, as a Trotter step applies it), each on an
operator already in Pauli form; the conversion of a Hermitian array to
Pauli form and back; the block passes of one noisy first-order Trotter step
of the transverse-field Ising chain with gate noise alone and with t1 and t2
as well, on Pauli form; one exact segment with t1 and t2 on every qubit, from
an array to an array (dense conjugation, conversion, one relaxation pass per
qubit, conversion back); the three noisy
correlators of one tau of the chain with k = 3 (the checked first state
forward, Q_j backward on its light cone), with gate noise alone and with t1
and t2 as well; the sampled law of the same three windows under gate noise
(``test_noisy_trotter_law``), a parity read bit by bit under readout flips,
so that each branch of the first measurement is read against every Z_T run
backward; one batched
``exact_correlator`` and one batched ``sampled_correlator`` call over a tau
grid, and one ``mitigate_correlator`` call with its bootstrap over the
counts tables of a 75-point scan and over 225 tables drawn from random laws,
whose resamples mostly take the constrained fit.

They are not part of the test suite (``testpaths`` is ``tests``). Run them
from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python -m pytest benchmarks -p no:cacheprovider \\
        --benchmark-json=kernels.json

The inputs are random Hermitian arrays rather than states: every kernel is
linear and its cost does not depend on the values.
"""

import numpy as np
import pytest

from lgsim import (
    ConfusionMatrix,
    CountsVector,
    MeasurementSchedule,
    NoiseModel,
    TrotterEvolution,
    exact_correlator,
    mitigate_correlator,
    parity_observable,
    prepare_state,
    sampled_correlator,
    sigma_z_observable,
)
from lgsim.core import relaxation_channels
from lgsim.core.channels import PauliVector, block_channel
from lgsim.core.evolution import _evolve_segment, apply_channel
from lgsim.observables import _recorded_laws
from lgsim.scenarios import ising_chain_hamiltonian, transverse_field_hamiltonian

SIZES = (5, 8, 10)
DT = 1.0 / 3.0
NOISE = NoiseModel(gate_depolarizing_1q=3e-4, gate_depolarizing_2q=1e-2)
RELAXING = NoiseModel(t1=80.0, t2=50.0, gate_depolarizing_1q=3e-4, gate_depolarizing_2q=1e-2)
RELAXATION = NoiseModel(t1=80.0, t2=50.0)
READOUT = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.03))
NOISY_READOUT = NoiseModel(
    gate_depolarizing_1q=3e-4,
    gate_depolarizing_2q=1e-2,
    readout_confusion=ConfusionMatrix.symmetric(0.03),
)
SHOTS = 8192


def hermitian(n, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return a + a.conj().T


def depolarizing(p, qubits):
    m = len(qubits)
    return block_channel(qubits, np.eye(2**m), [(p, tuple(range(m)))])


CHANNELS = {
    "depolarizing_1q": lambda n: depolarizing(3e-4, (n // 2,)),
    "depolarizing_2q": lambda n: depolarizing(1e-2, (n // 2 - 1, n // 2)),
    "dephasing": lambda n: relaxation_channels(NoiseModel(t2={n // 2: 50.0}), n, DT)[0],
    "relaxation": lambda n: relaxation_channels(
        NoiseModel(t1={n // 2: 80.0}, t2={n // 2: 50.0}), n, DT
    )[0],
    "block_2q": lambda n: block_channel(
        (n // 2 - 1, n // 2), np.eye(4), [(1e-2, (0, 1)), (3e-4, (0,)), (3e-4, (1,))]
    ),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(CHANNELS))
def test_apply_channel(benchmark, kind, n):
    # the transfer matrix is built before timing starts
    operator = PauliVector.of(hermitian(n))
    channel = CHANNELS[kind](n)
    apply_channel(operator, channel)
    benchmark(apply_channel, operator, channel)


@pytest.mark.parametrize("n", SIZES)
def test_to_pauli(benchmark, n):
    benchmark(PauliVector.of, hermitian(n))


@pytest.mark.parametrize("n", SIZES)
def test_from_pauli(benchmark, n):
    operator = PauliVector.of(hermitian(n))
    benchmark(lambda: operator.matrix)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("noise", [NOISE, RELAXING], ids=["gate", "t1_t2"])
def test_noisy_trotter_step(benchmark, noise, n):
    # one dt step on Pauli form: the block channels of the odd, then the even
    # layer, each a block gate fused with its gate noise and with the
    # relaxation of the qubits it is the last block on; they are built
    # before timing starts
    evo = TrotterEvolution(ising_chain_hamiltonian(0.1, [1.0] * (n - 1) + [2.0]), DT)
    operator = PauliVector.of(hermitian(n))
    channels = evo.block_channels(noise)

    def step():
        out = operator
        for channel in channels:
            out = apply_channel(out, channel)
        return out

    benchmark(step)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("noise", [NOISE, RELAXING], ids=["gate", "t1_t2"])
def test_noisy_trotter_correlators(benchmark, noise, n):
    # the three windows of one tau in one call, as a noisy tfic scan
    # evaluates one grid point: GHZ start, z read on the first and last
    # qubit, k = 3 steps of dt per tau; the first state rho(tau) runs forward
    # and is checked, Q_j runs backward on its light cone. The block
    # channels are built before timing starts
    evo = TrotterEvolution(ising_chain_hamiltonian(0.1, [1.0] * (n - 1) + [2.0]), DT)
    rho = prepare_state("ghz", n).density_matrix()
    first, second = sigma_z_observable(0, n), sigma_z_observable(n - 1, n)
    tau = 3 * DT
    schedules = [
        MeasurementSchedule(window, first, second)
        for window in ((0.0, tau), (tau, 2.0 * tau), (0.0, 2.0 * tau))
    ]
    exact_correlator(rho, evo, schedules, noise)
    benchmark(exact_correlator, rho, evo, schedules, noise)


@pytest.mark.parametrize("n", SIZES)
def test_noisy_trotter_law(benchmark, n):
    # the recorded laws of the three windows of one tau in one call, on the
    # density path: GHZ start, the parity of the first and last qubit read
    # bit by bit at both times under per-bit flips of 0.03, k = 3 steps of dt
    # per tau, gate noise. The four branches P_a rho P_a of each first state
    # are read against Z_0, Z_{n-1} and their product, each run backward on
    # its light cone; the block channels are built before timing starts
    evo = TrotterEvolution(ising_chain_hamiltonian(0.1, [1.0] * (n - 1) + [2.0]), DT)
    rho = prepare_state("ghz", n).density_matrix()
    parity = parity_observable([0, n - 1], n)
    tau = 3 * DT
    schedules = [
        MeasurementSchedule(window, parity, parity)
        for window in ((0.0, tau), (tau, 2.0 * tau), (0.0, 2.0 * tau))
    ]
    _recorded_laws(rho, evo, schedules, NOISY_READOUT)
    benchmark(_recorded_laws, rho, evo, schedules, NOISY_READOUT)


@pytest.mark.parametrize("n", SIZES)
def test_exact_relaxed_segment(benchmark, n):
    # one exact segment with t1 and t2 on every qubit, from an array to an
    # array: the dense conjugation, the conversion to Pauli form, one
    # relaxation channel per qubit and the conversion back; the eigensystem
    # of H is cached first
    h = ising_chain_hamiltonian(0.1, [1.0] * (n - 1) + [2.0])
    rho = hermitian(n)
    _evolve_segment(rho, h, DT, RELAXATION)
    benchmark(_evolve_segment, rho, h, DT, RELAXATION)


def tau_grid_schedules(first, second):
    return [
        MeasurementSchedule(window, first, second)
        for tau in np.linspace(0.0, 2.0 * np.pi, 75)
        for window in ((0.0, tau), (tau, 2.0 * tau), (0.0, 2.0 * tau))
    ]


@pytest.mark.parametrize("n", SIZES)
def test_exact_tau_grid_batch(benchmark, n):
    # the three windows of 75 taus in one call, as a region scan evaluates
    # one ratio: GHZ start, z read on the first and last qubit, the last
    # qubit rotating at twice the rate; the eigensystem of H is cached first
    h = transverse_field_hamiltonian([1.0] * (n - 1) + [2.0])
    rho = prepare_state("ghz", n).density_matrix()
    first, second = sigma_z_observable(0, n), sigma_z_observable(n - 1, n)
    schedules = tau_grid_schedules(first, second)
    exact_correlator(rho, h, schedules)
    benchmark(exact_correlator, rho, h, schedules)


@pytest.mark.parametrize("n", SIZES)
def test_sampled_tau_grid_batch(benchmark, n):
    # the three windows of 75 taus in one call, as a sampled scan evaluates
    # its grid: GHZ start, the parity of the first and last qubit read bit by
    # bit at both times, per-bit readout flips of 0.03, 8192 shots per
    # schedule, one seed each; the eigensystem of H is cached first
    h = transverse_field_hamiltonian([1.0] * (n - 1) + [2.0])
    rho = prepare_state("ghz", n).density_matrix()
    parity = parity_observable([0, n - 1], n)
    schedules = tau_grid_schedules(parity, parity)
    seeds = list(range(len(schedules)))
    sampled_correlator(rho, h, schedules, SHOTS, READOUT, seeds)
    benchmark(sampled_correlator, rho, h, schedules, SHOTS, READOUT, seeds)


def test_mitigate_bootstrap_batch(benchmark):
    # the 225 counts tables of a 75-point mitigated Bell-pair scan (global
    # parity, rates 1 and 0.8, per-bit flips of 0.03, 8192 shots), each
    # bootstrapped 200 times, under the sign-pair confusion of that readout
    h = transverse_field_hamiltonian([1.0, 0.8])
    rho = prepare_state("bell", 2).density_matrix()
    parity = parity_observable([0, 1], 2)
    schedules = tau_grid_schedules(parity, parity)
    drawn = sampled_correlator(rho, h, schedules, SHOTS, READOUT, range(len(schedules)))
    tables = [counts for _, counts in drawn]
    benchmark(mitigate_correlator, tables, ConfusionMatrix.symmetric(0.03, num_bits=2))


def test_mitigate_random_laws_batch(benchmark):
    # 225 tables of 8192 shots, each drawn from a Dirichlet(1) law over the
    # four sign pairs, under a symmetric 0.03 pair confusion: a law with a
    # small cell sends many resamples below the inversion threshold, so the
    # constrained fit does most of the work
    rng = np.random.default_rng(18)
    tables = [
        CountsVector(2, tuple(rng.multinomial(SHOTS, law).tolist()), SHOTS, seed=i)
        for i, law in enumerate(rng.dirichlet(np.ones(4), size=225))
    ]
    benchmark(mitigate_correlator, tables, ConfusionMatrix.symmetric(0.03, num_bits=2))
