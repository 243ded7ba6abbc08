"""Kernel microbenchmarks at n = 5, 8 and 10 qubits: ``apply_channel`` for
each channel kind on the noisy Trotter path (one- and two-qubit gate
depolarizing, dephasing) and one noisy first-order Trotter step of the
transverse-field Ising chain.

They are not part of the test suite (``testpaths`` is ``tests``). Run them
from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python -m pytest benchmarks -p no:cacheprovider \\
        --benchmark-json=kernels.json

The inputs are random Hermitian matrices rather than states: every kernel
is linear and its cost does not depend on the values.
"""

import numpy as np
import pytest

from lgsim import DensityMatrix, NoiseModel, TrotterEvolution
from lgsim.core import dephasing_channel, depolarizing_channel
from lgsim.core.evolution import _evolve_segment, apply_channel
from lgsim.scenarios import ising_chain_hamiltonian

SIZES = (5, 8, 10)
DT = 1.0 / 3.0
NOISE = NoiseModel(gate_depolarizing_1q=3e-4, gate_depolarizing_2q=1e-2)


def hermitian(n, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return DensityMatrix._trusted(n, a + a.conj().T)


CHANNELS = {
    "depolarizing_1q": lambda n: depolarizing_channel(3e-4, (n // 2,)),
    "depolarizing_2q": lambda n: depolarizing_channel(1e-2, (n // 2 - 1, n // 2)),
    "dephasing": lambda n: dephasing_channel(50.0, DT, n // 2),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(CHANNELS))
def test_apply_channel(benchmark, kind, n):
    rho = hermitian(n)
    channel = CHANNELS[kind](n)
    benchmark(apply_channel, rho, channel)


@pytest.mark.parametrize("n", SIZES)
def test_noisy_trotter_step(benchmark, n):
    # one dt step: odd layer, its gate noise, even layer, its gate noise;
    # the layer propagators are built before timing starts
    evo = TrotterEvolution(ising_chain_hamiltonian(0.1, [1.0] * (n - 1) + [2.0]), DT)
    rho = hermitian(n)
    _evolve_segment(rho, evo, DT, NOISE)
    benchmark(_evolve_segment, rho, evo, DT, NOISE)
