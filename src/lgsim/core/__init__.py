"""Dense state / density-matrix engine: states, Pauli-sum Hamiltonians,
segment evolution (exact and Trotterized), noise channels."""

from .channels import (
    NoiseModel,
    amplitude_damping_channel,
    apply_channel,
    dephasing_channel,
    depolarizing_channel,
    relaxation_channels,
)
from .evolution import TrotterEvolution, evolve_density
from .paulis import (
    MAX_QUBITS,
    PAULI_MATRICES,
    PauliSumHamiltonian,
    PauliTerm,
    pauli_string_matrix,
)
from .states import DensityMatrix, PureState, prepare_state

__all__ = [
    "MAX_QUBITS",
    "PAULI_MATRICES",
    "DensityMatrix",
    "NoiseModel",
    "PauliSumHamiltonian",
    "PauliTerm",
    "PureState",
    "TrotterEvolution",
    "amplitude_damping_channel",
    "apply_channel",
    "dephasing_channel",
    "depolarizing_channel",
    "evolve_density",
    "pauli_string_matrix",
    "prepare_state",
    "relaxation_channels",
]
