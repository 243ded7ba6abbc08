"""Dense state / density-matrix engine: states, Pauli-sum Hamiltonians,
segment evolution (exact and Trotterized), Kraus channels."""

from .channels import (
    KrausChannel,
    NoiseModel,
    amplitude_damping_channel,
    apply_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    relaxation_channels,
)
from .evolution import TrotterEvolution, evolve_density
from .paulis import (
    MAX_QUBITS,
    PAULI_MATRICES,
    PauliSumHamiltonian,
    PauliTerm,
    embed_operator,
    pauli_string_matrix,
)
from .states import DensityMatrix, PureState, prepare_state

__all__ = [
    "MAX_QUBITS",
    "PAULI_MATRICES",
    "DensityMatrix",
    "KrausChannel",
    "NoiseModel",
    "PauliSumHamiltonian",
    "PauliTerm",
    "PureState",
    "TrotterEvolution",
    "amplitude_damping_channel",
    "apply_channel",
    "dephasing_channel",
    "depolarizing_channel",
    "embed_operator",
    "evolve_density",
    "identity_channel",
    "pauli_string_matrix",
    "prepare_state",
    "relaxation_channels",
]
