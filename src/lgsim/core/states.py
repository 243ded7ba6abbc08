"""Pure states and density matrices with validated invariants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidPreparation, InvalidState
from .paulis import check_register_size

NORM_TOL = 1e-10
PSD_TOL = 1e-9

STATE_NAMES = ("zero", "plus", "bell", "ghz")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ``num_qubits`` qubits (qubit 0 = LSB)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_register_size(self.num_qubits)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise InvalidState(
                f"amplitude vector of shape {amps.shape} does not match "
                f"{self.num_qubits} qubits"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidState(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """A state on ``num_qubits`` qubits: Hermitian, unit trace and PSD, checked when built."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        check_register_size(self.num_qubits)
        m = np.array(self.matrix, dtype=complex)
        dim = 2**self.num_qubits
        if m.shape != (dim, dim):
            raise InvalidState(f"matrix shape {m.shape} does not match {self.num_qubits} qubits")
        # any NaN or inf entry makes the Hermiticity deviation NaN or inf
        deviation = _hermiticity(m)
        if not math.isfinite(deviation):
            raise InvalidState("density matrix has non-finite entries")
        if deviation > NORM_TOL:
            raise InvalidState("density matrix is not Hermitian within 1e-10")
        tr = np.trace(m).real
        if abs(tr - 1.0) > NORM_TOL:
            raise InvalidState(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
        # m + PSD_TOL * I has a Cholesky factor exactly when no eigenvalue of
        # m is below -PSD_TOL (up to rounding); eigvalsh, three to four times
        # dearer, only runs to decide a failure near that edge and to name it.
        # m is shifted in place and its diagonal restored exactly after, so
        # the check makes no d x d copy of its own
        diagonal = m.diagonal().copy()
        m.flat[:: dim + 1] += PSD_TOL
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            m.flat[:: dim + 1] = diagonal
            min_eig = float(np.linalg.eigvalsh(m)[0])
            if min_eig < -PSD_TOL:
                raise InvalidState(f"negative eigenvalue {min_eig} below -{PSD_TOL}") from None
        m.flat[:: dim + 1] = diagonal
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


def _hermiticity(y: np.ndarray) -> float:
    """max |y - y^dagger|, 64 rows at a time: no temporary is as large as y,
    and each strip of y^dagger is read from 64 adjacent columns. An inf
    facing an inf gives a NaN, without a warning."""
    rows = range(0, len(y), 64)
    with np.errstate(invalid="ignore"):
        strips = [np.abs(y[i : i + 64] - y[:, i : i + 64].T.conj()).max() for i in rows]
    return float(np.max(strips))


def prepare_state(name: str, num_qubits: int) -> PureState:
    """Prepare one of the named initial states.

    ``zero``: computational ground state; ``plus``: uniform superposition
    (Hadamard on every qubit); ``bell``: (|00> + |11>)/sqrt(2), two qubits
    only; ``ghz``: (|0...0> + |1...1>)/sqrt(2), two or more qubits.
    """
    check_register_size(num_qubits)
    dim = 2**num_qubits
    if name == "zero":
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    elif name == "plus":
        amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    elif name == "bell":
        if num_qubits != 2:
            raise InvalidPreparation(f"bell state needs exactly 2 qubits, got {num_qubits}")
        amps = np.zeros(dim, dtype=complex)
        amps[0] = amps[3] = 1.0 / np.sqrt(2)
    elif name == "ghz":
        if num_qubits < 2:
            raise InvalidPreparation(f"ghz state needs at least 2 qubits, got {num_qubits}")
        amps = np.zeros(dim, dtype=complex)
        amps[0] = amps[dim - 1] = 1.0 / np.sqrt(2)
    else:
        raise InvalidPreparation(f"unknown state name {name!r}; choose from {STATE_NAMES}")
    return PureState(num_qubits, amps)
