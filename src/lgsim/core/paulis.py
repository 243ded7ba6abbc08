"""Pauli strings, operator embedding, and Pauli-sum Hamiltonians.

Conventions used throughout the package:

* Qubit 0 is the least significant bit of a basis index, so basis state
  ``|b_{n-1} ... b_1 b_0>`` has index ``sum(b_k * 2**k)``.
* Character ``k`` of a Pauli string acts on qubit ``k``; the full matrix
  equals the Kronecker chain ``P[s[n-1]] (x) ... (x) P[s[0]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidHamiltonian, TooManyQubits

MAX_QUBITS = 12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check_register_size(num_qubits: int) -> None:
    if num_qubits < 1:
        raise InvalidHamiltonian(f"need at least one qubit, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise TooManyQubits(
            f"{num_qubits} qubits exceeds the dense-simulation cap of {MAX_QUBITS}"
        )


def pauli_string_matrix(paulis: str) -> np.ndarray:
    """Dense matrix of a Pauli string (character k acts on qubit k).

    Built by index arithmetic rather than a Kronecker chain. Per qubit
    Y = iXZ, so the string is i^{#Y} X^x Z^z, with x the mask of its X and Y
    qubits and z the mask of its Z and Y qubits. Row a holds a single entry,
    in column b = a ^ x, equal to i^{#Y} (-1)^{popcount(b & z)}: a Z string
    is a +/-1 diagonal and an X string a permutation.
    """
    x = sum(1 << k for k, c in enumerate(paulis) if c in "XY")
    z = sum(1 << k for k, c in enumerate(paulis) if c in "YZ")
    rows = np.arange(2 ** len(paulis))
    cols = rows ^ x
    parity = np.zeros_like(rows)
    for k in range(len(paulis)):
        if z >> k & 1:
            parity ^= (cols >> k) & 1
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    out[rows, cols] = (1 - 2 * parity) * 1j ** paulis.count("Y")
    return out


def embed_operator(op: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed an operator on ``targets`` into the full register.

    ``op`` is given in the local basis where ``targets[k]`` supplies bit k of
    the local index.
    """
    m = len(targets)
    dim_local = 2**m
    if op.shape != (dim_local, dim_local):
        raise InvalidHamiltonian(
            f"operator shape {op.shape} does not match {m} target qubits"
        )
    if len(set(targets)) != m:
        raise InvalidHamiltonian(f"duplicate target qubits in {targets}")
    if any(q < 0 or q >= num_qubits for q in targets):
        raise InvalidHamiltonian(f"targets {targets} outside register of {num_qubits}")
    rest = [q for q in range(num_qubits) if q not in targets]
    big = np.kron(np.eye(2 ** len(rest), dtype=complex), op)
    # grouped index: targets fill the low bits, remaining qubits the high bits
    idx = np.arange(2**num_qubits)
    grouped = np.zeros_like(idx)
    for k, q in enumerate(targets):
        grouped |= ((idx >> q) & 1) << k
    for k, q in enumerate(rest):
        grouped |= ((idx >> q) & 1) << (m + k)
    return big[np.ix_(grouped, grouped)]


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string; coefficient in angular-frequency units."""

    coefficient: float
    paulis: str

    def __post_init__(self) -> None:
        if not np.isfinite(self.coefficient):
            raise InvalidHamiltonian(f"non-finite coefficient {self.coefficient}")
        if not self.paulis or any(c not in PAULI_MATRICES for c in self.paulis):
            raise InvalidHamiltonian(f"bad Pauli string {self.paulis!r}")

    def support(self) -> tuple[int, ...]:
        """Qubits on which the term acts non-trivially."""
        return tuple(q for q, c in enumerate(self.paulis) if c != "I")

    def matrix(self) -> np.ndarray:
        return self.coefficient * pauli_string_matrix(self.paulis)


@dataclass(frozen=True)
class PauliSumHamiltonian:
    """Weighted sum of Pauli strings on a fixed register."""

    num_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        check_register_size(self.num_qubits)
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if len(t.paulis) != self.num_qubits:
                raise InvalidHamiltonian(
                    f"term {t.paulis!r} has length {len(t.paulis)}, "
                    f"expected {self.num_qubits}"
                )

    @classmethod
    def from_terms(
        cls, num_qubits: int, terms: Iterable[tuple[float, str]]
    ) -> "PauliSumHamiltonian":
        return cls(num_qubits, tuple(PauliTerm(float(c), s) for c, s in terms))

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for t in self.terms:
            out += t.matrix()
        return out
