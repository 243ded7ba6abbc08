"""Noise channels and the composite noise model.

Decoherence is applied as discrete channels between evolution segments and
inside Trotter steps, not by integrating a master equation. Relaxation (T1)
is available but only acts when a qubit has an explicit t1 entry; the
default model is pure dephasing.

There is one channel type, ``BlockChannel``: a linear map E on 1 or 2
adjacent qubits, held only as its real Pauli transfer matrix
R[P, Q] = Tr(P E(Q)) / 2^m (Greenbaum, arXiv:1509.02921), and every channel
is built in that basis. A block gate G is Re Tr(P G Q G^dagger) / 2^m. Gate
depolarizing, (1 - p) rho + p Tr_S(rho) (x) I / 2^|S| on its targets S, is
diagonal: it keeps the strings that are I on S and scales the others by
1 - p. Relaxation of one qubit (amplitude damping, dephasing, or both fused)
is a 4x4 matrix, and on a two-qubit block the kron of two. A channel builds
its Kraus operators only if something reads them.

Channels act on the Pauli form of an operator (``PauliVector``): the real
coefficients r_P = Tr(P X) of every Pauli string P, the four (I, X, Y, Z)
of qubit q at stride 4^q, so the coefficients of any block of adjacent
qubits are contiguous. Every channel here maps Hermitian operators to
Hermitian operators, so its transfer matrix is real, and ``apply_channel``
is one real matmul over the block's axis. The conversions take and give
plain Hermitian d x d arrays; the states, branches and backward images of
the density path all are. Every channel is linear, so it also serves
operators that are not states; ``apply_channel`` returns an unchecked
operator, and only ``evolve_density`` makes a state of its result, checked.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from ..errors import InvalidChannel, InvalidNoiseParameter
from .paulis import embed_operator  # noqa: F401  (unused; the benchmark tracer wraps this name)
from .paulis import pauli_string_matrix
from .states import DensityMatrix

if TYPE_CHECKING:  # avoid a runtime cycle with lgsim.mitigation
    from ..mitigation import ConfusionMatrix

# t1/t2 may be a single number (every qubit), a {qubit: value} mapping, or None
TimeSpec = Union[float, Mapping[int, float], None]


@dataclass(frozen=True, eq=False)
class BlockChannel:
    """A linear map E on 1 or 2 adjacent ``target_qubits`` (ascending), as
    its real Pauli transfer matrix ``transfer_matrix[P, Q]`` =
    Tr(P E(Q)) / 2^m, read-only, with P and Q indexed as in ``PauliVector``:
    local qubit k is ``target_qubits[k]``, at stride 4^k. ``kraus_ops`` come
    from the eigendecomposition of its Choi matrix, on first read."""

    target_qubits: tuple[int, ...]
    transfer_matrix: np.ndarray

    def __post_init__(self) -> None:
        targets = self.target_qubits
        if len(targets) not in (1, 2) or list(targets) != list(range(targets[0], targets[-1] + 1)):
            raise InvalidChannel(f"a block channel acts on 1 or 2 adjacent qubits, got {targets}")
        if self.transfer_matrix.shape != (4 ** len(targets),) * 2:
            raise InvalidChannel(f"transfer matrix {self.transfer_matrix.shape} for {targets}")
        self.transfer_matrix.setflags(write=False)

    @cached_property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        dim = 2 ** len(self.target_qubits)
        strings = _local_strings(len(self.target_qubits)).reshape(dim * dim, -1)
        # E(|c><d|)[a, b] = sum_PQ R[P, Q] Q[d, c] P[a, b] / 2^m
        # = choi[(c, a), (d, b)] = sum_k K[a, c] conj(K[b, d])
        entries = strings.T @ (self.transfer_matrix.T @ strings)  # [(d, c), (a, b)]
        choi = entries.reshape((dim,) * 4).transpose(1, 2, 0, 3).reshape(dim * dim, -1)
        w, v = np.linalg.eigh(choi / dim)
        keep = w > 1e-14 * w[-1]
        ops = np.sqrt(w[keep])[:, None, None] * v.T[keep].reshape(-1, dim, dim).transpose(0, 2, 1)
        ops.setflags(write=False)
        return tuple(ops)


@lru_cache(maxsize=2)
def _local_strings(m: int) -> np.ndarray:
    """The 4^m Pauli strings of m qubits as matrices, in ``PauliVector``
    order; read-only."""
    labels = ("".join("IXYZ"[index // 4**k % 4] for k in range(m)) for index in range(4**m))
    strings = np.array([pauli_string_matrix(label) for label in labels])
    strings.setflags(write=False)
    return strings


# The coefficients Tr(P X), P = I, X, Y, Z, of a one-qubit operator X from
# its entries X[a, b] in row-major order: row P holds P[b, a], with
# iY = [[0, 1], [-1, 0]] in place of Y, so it is real. _REAL_PAIR is the
# same for two qubits from their entries (a1, a0, b1, b0): the kron's
# columns (a1, b1, a0, b0) reordered.
_REAL_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [1, 0, 0, -1]], dtype=float)
_REAL_PAIR = (
    np.kron(_REAL_PAULI, _REAL_PAULI).reshape(16, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
).reshape(16, 16)
# their inverses, the transposes over 2^m: the rows are orthogonal
_FROM_REAL_PAULI = _REAL_PAULI.T / 2
_FROM_REAL_PAIR = _REAL_PAIR.T / 4


@lru_cache(maxsize=12)
def _y_signs(num_qubits: int) -> np.ndarray:
    """(-1)^floor(y / 2) for the number y of Y factors of each Pauli string,
    as int8; read-only."""
    count = np.zeros(1, dtype=np.int8)
    for _ in range(num_qubits):
        count = np.add.outer(np.array([0, 0, 1, 0], dtype=np.int8), count).ravel()
    signs = 1 - (count & 2)
    signs.setflags(write=False)
    return signs


def _block_pass(v: np.ndarray, matrix: np.ndarray, low: int) -> np.ndarray:
    """``matrix`` on the contiguous block of coefficients that starts at
    qubit ``low``, as one matmul over its axis."""
    if low == 0:
        return (v.reshape(-1, len(matrix)) @ matrix.T).reshape(-1)
    return (matrix @ v.reshape(-1, len(matrix), 4**low)).reshape(-1)


def _adjoint_pass(v: np.ndarray, lo: int, hi: int, channel: BlockChannel) -> tuple:
    """(R^T v, lo, hi) for the coefficients ``v`` of an operator that is I
    outside qubits lo..hi, indexed from qubit lo: a channel that touches the
    window widens it to its own qubits first (the old coefficients sit at I
    on the new ones), and one on other qubits leaves ``v`` as it is, which
    holds when R^T fixes e_I, that is when the channel is trace-preserving."""
    first, last = channel.target_qubits[0], channel.target_qubits[-1]
    if last < lo or first > hi:
        return v, lo, hi
    if first < lo or last > hi:
        step, lo, hi = 4 ** max(lo - first, 0), min(lo, first), max(hi, last)
        v, old = np.zeros(4 ** (hi - lo + 1)), v
        v[: len(old) * step : step] = old
    return _block_pass(v, channel.transfer_matrix.T, first - lo), lo, hi


def _pairwise(v: np.ndarray, num_qubits: int, pair: np.ndarray, one: np.ndarray) -> np.ndarray:
    """``pair`` on each pair of qubits from qubit 0, then ``one`` on the top
    qubit of an odd register."""
    for j in range(num_qubits // 2):
        v = _block_pass(v, pair, 2 * j)
    return _block_pass(v, one, num_qubits - 1) if num_qubits % 2 else v


@lru_cache(maxsize=12)
def _interleaved(num_qubits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axes of a d x d matrix that split its row and its column index into
    pairs of qubit bits from the top (an odd top qubit alone), and the order
    that puts each row axis just before the column axis of the same qubits."""
    shape = (2,) * (num_qubits % 2) + (4,) * (num_qubits // 2)
    k = len(shape)
    return shape * 2, tuple(axis for j in range(k) for axis in (j, k + j))


@dataclass(frozen=True)
class PauliVector:
    """A Hermitian operator X on ``num_qubits`` qubits as its real Pauli
    coefficients r_P = Tr(P X), unchecked: r_P sits at index sum_q p_q 4^q,
    where p_q = 0, 1, 2, 3 names the factor I, X, Y, Z of P on qubit q.
    ``matrix`` converts it back.

    X = A + iB with A = Re X symmetric and B = Im X antisymmetric. A Pauli
    string with an even number of Y factors is a real matrix and sees only A;
    one with an odd number is i times a real matrix and sees only B. So with
    iY in place of Y every coefficient is a real linear map of A + B, one
    real pass per pair of qubits, up to the sign (-1)^floor(#Y / 2)."""

    num_qubits: int
    coefficients: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray) -> "PauliVector":
        """The Hermitian d x d ``matrix`` in Pauli form, unchecked."""
        n = len(matrix).bit_length() - 1
        shape, axes = _interleaved(n)
        v = (matrix.real + matrix.imag).reshape(shape).transpose(axes).reshape(-1)
        v = _pairwise(v, n, _REAL_PAIR, _REAL_PAULI)
        v *= _y_signs(n)
        return cls(n, v)

    @property
    def matrix(self) -> np.ndarray:
        """The operator as a d x d matrix, exactly Hermitian: M = (A + B) / 2
        from the coefficients, then A = M + M^T and B = M - M^T."""
        n = self.num_qubits
        v = 0.5 * self.coefficients
        v *= _y_signs(n)
        v = _pairwise(v, n, _FROM_REAL_PAIR, _FROM_REAL_PAULI)
        shape, axes = _interleaved(n)
        tensor = v.reshape([shape[a] for a in axes])
        rows, columns = tuple(range(0, len(axes), 2)), tuple(range(1, len(axes), 2))
        # M and M^T as views of the interleaved coefficients, so no copy of M
        half, transposed = tensor.transpose(rows + columns), tensor.transpose(columns + rows)
        out = np.empty((2**n, 2**n), dtype=complex)
        np.add(half, transposed, out=out.real.reshape(shape))
        np.subtract(half, transposed, out=out.imag.reshape(shape))
        return out


def block_channel(
    qubits: tuple[int, ...],
    gate: np.ndarray,
    depolarizing,
    relaxation: Mapping[int, np.ndarray] | None = None,
) -> BlockChannel:
    """``gate`` on the adjacent ``qubits``, then each (p, targets) uniform
    depolarizing in ``depolarizing``, targets counted from ``qubits[0]``,
    then the one-qubit transfer matrix ``relaxation[k]`` on each local qubit
    k it names."""
    m = len(qubits)
    strings = _local_strings(m)
    # R[P, Q] = Re Tr(P G Q G^dagger) / 2^m
    transfer = np.einsum("pab,qba->pq", strings, gate @ strings @ gate.conj().T).real / 2**m
    for p, targets in depolarizing:
        transfer *= _depolarizing_scale(m, targets, p)[:, None]
    if relaxation:
        local = [relaxation.get(k, np.eye(4)) for k in range(m)]
        transfer = (local[0] if m == 1 else np.kron(local[1], local[0])) @ transfer
    return BlockChannel(qubits, transfer)


@lru_cache(maxsize=64)
def _depolarizing_scale(m: int, targets: tuple[int, ...], p: float) -> np.ndarray:
    """The diagonal of depolarizing the local ``targets`` of m qubits: 1 on
    the strings that are I on every target, 1 - p on the others."""
    moved = [any(index // 4**k % 4 for k in targets) for index in range(4**m)]
    return np.where(moved, 1.0 - p, 1.0)


def apply_channel(operator: DensityMatrix | PauliVector, channel: BlockChannel) -> PauliVector:
    """Apply ``X -> sum_k K X K^dagger`` to a Hermitian ``operator`` as one
    matmul of the channel's transfer matrix over its block of Pauli
    coefficients; a ``DensityMatrix`` is converted from its matrix first."""
    if isinstance(operator, DensityMatrix):
        operator = PauliVector.of(operator.matrix)
    n, low = operator.num_qubits, channel.target_qubits[0]
    if low < 0 or channel.target_qubits[-1] >= n:
        raise InvalidChannel(f"channel targets {channel.target_qubits} outside register of {n}")
    return PauliVector(n, _block_pass(operator.coefficients, channel.transfer_matrix, low))


def _positive(time: float, what: str) -> float:
    """``time`` as a float, or an error naming ``what`` unless it is > 0."""
    time = float(time)
    if not time > 0:
        raise InvalidNoiseParameter(f"{what} must be positive, got {time}")
    return time


def _normalize_times(value: TimeSpec, what: str) -> float | tuple[tuple[int, float], ...] | None:
    if isinstance(value, Mapping):
        return tuple((int(q), _positive(t, f"{what}[{q}]")) for q, t in sorted(value.items()))
    return None if value is None else _positive(value, what)


def _lookup_time(spec: float | tuple[tuple[int, float], ...] | None, qubit: int) -> float | None:
    return dict(spec).get(qubit) if isinstance(spec, tuple) else spec


@dataclass(frozen=True)
class NoiseModel:
    """Decoherence times, per-gate depolarizing rates, and readout confusion.

    ``t1``/``t2`` accept a single time, a per-qubit mapping, or None. The
    readout confusion matrix only affects sampled measurement records, never
    the exact trace formula.
    """

    t1: TimeSpec = None
    t2: TimeSpec = None
    gate_depolarizing_1q: float = 0.0
    gate_depolarizing_2q: float = 0.0
    readout_confusion: "ConfusionMatrix | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t1", _normalize_times(self.t1, "t1"))
        object.__setattr__(self, "t2", _normalize_times(self.t2, "t2"))
        for name in ("gate_depolarizing_1q", "gate_depolarizing_2q"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidNoiseParameter(f"noise.{name}={p} outside [0, 1]")
        self._check_t2_bound()

    def _check_t2_bound(self) -> None:
        named = {q for spec in (self.t1, self.t2) if isinstance(spec, tuple) for q, _ in spec}
        for q in named | {0}:
            t1, t2 = self.qubit_t1(q), self.qubit_t2(q)
            if t1 is not None and t2 is not None and t2 > 2.0 * t1 + 1e-12:
                raise InvalidNoiseParameter(
                    f"qubit {q}: noise.t2={t2} exceeds 2*noise.t1={2 * t1} (unphysical)"
                )

    def qubit_t1(self, qubit: int) -> float | None:
        return _lookup_time(self.t1, qubit)

    def qubit_t2(self, qubit: int) -> float | None:
        return _lookup_time(self.t2, qubit)

    def digest(self) -> str:
        """Short stable hash of the model, for run manifests."""
        payload = {
            "t1": self.t1,
            "t2": self.t2,
            "p1": self.gate_depolarizing_1q,
            "p2": self.gate_depolarizing_2q,
            "readout": None
            if self.readout_confusion is None
            else np.round(self.readout_confusion.matrix, 12).tolist(),
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def relaxation_channels(
    noise: NoiseModel, num_qubits: int, duration: float
) -> list[BlockChannel]:
    """One fused damping-and-dephasing channel for each qubit with a t1 or a
    t2, for one evolution segment.

    With both times set the dephasing part uses the pure-dephasing time
    1/T_phi = 1/t2 - 1/(2 t1), so the channel reproduces the requested t1
    and t2 envelopes: decay g = 1 - exp(-duration/t1) and coherence
    c = sqrt(1 - g) exp(-duration/T_phi). Damping and dephasing of one qubit
    commute, so one transfer matrix applies both: on (I, X, Y, Z) it is
    diag(1, c, c, 1 - g) with g at [3, 0], since E(I) = I + g Z. A per-qubit
    time for a qubit outside the register is an error, not a time for
    nothing.
    """
    for what, spec in (("t1", noise.t1), ("t2", noise.t2)):
        for q, _ in spec if isinstance(spec, tuple) else ():
            if not 0 <= q < num_qubits:
                raise InvalidNoiseParameter(f"noise.{what}[{q}] is outside the {num_qubits} qubits")
    if duration <= 0:
        return []
    channels: list[BlockChannel] = []
    for q in range(num_qubits):
        t1, t2 = noise.qubit_t1(q), noise.qubit_t2(q)
        if t1 is None and t2 is None:
            continue
        decay = 0.0 if t1 is None else 1.0 - math.exp(-duration / t1)
        coherence = math.sqrt(1.0 - decay)
        if t2 is not None:
            if t1 is None:
                t_phi = t2
            else:
                rate = 1.0 / t2 - 0.5 / t1
                t_phi = 1.0 / rate if rate > 1e-15 else math.inf
            coherence *= math.exp(-duration / t_phi)
        transfer = np.diag([1.0, coherence, coherence, 1.0 - decay])
        transfer[3, 0] = decay
        channels.append(BlockChannel((q,), transfer))
    return channels
