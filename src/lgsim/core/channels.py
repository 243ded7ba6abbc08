"""Kraus channels and the composite noise model.

Decoherence is applied as discrete channels between evolution segments, not
by integrating a master equation. Relaxation (T1) is available but only acts
when a qubit has an explicit t1 entry; the default model is pure dephasing.

Each channel kind has one kernel, and neither builds a full-register
operator. Gate depolarizing is applied in closed form,
(1 - p) rho + p Tr_S(rho) (x) I / 2^m on its m targets S, by slicing the
diagonal target blocks of a reshaped view of ``rho``; its Kraus operators are
built only if something reads them. Every other channel (relaxation, or a
user-built ``KrausChannel``) acts as a local superoperator: its Kraus
operators are folded once into S = sum_k K (x) conj(K), a 4^m x 4^m matrix,
which multiplies the target row and column axes of ``rho``. Both kernels are
linear, so they also serve Hermitian operators that are not states. Channel
completeness is checked when a channel is built; ``apply_channel`` returns an
unchecked intermediate state, and the evolution segment that applied it
checks its own result once.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as np

from ..errors import InvalidChannel, InvalidNoiseParameter
from .paulis import PAULI_MATRICES
from .paulis import embed_operator  # noqa: F401  (unused; the benchmark tracer wraps this name)
from .states import DensityMatrix

if TYPE_CHECKING:  # avoid a runtime cycle with lgsim.mitigation
    from ..mitigation import ConfusionMatrix

COMPLETENESS_TOL = 1e-9

# t1/t2 may be a single number (every qubit), a {qubit: value} mapping, or None
TimeSpec = Union[float, Mapping[int, float], None]


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving map given by Kraus operators on ``target_qubits``.

    Operators are 2^m x 2^m where m = len(target_qubits); qubit
    ``target_qubits[k]`` supplies bit k of the local basis index.
    ``superoperator`` is sum_k K (x) conj(K), acting on the row-major
    vectorized local block of ``rho``.
    """

    target_qubits: tuple[int, ...]
    kraus_ops: tuple[np.ndarray, ...]
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        targets = tuple(int(q) for q in self.target_qubits)
        if len(set(targets)) != len(targets) or not targets:
            raise InvalidChannel(f"bad target qubits {targets}")
        dim = 2 ** len(targets)
        ops = []
        total = np.zeros((dim, dim), dtype=complex)
        superop = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in self.kraus_ops:
            arr = np.array(k, dtype=complex)
            if arr.shape != (dim, dim):
                raise InvalidChannel(
                    f"Kraus operator shape {arr.shape} does not match {len(targets)} qubits"
                )
            if not np.isfinite(arr).all():
                raise InvalidChannel("Kraus operator has non-finite entries")
            arr.setflags(write=False)
            ops.append(arr)
            total += arr.conj().T @ arr
            superop += np.kron(arr, arr.conj())
        if np.abs(total - np.eye(dim)).max() > COMPLETENESS_TOL:
            raise InvalidChannel("Kraus operators do not satisfy completeness")
        superop.setflags(write=False)
        object.__setattr__(self, "target_qubits", targets)
        object.__setattr__(self, "kraus_ops", tuple(ops))
        object.__setattr__(self, "superoperator", superop)


@dataclass(frozen=True)
class DepolarizingChannel:
    """Uniform depolarizing with probability ``p`` on one or two
    ``target_qubits``: rho -> (1 - p) rho + p Tr_S(rho) (x) I / 2^m.

    ``apply_channel`` uses the closed form. ``kraus_ops``, the 4^m Pauli
    strings weighted 1 - p (4^m - 1) / 4^m (identity) and p / 4^m (the rest),
    are built on first read and kept.
    """

    p: float
    target_qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise InvalidNoiseParameter(f"depolarizing probability {self.p} outside [0, 1]")
        targets = self.target_qubits
        if len(targets) not in (1, 2):
            raise InvalidChannel("depolarizing channel supports one or two qubits")
        if len(set(targets)) != len(targets):
            raise InvalidChannel(f"bad target qubits {targets}")

    @cached_property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        n_paulis = 4 ** len(self.target_qubits)
        ops = []
        for labels in itertools.product("IXYZ", repeat=len(self.target_qubits)):
            identity = set(labels) == {"I"}
            weight = 1.0 - self.p * (n_paulis - 1) / n_paulis if identity else self.p / n_paulis
            op = math.sqrt(weight) * reduce(np.kron, [PAULI_MATRICES[c] for c in labels])
            op.setflags(write=False)
            ops.append(op)
        return tuple(ops)


@lru_cache(maxsize=256)
def _diagonal_blocks(
    num_qubits: int, targets: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Shape of a 2^n x 2^n matrix viewed with one row axis and one column
    axis per run of consecutive qubits, target or not, and the index of each
    diagonal block (s, s) of the targets in that view."""
    half: list[int] = []
    target_axes: list[int] = []
    # qubit q is bit q of an index, so the runs go from qubit n-1 down
    runs = itertools.groupby(range(num_qubits - 1, -1, -1), key=lambda q: q in targets)
    for is_target, run in runs:
        if is_target:
            target_axes.append(len(half))
        half.append(2 ** len(list(run)))
    blocks = []
    for bits in itertools.product(*(range(half[a]) for a in target_axes)):
        index: list = [slice(None)] * len(half)
        for a, b in zip(target_axes, bits):
            index[a] = b
        blocks.append(tuple(index) * 2)
    return tuple(half) * 2, tuple(blocks)


def _depolarize(rho: DensityMatrix, channel: DepolarizingChannel) -> DensityMatrix:
    """(1 - p) rho + p Tr_S(rho) (x) I / 2^m: the partial trace is the sum of
    the 2^m diagonal target blocks, added back to each of them."""
    shape, blocks = _diagonal_blocks(rho.num_qubits, channel.target_qubits)
    view = rho.matrix.reshape(shape)
    reduced = view[blocks[0]] + view[blocks[1]]
    for b in blocks[2:]:
        reduced += view[b]
    reduced *= channel.p / len(blocks)
    out = (1.0 - channel.p) * rho.matrix
    out_view = out.reshape(shape)
    for b in blocks:
        out_view[b] += reduced
    return DensityMatrix._trusted(rho.num_qubits, out)


def apply_channel(
    rho: DensityMatrix, channel: KrausChannel | DepolarizingChannel
) -> DensityMatrix:
    """Apply ``rho -> sum_k K rho K^dagger``: in closed form for a
    ``DepolarizingChannel``, else as the channel's local superoperator on the
    target row and column axes of ``rho``."""
    n = rho.num_qubits
    if any(not 0 <= q < n for q in channel.target_qubits):
        raise InvalidChannel(
            f"channel targets {channel.target_qubits} outside register "
            f"of {n} qubits"
        )
    if isinstance(channel, DepolarizingChannel):
        return _depolarize(rho, channel)
    # qubit q is row axis n-1-q of rho viewed as (2,)*2n (qubit 0 is the least
    # significant bit); reversed targets put target_qubits[k] on local bit k
    rows = [n - 1 - q for q in reversed(channel.target_qubits)]
    axes = rows + [n + a for a in rows]
    front = list(range(len(axes)))
    local = np.moveaxis(rho.matrix.reshape((2,) * (2 * n)), axes, front)
    out = channel.superoperator @ local.reshape(len(channel.superoperator), -1)
    out = np.moveaxis(out.reshape(local.shape), front, axes)
    return DensityMatrix._trusted(n, out.reshape(rho.matrix.shape))


def identity_channel(qubit: int = 0) -> KrausChannel:
    return KrausChannel((qubit,), (np.eye(2, dtype=complex),))


@lru_cache(maxsize=4096)
def dephasing_channel(t2: float, duration: float, qubit: int) -> KrausChannel:
    """Phase damping over ``duration`` with coherence time ``t2``.

    Kraus pair {sqrt(1-p) I, sqrt(p) Z} with p = (1 - exp(-duration/t2)) / 2,
    so off-diagonals shrink by exp(-duration/t2).
    """
    if not t2 > 0:
        raise InvalidNoiseParameter(f"t2 must be positive, got {t2}")
    if duration < 0:
        raise InvalidNoiseParameter(f"duration must be nonnegative, got {duration}")
    p = 0.5 * (1.0 - math.exp(-duration / t2))
    return KrausChannel(
        (qubit,),
        (
            math.sqrt(1.0 - p) * PAULI_MATRICES["I"],
            math.sqrt(p) * PAULI_MATRICES["Z"],
        ),
    )


@lru_cache(maxsize=4096)
def amplitude_damping_channel(t1: float, duration: float, qubit: int) -> KrausChannel:
    """Relaxation toward |0> with decay probability 1 - exp(-duration/t1)."""
    if not t1 > 0:
        raise InvalidNoiseParameter(f"t1 must be positive, got {t1}")
    if duration < 0:
        raise InvalidNoiseParameter(f"duration must be nonnegative, got {duration}")
    g = 1.0 - math.exp(-duration / t1)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((qubit,), (k0, k1))


def depolarizing_channel(p: float, qubits: Sequence[int]) -> DepolarizingChannel:
    """Uniform depolarizing with probability ``p`` on one or two qubits.

    At p = 1 the targets are replaced by the maximally mixed state. Channels
    are cached per (p, qubits), so each keeps its Kraus operators once read.
    """
    try:
        targets = tuple(operator.index(q) for q in qubits)
    except TypeError:
        raise InvalidChannel(
            f"qubits must be a sequence of qubit indices, got {qubits!r}"
        ) from None
    return _depolarizing_channel(p, targets)


@lru_cache(maxsize=4096)
def _depolarizing_channel(p: float, targets: tuple[int, ...]) -> DepolarizingChannel:
    return DepolarizingChannel(p, targets)


def _normalize_times(value: TimeSpec, what: str) -> float | tuple[tuple[int, float], ...] | None:
    if value is None:
        return None
    if isinstance(value, Mapping):
        items = []
        for q, t in sorted(value.items()):
            t = float(t)
            if not t > 0:
                raise InvalidNoiseParameter(f"{what}[{q}] must be positive, got {t}")
            items.append((int(q), t))
        return tuple(items)
    t = float(value)
    if not t > 0:
        raise InvalidNoiseParameter(f"{what} must be positive, got {t}")
    return t


def _lookup_time(spec: float | tuple[tuple[int, float], ...] | None, qubit: int) -> float | None:
    if spec is None:
        return None
    if isinstance(spec, tuple):
        for q, t in spec:
            if q == qubit:
                return t
        return None
    return spec


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
                raise InvalidNoiseParameter(f"{name}={p} outside [0, 1]")
        self._check_t2_bound()

    def _check_t2_bound(self) -> None:
        qubits = set()
        for spec in (self.t1, self.t2):
            if isinstance(spec, tuple):
                qubits.update(q for q, _ in spec)
        qubits.add(0)
        for q in qubits:
            t1 = self.qubit_t1(q)
            t2 = self.qubit_t2(q)
            if t1 is not None and t2 is not None and t2 > 2.0 * t1 + 1e-12:
                raise InvalidNoiseParameter(
                    f"qubit {q}: t2={t2} exceeds 2*t1={2 * t1} (unphysical)"
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
) -> list[KrausChannel]:
    """Per-qubit damping/dephasing channels for one evolution segment.

    With both times set the dephasing part uses the pure-dephasing time
    1/T_phi = 1/t2 - 1/(2 t1), so the combined channel reproduces the
    requested t1 and t2 envelopes.
    """
    if duration <= 0:
        return []
    channels: list[KrausChannel] = []
    for q in range(num_qubits):
        t1 = noise.qubit_t1(q)
        t2 = noise.qubit_t2(q)
        if t1 is not None:
            channels.append(amplitude_damping_channel(t1, duration, q))
        if t2 is not None:
            if t1 is None:
                t_phi = t2
            else:
                rate = 1.0 / t2 - 0.5 / t1
                if rate <= 1e-15:
                    continue
                t_phi = 1.0 / rate
            channels.append(dephasing_channel(t_phi, duration, q))
    return channels
