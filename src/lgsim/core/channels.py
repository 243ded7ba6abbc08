"""Noise channels and the composite noise model.

Decoherence is applied as discrete channels between evolution segments, not
by integrating a master equation. Relaxation (T1) is available but only acts
when a qubit has an explicit t1 entry; the default model is pure dephasing.

Every channel kind has one kernel on a reshaped view of ``rho``, with one
row axis and one column axis per run of target or non-target qubits, and
no kernel builds a full-register operator. Gate depolarizing,
(1 - p) rho + p Tr_S(rho) (x) I / 2^m on its m targets S, adds the sum of
the diagonal target blocks back to each of them. Relaxation of one qubit
(amplitude damping, dephasing, or both fused) moves a share of the |1><1|
block into the |0><0| block and scales the two off-diagonal blocks. A
block channel (a Trotter gate fused with its gate depolarizing) is one
matmul of its superoperator with the target axes. Each channel builds its
Kraus operators only if something reads them. Every kernel is linear, so it
also serves Hermitian operators that are not states. A channel's parameters
are checked when it is built; ``apply_channel`` returns an unchecked
intermediate state, and the evolution segment that applied it checks its
own result once.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as np

from ..errors import InvalidChannel, InvalidNoiseParameter
from .paulis import PAULI_MATRICES
from .paulis import embed_operator  # noqa: F401  (unused; the benchmark tracer wraps this name)
from .states import DensityMatrix

if TYPE_CHECKING:  # avoid a runtime cycle with lgsim.mitigation
    from ..mitigation import ConfusionMatrix

# t1/t2 may be a single number (every qubit), a {qubit: value} mapping, or None
TimeSpec = Union[float, Mapping[int, float], None]


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
            ops.append(math.sqrt(weight) * reduce(np.kron, [PAULI_MATRICES[c] for c in labels]))
        ops = np.array(ops)
        ops.setflags(write=False)
        return tuple(ops)


@dataclass(frozen=True)
class RelaxationChannel:
    """Relaxation of one ``qubit`` toward |0>: a share ``decay`` of the
    |1><1| population moves to |0><0|, and both coherences are scaled by
    ``coherence``. The map is completely positive when
    0 <= decay <= 1 and 0 <= coherence <= sqrt(1 - decay).

    ``apply_channel`` uses the closed form. ``kraus_ops`` are the products
    of the amplitude damping pair K0 = diag(1, sqrt(1 - decay)),
    K1 = sqrt(decay) |0><1| with the dephasing pair sqrt(1 - p) I,
    sqrt(p) Z that supplies the rest of the coherence factor, in the order
    sqrt(1 - p) K0, sqrt(p) Z K0, sqrt(1 - p) K1, sqrt(p) Z K1. They are
    built on first read and kept.
    """

    qubit: int
    decay: float
    coherence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay <= 1.0:
            raise InvalidNoiseParameter(f"relaxation decay {self.decay} outside [0, 1]")
        if not 0.0 <= self.coherence <= math.sqrt(1.0 - self.decay):
            raise InvalidNoiseParameter(
                f"relaxation coherence {self.coherence} outside [0, sqrt(1 - decay)]"
            )

    @property
    def target_qubits(self) -> tuple[int]:
        return (self.qubit,)

    @cached_property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        damped = math.sqrt(1.0 - self.decay)
        # (1 - 2p) damped = coherence; at full decay there is nothing to dephase
        p = 0.5 * (1.0 - self.coherence / damped) if damped > 0.0 else 0.0
        damping = (np.diag([1.0, damped]), math.sqrt(self.decay) * np.eye(2, k=1))
        dephasing = (math.sqrt(1.0 - p) * PAULI_MATRICES["I"], math.sqrt(p) * PAULI_MATRICES["Z"])
        ops = np.array([d @ k for k in damping for d in dephasing])
        ops.setflags(write=False)
        return tuple(ops)


@dataclass(frozen=True, eq=False)
class BlockChannel:
    """A linear map on 1 or 2 adjacent ``target_qubits`` (ascending), as its
    superoperator: ``superop[(a, b), (c, d)]`` is entry (a, b) of the image
    of |c><d|, local bit k from qubit ``target_qubits[k]``. ``kraus_ops``
    come from the eigendecomposition of its Choi matrix, on first read."""

    target_qubits: tuple[int, ...]
    superop: np.ndarray

    def __post_init__(self) -> None:
        targets = self.target_qubits
        if len(targets) not in (1, 2) or list(targets) != list(range(targets[0], targets[-1] + 1)):
            raise InvalidChannel(f"a block channel acts on 1 or 2 adjacent qubits, got {targets}")
        if self.superop.shape != (4 ** len(targets),) * 2:
            raise InvalidChannel(f"superoperator of shape {self.superop.shape} for {targets}")

    @cached_property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        dim = 2 ** len(self.target_qubits)
        # choi[(c, a), (d, b)] = superop[(a, b), (c, d)] = sum_k K[a, c] conj(K[b, d])
        choi = self.superop.reshape((dim,) * 4).transpose(2, 0, 3, 1).reshape(dim * dim, -1)
        w, v = np.linalg.eigh(choi)
        keep = w > 1e-14 * w[-1]
        ops = np.sqrt(w[keep])[:, None, None] * v.T[keep].reshape(-1, dim, dim).transpose(0, 2, 1)
        ops.setflags(write=False)
        return tuple(ops)


def block_channel(qubits: tuple[int, ...], gate: np.ndarray, depolarizing) -> BlockChannel:
    """``gate`` on the adjacent ``qubits``, then each (p, targets) uniform
    depolarizing in ``depolarizing``, targets counted from ``qubits[0]``."""
    dim = len(gate)
    superop = np.multiply.outer(gate, gate.conj()).transpose(0, 2, 1, 3).reshape(dim * dim, -1)
    for p, targets in depolarizing:
        superop = _depolarizing_superop(len(qubits), targets, p) @ superop
    superop.setflags(write=False)
    return BlockChannel(qubits, superop)


@lru_cache(maxsize=64)
def _depolarizing_superop(m: int, targets: tuple[int, ...], p: float) -> np.ndarray:
    """Column (c, d) is the closed form on m qubits applied to |c><d|."""
    channel = depolarizing_channel(p, targets)
    basis = np.eye(4**m, dtype=complex).reshape(-1, 2**m, 2**m)
    return np.array([_depolarize(DensityMatrix._trusted(m, e), channel).matrix.ravel()
                     for e in basis]).T


def _block_pass(rho: DensityMatrix, channel: BlockChannel) -> DensityMatrix:
    """One matmul of the superoperator with a copy of ``rho`` whose target
    row and column axes are moved to the front, and the copy back."""
    n, low, dim = rho.num_qubits, channel.target_qubits[0], 2 ** len(channel.target_qubits)
    shape = (2**n // (dim << low), dim, 2**low)
    view = rho.matrix.reshape(shape * 2).transpose(1, 4, 0, 2, 3, 5)
    out = (channel.superop @ view.reshape(dim * dim, -1)).reshape(view.shape)
    return DensityMatrix._trusted(n, out.transpose(2, 0, 3, 4, 1, 5).reshape(2**n, 2**n))


@lru_cache(maxsize=256)
def _target_blocks(
    num_qubits: int, targets: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[tuple, ...], ...]]:
    """Shape of a 2^n x 2^n matrix viewed with one row axis and one column
    axis per run of consecutive qubits, target or not, and the index of each
    target block in that view: ``blocks[r][c]`` holds the rows whose target
    runs read r and the columns whose target runs read c. With one target,
    r and c are its bit."""
    half: list[int] = []
    target_axes: list[int] = []
    # qubit q is bit q of an index, so the runs go from qubit n-1 down
    runs = itertools.groupby(range(num_qubits - 1, -1, -1), key=lambda q: q in targets)
    for is_target, run in runs:
        if is_target:
            target_axes.append(len(half))
        half.append(2 ** len(list(run)))
    sides = []
    for bits in itertools.product(*(range(half[a]) for a in target_axes)):
        index: list = [slice(None)] * len(half)
        for a, b in zip(target_axes, bits):
            index[a] = b
        sides.append(tuple(index))
    return tuple(half) * 2, tuple(tuple(r + c for c in sides) for r in sides)


def _depolarize(rho: DensityMatrix, channel: DepolarizingChannel) -> DensityMatrix:
    """(1 - p) rho + p Tr_S(rho) (x) I / 2^m: the partial trace is the sum of
    the 2^m diagonal target blocks, added back to each of them."""
    shape, blocks = _target_blocks(rho.num_qubits, channel.target_qubits)
    diagonal = [row[s] for s, row in enumerate(blocks)]
    view = rho.matrix.reshape(shape)
    reduced = sum(view[b] for b in diagonal) * (channel.p / len(diagonal))
    out = (1.0 - channel.p) * rho.matrix
    out_view = out.reshape(shape)
    for b in diagonal:
        out_view[b] += reduced
    return DensityMatrix._trusted(rho.num_qubits, out)


def _relax(rho: DensityMatrix, channel: RelaxationChannel) -> DensityMatrix:
    """Move ``decay`` of the |1><1| block into the |0><0| block, keep the
    rest, and scale the |0><1| and |1><0| blocks by ``coherence``."""
    shape, ((b00, b01), (b10, b11)) = _target_blocks(rho.num_qubits, channel.target_qubits)
    out = rho.matrix.copy()
    view = out.reshape(shape)
    if channel.decay:
        view[b00] += channel.decay * view[b11]
        view[b11] *= 1.0 - channel.decay
    view[b01] *= channel.coherence
    view[b10] *= channel.coherence
    return DensityMatrix._trusted(rho.num_qubits, out)


def apply_channel(
    rho: DensityMatrix, channel: DepolarizingChannel | RelaxationChannel | BlockChannel
) -> DensityMatrix:
    """Apply ``rho -> sum_k K rho K^dagger`` by the channel's own kernel."""
    n = rho.num_qubits
    if any(not 0 <= q < n for q in channel.target_qubits):
        raise InvalidChannel(f"channel targets {channel.target_qubits} outside register of {n}")
    if isinstance(channel, DepolarizingChannel):
        return _depolarize(rho, channel)
    if isinstance(channel, BlockChannel):
        return _block_pass(rho, channel)
    return _relax(rho, channel)


def _positive(time: float, what: str) -> float:
    """``time`` as a float, or an error naming ``what`` unless it is > 0."""
    time = float(time)
    if not time > 0:
        raise InvalidNoiseParameter(f"{what} must be positive, got {time}")
    return time


def _survival(time: float, duration: float, what: str) -> float:
    """exp(-duration / time) for a positive ``time`` (named ``what``) and a
    nonnegative ``duration``."""
    time = _positive(time, what)
    if duration < 0:
        raise InvalidNoiseParameter(f"duration must be nonnegative, got {duration}")
    return math.exp(-duration / time)


def dephasing_channel(t2: float, duration: float, qubit: int) -> RelaxationChannel:
    """Phase damping over ``duration`` with coherence time ``t2``: the
    off-diagonals shrink by exp(-duration/t2). Its Kraus pair is
    {sqrt(1-p) I, sqrt(p) Z} with p = (1 - exp(-duration/t2)) / 2.
    """
    return RelaxationChannel(qubit, 0.0, _survival(t2, duration, "t2"))


def amplitude_damping_channel(t1: float, duration: float, qubit: int) -> RelaxationChannel:
    """Relaxation toward |0> with decay probability 1 - exp(-duration/t1)."""
    decay = 1.0 - _survival(t1, duration, "t1")
    return RelaxationChannel(qubit, decay, math.sqrt(1.0 - decay))


def depolarizing_channel(p: float, qubits: Sequence[int]) -> DepolarizingChannel:
    """Uniform depolarizing with probability ``p`` on one or two qubits.

    At p = 1 the targets are replaced by the maximally mixed state. Channels
    are cached per (p, qubits), so each keeps its Kraus operators once read.
    """
    try:
        targets = tuple(operator.index(q) for q in qubits)
    except TypeError:
        raise InvalidChannel(f"qubits must be a sequence of indices, got {qubits!r}") from None
    return _depolarizing_channel(p, targets)


@lru_cache(maxsize=4096)
def _depolarizing_channel(p: float, targets: tuple[int, ...]) -> DepolarizingChannel:
    return DepolarizingChannel(p, targets)


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
                raise InvalidNoiseParameter(f"{name}={p} outside [0, 1]")
        self._check_t2_bound()

    def _check_t2_bound(self) -> None:
        named = {q for spec in (self.t1, self.t2) if isinstance(spec, tuple) for q, _ in spec}
        for q in named | {0}:
            t1, t2 = self.qubit_t1(q), self.qubit_t2(q)
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
) -> list[RelaxationChannel]:
    """One fused damping-and-dephasing channel for each qubit with a t1 or a
    t2, for one evolution segment.

    With both times set the dephasing part uses the pure-dephasing time
    1/T_phi = 1/t2 - 1/(2 t1), so the channel reproduces the requested t1
    and t2 envelopes: decay g = 1 - exp(-duration/t1) and coherence
    sqrt(1 - g) exp(-duration/T_phi). Damping and dephasing of one qubit
    commute, so one pass applies both. A per-qubit time for a qubit outside
    the register is an error, not a time for nothing.
    """
    for what, spec in (("t1", noise.t1), ("t2", noise.t2)):
        for q, _ in spec if isinstance(spec, tuple) else ():
            if not 0 <= q < num_qubits:
                raise InvalidNoiseParameter(f"noise.{what}[{q}] is outside the {num_qubits} qubits")
    if duration <= 0:
        return []
    channels: list[RelaxationChannel] = []
    for q in range(num_qubits):
        t1, t2 = noise.qubit_t1(q), noise.qubit_t2(q)
        if t1 is None and t2 is None:
            continue
        decay = 0.0 if t1 is None else 1.0 - _survival(t1, duration, "t1")
        coherence = math.sqrt(1.0 - decay)
        if t2 is not None:
            if t1 is None:
                t_phi = t2
            else:
                rate = 1.0 / t2 - 0.5 / t1
                t_phi = 1.0 / rate if rate > 1e-15 else math.inf
            coherence *= _survival(t_phi, duration, "t2")
        channels.append(RelaxationChannel(q, decay, coherence))
    return channels
