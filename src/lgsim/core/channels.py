"""Noise channels and the composite noise model.

Decoherence is applied as discrete channels between evolution segments and
inside Trotter steps, not by integrating a master equation. Relaxation (T1)
is available but only acts when a qubit has an explicit t1 entry; the
default model is pure dephasing.

There is one channel type, ``BlockChannel``: a superoperator on 1 or 2
adjacent qubits, which ``apply_channel`` applies as one matmul with the
target axes of a reshaped copy of ``rho``, so no channel builds a
full-register operator. Relaxation of one qubit (amplitude damping,
dephasing, or both fused) is a 4x4 superoperator. Gate depolarizing,
(1 - p) rho + p Tr_S(rho) (x) I / 2^|S| on its targets S, is built in
closed form into the superoperator of the block gate it follows. A channel
builds its Kraus operators only if something reads them. Every channel is
linear, so it also serves Hermitian operators that are not states;
``apply_channel`` returns an unchecked intermediate state, and the
evolution segment that applied it checks its own result once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as np

from ..errors import InvalidChannel, InvalidNoiseParameter
from .paulis import embed_operator  # noqa: F401  (unused; the benchmark tracer wraps this name)
from .states import DensityMatrix

if TYPE_CHECKING:  # avoid a runtime cycle with lgsim.mitigation
    from ..mitigation import ConfusionMatrix

# t1/t2 may be a single number (every qubit), a {qubit: value} mapping, or None
TimeSpec = Union[float, Mapping[int, float], None]


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


# one-qubit superoperators: the identity, and the reset |c><d| -> delta_cd I/2
_IDENTITY = np.eye(4)
_RESET = np.outer([1.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5])


def _on_block(local: Sequence[np.ndarray]) -> np.ndarray:
    """The superoperator of 1 or 2 adjacent qubits that applies the
    one-qubit superoperator ``local[k]`` to local qubit k: for two, one
    ``kron`` with its (a1, b1, a0, b0) axes swapped to (a1, a0, b1, b0)."""
    if len(local) == 1:
        return local[0]
    pair = np.kron(local[1], local[0]).reshape((2,) * 8)
    return pair.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def block_channel(
    qubits: tuple[int, ...],
    gate: np.ndarray,
    depolarizing,
    relaxation: Mapping[int, np.ndarray] | None = None,
) -> BlockChannel:
    """``gate`` on the adjacent ``qubits``, then each (p, targets) uniform
    depolarizing in ``depolarizing``, targets counted from ``qubits[0]``,
    then the one-qubit superoperator ``relaxation[k]`` on each local qubit k
    it names."""
    dim = len(gate)
    superop = np.multiply.outer(gate, gate.conj()).transpose(0, 2, 1, 3).reshape(dim * dim, -1)
    for p, targets in depolarizing:
        superop = _depolarizing_superop(len(qubits), targets, p) @ superop
    if relaxation:
        superop = _on_block([relaxation.get(k, _IDENTITY) for k in range(len(qubits))]) @ superop
    superop.setflags(write=False)
    return BlockChannel(qubits, superop)


@lru_cache(maxsize=64)
def _depolarizing_superop(m: int, targets: tuple[int, ...], p: float) -> np.ndarray:
    """(1 - p) rho + p Tr_S(rho) (x) I / 2^|S| on the targets S of m qubits:
    (1 - p) times the identity plus p times the reset of every target."""
    reset = _on_block([_RESET if k in targets else _IDENTITY for k in range(m)])
    return (1.0 - p) * np.eye(4**m) + p * reset


def apply_channel(rho: DensityMatrix, channel: BlockChannel) -> DensityMatrix:
    """Apply ``rho -> sum_k K rho K^dagger`` as one matmul of the
    superoperator with a copy of ``rho`` whose target row and column axes
    are moved to the front, and the copy back."""
    n, low, dim = rho.num_qubits, channel.target_qubits[0], 2 ** len(channel.target_qubits)
    if any(not 0 <= q < n for q in channel.target_qubits):
        raise InvalidChannel(f"channel targets {channel.target_qubits} outside register of {n}")
    shape = (2**n // (dim << low), dim, 2**low)
    view = rho.matrix.reshape(shape * 2).transpose(1, 4, 0, 2, 3, 5)
    out = (channel.superop @ view.reshape(dim * dim, -1)).reshape(view.shape)
    return DensityMatrix._trusted(n, out.transpose(2, 0, 3, 4, 1, 5).reshape(2**n, 2**n))


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
) -> list[BlockChannel]:
    """One fused damping-and-dephasing channel for each qubit with a t1 or a
    t2, for one evolution segment.

    With both times set the dephasing part uses the pure-dephasing time
    1/T_phi = 1/t2 - 1/(2 t1), so the channel reproduces the requested t1
    and t2 envelopes: decay g = 1 - exp(-duration/t1) and coherence
    c = sqrt(1 - g) exp(-duration/T_phi). Damping and dephasing of one qubit
    commute, so one superoperator, diag(1, c, c, 1 - g) with g at [0, 3],
    applies both. A per-qubit time for a qubit outside the register is an
    error, not a time for nothing.
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
        superop = np.diag([1.0, coherence, coherence, 1.0 - decay])
        superop[0, 3] = decay
        superop.setflags(write=False)
        channels.append(BlockChannel((q,), superop))
    return channels
