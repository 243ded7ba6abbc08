"""Kraus channels and the composite noise model.

Decoherence is applied as discrete channels between evolution segments, not
by integrating a master equation. Relaxation (T1) is available but only acts
when a qubit has an explicit t1 entry; the default model is pure dephasing.

Every channel acts as a local superoperator: its Kraus operators are folded
once into S = sum_k K (x) conj(K), a 4^m x 4^m matrix on the m target qubits,
which multiplies the target row and column axes of ``rho`` without building
any full-register operator. Channel completeness is checked when a channel
is built; ``apply_channel`` returns an unchecked intermediate state, and the
evolution segment that applied it checks its own result once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Union

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


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply ``rho -> sum_k K rho K^dagger`` as the channel's local
    superoperator on the target row and column axes of ``rho``."""
    n = rho.num_qubits
    if any(not 0 <= q < n for q in channel.target_qubits):
        raise InvalidChannel(
            f"channel targets {channel.target_qubits} outside register "
            f"of {n} qubits"
        )
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


@lru_cache(maxsize=4096)
def depolarizing_channel(p: float, qubits: tuple[int, ...]) -> KrausChannel:
    """Uniform depolarizing with probability ``p`` on one or two qubits.

    At p = 1 a single qubit is replaced by the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidNoiseParameter(f"depolarizing probability {p} outside [0, 1]")
    qubits = tuple(qubits)
    m = len(qubits)
    if m not in (1, 2):
        raise InvalidChannel("depolarizing channel supports one or two qubits")
    n_paulis = 4**m
    labels = ["I", "X", "Y", "Z"]
    ops = []
    for idx in range(n_paulis):
        factors = []
        rem = idx
        for _ in range(m):
            factors.append(labels[rem % 4])
            rem //= 4
        mat = np.array([[1.0 + 0j]])
        for c in reversed(factors):
            mat = np.kron(mat, PAULI_MATRICES[c])
        weight = 1.0 - p * (n_paulis - 1) / n_paulis if idx == 0 else p / n_paulis
        ops.append(math.sqrt(weight) * mat)
    return KrausChannel(qubits, tuple(ops))


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
