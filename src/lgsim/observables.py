"""Dichotomic observables and the two correlator engines.

``exact_correlator`` evaluates the trace formula

    C(t_i, t_j) = Tr[ Q_j E_{i->j}( M(rho_i) ) ],  rho_i = E_{0->i}(rho_0),
    M(rho) = sum_n q_n P_n rho P_n,

where E are the (possibly noisy) segment evolution maps, P_n the projection
branches of the first measurement and q_n = +/-1 their values. M is linear,
so one evolution of the signed operator M(rho_i) replaces one evolution per
branch; for a two-outcome collapse M(rho) = {Q_i, rho} / 2 (Emary, Lambert
and Nori, arXiv:1304.5133). When rho_0 has rank one and the noise model has
no channel (no t1, no t2, no gate depolarizing), every map is unitary and
the same value is C = sum_n q_n <phi_n| Q_j |phi_n> on state vectors, with
phi_n = U(t_j - t_i) P_n U(t_i) |psi_0>.

``exact_correlator`` takes a batch of schedules that share rho_0, the
dynamics and the noise model, and returns one estimate per schedule, in
order. What the batch shares: the register check of every schedule runs
before any evolution, the rank-one test runs once, each distinct first time
t_i gets one checked rho_i (or psi_i) from ``evolve_density``, and each
distinct first measurement (t_i, Q_i) one signed collapse M(rho_i) (or one
block of branch columns). Under Trotter dynamics a longer second segment
from the same first measurement continues from the end of a shorter one
(C13 from C12 in a tau scan); exact segments are not chained. On state
vectors the branch columns of all schedules are evolved in one stacked
block. What still runs per schedule: the check of its evolved second
segment (the branch norms must still sum to the norm of psi_i; M(rho_i)'s
image must stay Hermitian and keep its trace) and |C| <= 1.

``sampled_correlator`` computes the exact law of the recorded (Q_i, Q_j)
pair of the same protocol on density matrices, one evolved branch per
first-measurement outcome and each measurement's bit patterns optionally
passed through the readout map ``ConfusionMatrix.on_bits`` (per-bit flips
as a kron of 2x2 matrices, or an m-bit matrix as given), and draws all the
shot counts from it with one multinomial. The patterns are then
coarse-grained to signs by their parity, the same lumping that readout
mitigation applies to the readout map.

An observable is stored as a signed bit flip (``DichotomicObservable``), so
both engines apply it by indexing the state, never as a 2^n x 2^n matrix.

Collapse granularity: a single-qubit observable always collapses onto its
two outcome projectors. A multi-qubit parity observable built with
``bitwise_collapse=True`` (the default, matching a hardware readout of every
listed qubit) collapses the intermediate state onto the computational basis
of the measured qubits and only the recorded value is coarse-grained to a
sign; with ``bitwise_collapse=False`` the state collapses onto the two
parity subspaces themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core.evolution import (
    Dynamics,
    TrotterEvolution,
    _evolve_segment,
    _evolve_vectors,
    _has_channel,
    evolve_density,
)
from .core.states import NORM_TOL, DensityMatrix, PureState
from .errors import (
    InvalidGrid,
    InvalidObservable,
    InvalidState,
)

if TYPE_CHECKING:
    from .core.channels import NoiseModel
    from .mitigation import ConfusionMatrix

OUTCOME_KEYS = ("++", "+-", "-+", "--")

METHOD_EXACT = "exact"
METHOD_SAMPLED = "sampled"
METHOD_SAMPLED_MITIGATED = "sampled_mitigated"

# |Tr[rho^2] - Tr[rho]^2| below which a density matrix counts as rank one;
# the rounding of an exactly pure 12-qubit state reaches about 3e-15
_RANK_ONE_TOL = 1e-13


@dataclass(frozen=True)
class DichotomicObservable:
    """A +/-1-valued observable Q, the product of Z (``basis`` "z") or X
    (``basis`` "x") over ``qubits``, stored as a signed bit flip: Q[a, b] =
    signs[a] if b = a ^ flip, else 0. Both are derived, not settable:
    ``flip`` is 0 for z and the bitmask of ``qubits`` for x, and ``signs``
    is the parity sign of the bits of ``qubits`` for z and all ones for x.
    Only z observables support a bitwise collapse and bit-level readout
    error on more than one measured qubit.
    """

    label: str
    qubits: tuple[int, ...]
    num_qubits: int
    basis: str = "z"
    bitwise_collapse: bool = False
    flip: int = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        if not qubits or len(set(qubits)) != len(qubits):
            raise InvalidObservable(f"duplicate or empty qubit list {qubits}")
        if any(q < 0 or q >= self.num_qubits for q in qubits):
            raise InvalidObservable(f"qubits {qubits} outside register of {self.num_qubits}")
        if self.basis not in ("z", "x"):
            raise InvalidObservable(f"basis must be 'z' or 'x', got {self.basis!r}")
        if self.bitwise_collapse and self.basis != "z":
            raise InvalidObservable("a bitwise collapse needs a z-basis observable")
        object.__setattr__(self, "qubits", qubits)
        dim = 2**self.num_qubits
        if self.basis == "z":
            flip = 0
            signs = _pattern_signs(len(qubits))[_pattern_keys(dim, qubits)].astype(float)
        else:
            flip = sum(1 << q for q in qubits)
            signs = np.ones(dim)
        signs.setflags(write=False)
        object.__setattr__(self, "flip", flip)
        object.__setattr__(self, "signs", signs)


def parity_observable(
    qubits: list[int] | tuple[int, ...],
    num_qubits: int,
    bitwise_collapse: bool = True,
) -> DichotomicObservable:
    """+1 on even parity of the listed qubits' bits, -1 on odd.

    For one qubit this is the z observable; for two qubits it equals the
    two-qubit parity product of z operators.
    """
    qubits = tuple(int(q) for q in qubits)
    label = ("z" if len(qubits) == 1 else "parity") + "".join(f"_{q}" for q in qubits)
    return DichotomicObservable(
        label, qubits, num_qubits, bitwise_collapse=bitwise_collapse and len(qubits) > 1
    )


def sigma_z_observable(qubit: int, num_qubits: int) -> DichotomicObservable:
    return parity_observable([qubit], num_qubits)


def sigma_x_observable(qubit: int, num_qubits: int) -> DichotomicObservable:
    """x-basis observable: +1 on |+>, -1 on |->. Its readout bit is 0 for the
    +1 outcome, as if a basis-change gate preceded a z readout."""
    return DichotomicObservable(f"x_{qubit}", (qubit,), num_qubits, basis="x")


@dataclass(frozen=True)
class MeasurementSchedule:
    """Two measurement times with the observable read at each.

    The same-time pair (t, t) is allowed so tau = 0 grid points evaluate; the
    second time must never precede the first.
    """

    times: tuple[float, float]
    first_observable: DichotomicObservable
    second_observable: DichotomicObservable

    def __post_init__(self) -> None:
        t_i, t_j = (float(self.times[0]), float(self.times[1]))
        for name, t in (("first", t_i), ("second", t_j)):
            if not math.isfinite(t):
                raise InvalidGrid(f"{name} measurement time {t} is not finite")
        if t_i < 0:
            raise InvalidGrid(f"first measurement time {t_i} is negative")
        if t_j < t_i:
            raise InvalidGrid(f"times {self.times} are not ordered")
        object.__setattr__(self, "times", (t_i, t_j))
        if self.first_observable.num_qubits != self.second_observable.num_qubits:
            raise InvalidObservable("observables act on different register sizes")

    @property
    def t_first(self) -> float:
        return self.times[0]

    @property
    def t_second(self) -> float:
        return self.times[1]


@dataclass(frozen=True)
class CorrelatorEstimate:
    """One two-time correlator value with its statistical error.

    ``n_shots`` is 0 and ``std_error`` 0 for the exact engine; a single-shot
    estimate carries ``std_error = nan`` (undefined sample deviation).
    """

    value: float
    std_error: float
    n_shots: int
    method: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.method not in (METHOD_EXACT, METHOD_SAMPLED, METHOD_SAMPLED_MITIGATED):
            raise ValueError(f"unknown method {self.method!r}")
        slack = 1e-9
        if self.method != METHOD_EXACT and np.isfinite(self.std_error):
            slack = max(slack, 3.0 * self.std_error)
        if not abs(self.value) <= 1.0 + slack:  # NaN fails too
            raise ValueError(f"correlator value {self.value} outside [-1, 1] plus tolerance")

    def variance(self) -> float:
        return self.std_error**2 if np.isfinite(self.std_error) else float("nan")


def _integer(value, key: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int, or ``error`` naming ``key``. Integral floats such
    as 3.0 are accepted; 2.5, a non-finite value and a boolean are rejected,
    not truncated or read as 0 or 1. An int is returned as it is, so a
    128-bit seed keeps every digit."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    try:
        number = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and number.is_integer()):
        raise error(f"{key} must be an integer, got {value!r}")
    return int(number)


@dataclass
class CountsTable:
    """Raw shot counts over the four (Q_i, Q_j) outcome pairs.

    The first character of a key is the earlier measurement; vector order is
    ++, +-, -+, -- (index 2*bit(Q_i) + bit(Q_j) with bit(+1) = 0).
    """

    outcomes: dict[str, int]
    n_shots: int
    seed: int | None = None

    def __post_init__(self) -> None:
        counts = {k: _integer(self.outcomes.get(k, 0), f"count {k!r}") for k in OUTCOME_KEYS}
        if any(v < 0 for v in counts.values()):
            raise ValueError("negative counts")
        if sum(counts.values()) != self.n_shots:
            raise ValueError(
                f"counts sum {sum(counts.values())} does not match n_shots={self.n_shots}"
            )
        self.outcomes = counts

    def vector(self) -> np.ndarray:
        return np.array([self.outcomes[k] for k in OUTCOME_KEYS], dtype=float)

    def probabilities(self) -> np.ndarray:
        return self.vector() / self.n_shots

    def to_json(self) -> str:
        return json.dumps(
            {"outcomes": self.outcomes, "n_shots": self.n_shots, "seed": self.seed}
        )

    @classmethod
    def from_json(cls, text: str) -> "CountsTable":
        data = json.loads(text)
        return cls(data["outcomes"], data["n_shots"], data.get("seed"))


# ---------------------------------------------------------------------------
# correlator engines


def _check_register(rho0: DensityMatrix, sched: MeasurementSchedule) -> None:
    if sched.first_observable.num_qubits != rho0.num_qubits:
        raise InvalidObservable(
            f"observables on {sched.first_observable.num_qubits} qubits do not "
            f"match state register of {rho0.num_qubits}"
        )


@lru_cache(maxsize=64)
def _pattern_keys(dim: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Bit pattern of ``qubits`` (bit k from ``qubits[k]``) of every basis
    index; cached, so read-only."""
    idx = np.arange(dim)
    keys = np.zeros_like(idx)
    for k, q in enumerate(qubits):
        keys |= ((idx >> q) & 1) << k
    keys.setflags(write=False)
    return keys


@lru_cache(maxsize=16)
def _pattern_signs(m: int) -> np.ndarray:
    """+1 for even-popcount patterns, -1 for odd; cached, so read-only."""
    idx = np.arange(2**m)
    pop = np.zeros_like(idx)
    for k in range(m):
        pop ^= (idx >> k) & 1
    signs = np.where(pop == 0, 1, -1)
    signs.setflags(write=False)
    return signs


def _signed_collapse(rho: np.ndarray, obs: DichotomicObservable) -> np.ndarray:
    """M(rho) = sum_n q_n P_n rho P_n over the first measurement's branches.

    A bitwise collapse keeps the blocks of ``rho`` between basis states with
    the same bit pattern of the measured qubits, each signed by its pattern's
    parity. A two-outcome collapse gives {Q, rho} / 2: with s = ``signs`` and
    f = ``flip``, (Q rho)_ab = s_a rho_{a^f, b} and (rho Q)_ab = rho_{a, b^f} s_b,
    so a z observable (f = 0) gives M(rho)_ab = (s_a + s_b) / 2 rho_ab.
    """
    s = obs.signs
    if obs.bitwise_collapse and len(obs.qubits) > 1:
        keys = _pattern_keys(rho.shape[0], obs.qubits)
        return np.where(keys[:, None] == keys, s[:, None] * rho, 0.0)
    if not obs.flip:
        return 0.5 * (s[:, None] + s) * rho
    flipped = np.arange(rho.shape[0]) ^ obs.flip
    return 0.5 * (s[:, None] * rho[flipped] + rho[:, flipped] * s)


def _expectation(y: np.ndarray, obs: DichotomicObservable) -> float:
    """Re Tr[Q y] = Re sum_a signs[a] y[a ^ flip, a]."""
    idx = np.arange(y.shape[0])
    return float(np.real(obs.signs @ y[idx ^ obs.flip, idx]))


def _apply(obs: DichotomicObservable, x: np.ndarray) -> np.ndarray:
    """Q x for the columns of ``x``: (Q x)_a = signs[a] x[a ^ flip]."""
    if obs.flip:
        x = x[np.arange(x.shape[0]) ^ obs.flip]
    return obs.signs[:, None] * x


def _state_vector(rho: DensityMatrix) -> PureState | None:
    """The state vector of a rank-one ``rho``, up to a global phase, else None.

    rho is PSD, so it has rank one exactly when Tr[rho^2] = Tr[rho]^2; the
    vector is then the column of its largest diagonal entry over that
    entry's square root.
    """
    m = rho.matrix
    if abs(np.vdot(m, m).real - np.trace(m).real ** 2) > _RANK_ONE_TOL:
        return None
    k = int(np.argmax(np.diagonal(m).real))
    return PureState(rho.num_qubits, m[:, k] / math.sqrt(m[k, k].real))


def _branch_vectors(psi: np.ndarray, obs: DichotomicObservable) -> tuple[np.ndarray, np.ndarray]:
    """Branches P_n psi of a first measurement of ``obs`` as the columns of
    one block, and their values q_n: one branch per bit pattern of its qubits
    for a bitwise collapse, else (psi +/- Q psi) / 2 with values +1, -1."""
    column = psi[:, None]
    if obs.bitwise_collapse and len(obs.qubits) > 1:
        m = len(obs.qubits)
        keys = _pattern_keys(len(psi), obs.qubits)
        return np.where(keys[:, None] == np.arange(2**m), column, 0.0), _pattern_signs(m)
    flipped = _apply(obs, column)
    return np.hstack([column + flipped, column - flipped]) / 2, np.array([1.0, -1.0])


def _pure_values(
    first: dict[float, PureState], dynamics: Dynamics, schedules: tuple[MeasurementSchedule, ...]
) -> np.ndarray:
    """C = sum_n q_n <phi_n| Q_j |phi_n>, phi_n = U(t_j - t_i) P_n psi_i, for
    a noise model without channels.

    Each distinct first measurement (t_i, Q_i) gets one branch block, and
    the branch columns of every schedule go through one ``_evolve_vectors``
    call; columns of a same-time schedule are not evolved. The Q_j readout
    and the norm check run on all columns at once: the branch norms of each
    schedule must still sum to the norm of its psi_i (which comes checked
    from ``evolve_density``), within ``NORM_TOL``.
    """
    blocks: list[np.ndarray] = []
    branches: dict[tuple, tuple[np.ndarray, np.ndarray, float]] = {}
    readouts: dict[DichotomicObservable, int] = {}
    picked, durations, readers = [], [], []
    width = 0
    for sched in schedules:
        key = (sched.t_first, sched.first_observable)
        if key not in branches:
            psi_i = first[sched.t_first].amplitudes
            block, values = _branch_vectors(psi_i, key[1])
            columns = np.arange(width, width + len(values))
            branches[key] = (columns, values, np.vdot(psi_i, psi_i).real)
            blocks.append(block)
            width += len(values)
        picked.append(branches[key])
        durations.append(sched.t_second - sched.t_first)
        readers.append(readouts.setdefault(sched.second_observable, len(readouts)))
    columns, signs, expected = zip(*picked)
    counts = [len(c) for c in columns]
    starts = np.hstack(blocks)
    columns = np.concatenate(columns)
    durations = np.repeat(durations, counts)
    phi = starts[:, columns]
    moving = durations > 0
    if moving.any():
        phi[:, moving] = _evolve_vectors(starts, dynamics, durations[moving], columns[moving])
    q_phi = np.empty_like(phi)
    readers = np.repeat(readers, counts)
    for obs, index in readouts.items():
        read = readers == index
        q_phi[:, read] = _apply(obs, phi[:, read])
    first_column = np.cumsum(counts) - counts
    norms = np.add.reduceat(np.real(np.sum(phi.conj() * phi, axis=0)), first_column)
    drift = np.abs(norms - np.array(expected))
    if not np.all(drift <= NORM_TOL):  # NaN fails too
        raise InvalidState(
            f"evolved first-measurement branches drifted: norm {np.nanmax(drift)} "
            f"(tolerance {NORM_TOL})"
        )
    branch_values = np.real(np.sum(phi.conj() * q_phi, axis=0))
    return np.add.reduceat(np.concatenate(signs) * branch_values, first_column)


def _second_segments(
    signed: DensityMatrix,
    dynamics: Dynamics,
    durations: list[float],
    noise: "NoiseModel | None",
):
    """The signed operator ``signed`` evolved over each of the ascending
    ``durations``, unchecked. A Trotter segment continues from the end of
    the previous one, through the same steps in the same order. An exact
    segment starts from ``signed`` each time: with relaxation, relax(t) U(t)
    applied twice is not relax(2t) U(2t)."""
    current, done = signed, 0
    for duration in durations:
        if isinstance(dynamics, TrotterEvolution):
            steps = dynamics.segment_steps(duration)
            if steps > done:
                current = _evolve_segment(current, dynamics, (steps - done) * dynamics.dt, noise)
                done = steps
        elif duration > 0:
            current = _evolve_segment(signed, dynamics, duration, noise)
        yield current.matrix


def _density_values(
    first: dict[float, DensityMatrix],
    dynamics: Dynamics,
    schedules: tuple[MeasurementSchedule, ...],
    noise: "NoiseModel | None",
) -> np.ndarray:
    """C = Tr[Q_j E_{i->j}(M(rho_i))] on density matrices. Each distinct
    first measurement (t_i, Q_i) gets one signed collapse M(rho_i), evolved
    over its schedules' second segments in ascending order
    (``_second_segments``). Every image must stay Hermitian and keep its
    trace <Q_i>, both within ``NORM_TOL``."""
    groups: dict[tuple, list[int]] = {}
    for index, sched in enumerate(schedules):
        groups.setdefault((sched.t_first, sched.first_observable), []).append(index)
    values = np.empty(len(schedules))
    for (t_first, obs), members in groups.items():
        x = _signed_collapse(first[t_first].matrix, obs)
        signed = DensityMatrix._trusted(first[t_first].num_qubits, x)
        members.sort(key=lambda i: schedules[i].t_second)
        durations = [schedules[i].t_second - t_first for i in members]
        for index, y in zip(members, _second_segments(signed, dynamics, durations, noise)):
            deviation = float(np.abs(y - y.conj().T).max())
            drift = abs(np.trace(y) - np.trace(x))
            # written so that NaN or inf entries fail too
            if not (deviation <= NORM_TOL and drift <= NORM_TOL):
                raise InvalidState(
                    f"evolved first-measurement operator drifted: Hermiticity {deviation}, "
                    f"trace {drift} (tolerance {NORM_TOL})"
                )
            values[index] = _expectation(y, schedules[index].second_observable)
    return values


def exact_correlator(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    schedules: Sequence[MeasurementSchedule],
    noise: "NoiseModel | None" = None,
) -> tuple[CorrelatorEstimate, ...]:
    """Two-time correlators C = Tr[Q_j E_{i->j}(M(rho_i))] of a batch of
    schedules that share ``rho0``, the dynamics and the noise model, one per
    schedule, in order; the module docstring lists what the batch shares.
    Decoherence channels are interleaved between the evolution segments when
    a noise model is given; readout confusion never enters the exact value.

    A rank-one rho0 under a noise model without channels is evaluated on
    state vectors (``_pure_values``), else on density matrices
    (``_density_values``). The branch states P_n rho_i P_n are PSD because
    rho_i is, and every segment map is unitary or a complete channel, so
    they stay PSD without a check of their own; |C| <= 1 is checked by
    ``CorrelatorEstimate``.
    """
    schedules = tuple(schedules)
    for sched in schedules:
        _check_register(rho0, sched)
    if not schedules:
        return ()
    start = None if _has_channel(noise) else _state_vector(rho0)
    start = rho0 if start is None else start
    first = {}
    for sched in schedules:
        if sched.t_first not in first:
            first[sched.t_first] = evolve_density(start, dynamics, 0.0, sched.t_first, noise)
    if isinstance(start, PureState):
        values = _pure_values(first, dynamics, schedules)
    else:
        values = _density_values(first, dynamics, schedules, noise)
    return tuple(CorrelatorEstimate(float(v), 0.0, 0, METHOD_EXACT) for v in values)


def _readout_on(obs: DichotomicObservable, readout: "ConfusionMatrix") -> np.ndarray:
    """Readout map on the bit patterns of ``obs``'s qubits. Reading several
    qubits bit by bit needs computational-basis projectors."""
    if len(obs.qubits) > 1 and obs.basis != "z":
        raise InvalidObservable("bit-level readout error needs computational-basis observables")
    return readout.on_bits(len(obs.qubits))


def _to_signs(bits: int) -> np.ndarray:
    """(2^bits, 2) coarse-graining of bit patterns to signs, +1 first."""
    return np.eye(2)[(1 - _pattern_signs(bits)) // 2]


def _true_law(y: np.ndarray, obs: DichotomicObservable, bits: int) -> np.ndarray:
    """Weights Tr[P y] of the outcomes of ``obs`` on the operator ``y``: one
    per bit pattern of its qubits when ``bits`` > 1, else plus then minus,
    (Tr y +/- Tr[Q y]) / 2."""
    if bits > 1:
        keys = _pattern_keys(y.shape[0], obs.qubits)
        return np.bincount(keys, weights=np.real(np.diagonal(y)), minlength=2**bits)
    total, value = np.real(np.trace(y)), _expectation(y, obs)
    return np.array([total + value, total - value]) / 2


def _collapse_branches(rho: np.ndarray, obs: DichotomicObservable) -> list[np.ndarray]:
    """Unnormalised branches P_a rho P_a of a first measurement of ``obs``:
    one per bit pattern of its qubits for a bitwise collapse, else plus then
    minus with P = (I +/- Q) / 2.

    A z collapse keeps the blocks of ``rho`` within one bit pattern or one
    sign. An x collapse is P rho P = (rho +/- 2 M(rho) + Q rho Q) / 4, with
    (Q rho Q)_ab = s_a rho_{a^f, b^f} s_b.
    """
    if obs.flip:
        s, flipped = obs.signs, np.arange(rho.shape[0]) ^ obs.flip
        collapse = _signed_collapse(rho, obs)
        conjugated = s[:, None] * rho[np.ix_(flipped, flipped)] * s
        return [(rho + 2 * sign * collapse + conjugated) / 4 for sign in (1, -1)]
    if obs.bitwise_collapse and len(obs.qubits) > 1:
        labels, count = _pattern_keys(rho.shape[0], obs.qubits), 2 ** len(obs.qubits)
    else:
        labels, count = obs.signs < 0, 2
    return [np.where((labels == a)[:, None] & (labels == a), rho, 0.0) for a in range(count)]


def _recorded_law(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    sched: MeasurementSchedule,
    noise: "NoiseModel | None" = None,
) -> np.ndarray:
    """Exact law of the recorded (Q_i, Q_j) pair, in ``OUTCOME_KEYS`` order.

    Each first-measurement branch P_a rho_i P_a is evolved over the second
    segment, and the joint law of the true outcomes is read from the evolved
    branches. A measurement is resolved into bit patterns where a readout
    flips bits or a bitwise collapse needs them. The law must be
    non-negative and sum to 1 within ``NORM_TOL``; it then goes through the
    readout map of each measurement and is coarse-grained to signs.
    """
    _check_register(rho0, sched)
    obs1, obs2 = sched.first_observable, sched.second_observable
    readout = noise.readout_confusion if noise is not None else None
    if readout is not None:
        maps = [_readout_on(obs, readout) for obs in (obs1, obs2)]
    m1, m2 = len(obs1.qubits), len(obs2.qubits)
    bitwise = obs1.bitwise_collapse and m1 > 1
    bits1 = m1 if m1 > 1 and (readout is not None or bitwise) else 1
    bits2 = m2 if m2 > 1 and readout is not None else 1

    rho_i = evolve_density(rho0, dynamics, 0.0, sched.t_first, noise).matrix
    branches = _collapse_branches(rho_i, obs1)
    duration = sched.t_second - sched.t_first
    rows = []
    for branch in branches:
        if duration > 0:
            branch = DensityMatrix._trusted(rho0.num_qubits, branch)
            branch = _evolve_segment(branch, dynamics, duration, noise).matrix
        rows.append(_true_law(branch, obs2, bits2))
    law = np.array(rows)
    if bits1 > 1 and not bitwise:
        # a two-projector collapse read bit by bit: the pattern follows the
        # diagonal of rho_i, the second outcome the branch of its sign
        totals = law.sum(axis=1, keepdims=True)
        given = np.divide(law, totals, out=np.zeros_like(law), where=totals > 0)
        sign_index = (1 - _pattern_signs(bits1)) // 2
        law = _true_law(rho_i, obs1, bits1)[:, None] * given[sign_index]
    total = law.sum()
    # written so that NaN entries fail too
    if not (law.min() >= -NORM_TOL and abs(total - 1.0) <= NORM_TOL):
        raise InvalidState(
            f"recorded outcome law is no distribution: smallest entry {law.min()}, "
            f"sum {total} (tolerance {NORM_TOL})"
        )
    if readout is not None:
        law = maps[0] @ law @ maps[1].T
    pairs = np.clip(_to_signs(bits1).T @ law @ _to_signs(bits2), 0.0, None).ravel()
    return pairs / pairs.sum()


def sampled_correlator(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    sched: MeasurementSchedule,
    n_shots: int,
    noise: "NoiseModel | None" = None,
    seed: int = 0,
) -> tuple[CorrelatorEstimate, CountsTable]:
    """Shot-sampled two-time correlator.

    The recorded (Q_i, Q_j) law is computed exactly (``_recorded_law``,
    with every read bit passed through ``noise.readout_confusion`` when it
    is set), and all ``n_shots`` counts are drawn from it at once by one
    multinomial, so the cost does not depend on the number of shots. The
    value is the mean of the +/-1 products and ``std_error`` their sample
    deviation over sqrt(n), sqrt((1 - value^2) / (n - 1)); it is NaN for a
    single shot.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    law = _recorded_law(rho0, dynamics, sched, noise)
    counts = np.random.default_rng(seed).multinomial(n_shots, law)
    value = float(counts @ np.array([1, -1, -1, 1])) / n_shots
    std_error = math.sqrt((1.0 - value**2) / (n_shots - 1)) if n_shots > 1 else math.nan
    table = CountsTable(dict(zip(OUTCOME_KEYS, (int(c) for c in counts))), n_shots, seed=seed)
    return CorrelatorEstimate(value, std_error, n_shots, METHOD_SAMPLED), table
