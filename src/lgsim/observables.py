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

``sampled_correlator`` computes the exact law of the recorded (Q_i, Q_j)
pair of the same protocol from the evolved branches themselves (phi_n on
the same condition, else E_{i->j}(P_n rho_i P_n)), passes each
measurement's bit patterns through the readout map
``ConfusionMatrix.on_bits`` when one is set (per-bit flips as a kron of 2x2
matrices, or an m-bit matrix as given), coarse-grains them to signs by
their parity (the lumping that readout mitigation applies to the readout
map), and draws each schedule's shot counts with one multinomial, as a
2-bit ``CountsVector`` (the counts type that mitigation reads too).

Both engines take a batch of schedules that share rho_0, the dynamics and
the noise model, and return one result per schedule, in order. The batch
shares the register checks and the rank-one test, one checked rho_i (or
psi_i) from ``evolve_density`` per distinct first time t_i, and one
collapse per distinct first measurement (t_i, Q_i). On state vectors the
branch columns of all schedules go through one stacked evolution.

On density matrices under Trotter dynamics the exact engine reads C as
Tr[E^dagger(Q_j) M(rho_i)]: Q_j runs backwards through the transposed Pauli
transfer matrices, only on the qubits its light cone has reached, and a
longer second segment continues the image of a shorter one (C13 from the
image that C12 and C23 share in a tau scan). Under exact dynamics, and for
the sampled law, M(rho_i) or each branch runs forward instead. The readout
maps run once per (Q_i, Q_j) pair on its stacked laws; the checks, |C| <= 1
and the draw stay per schedule.

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

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core.channels import PauliVector, _adjoint_pass, _block_pass
from .core.evolution import (
    Dynamics,
    TrotterEvolution,
    _evolve_segment,
    _evolve_vectors,
    _has_channel,
    evolve_density,
)
from .core.states import NORM_TOL, DensityMatrix, PureState, _hermiticity
from .errors import (
    InvalidChannel,
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
    Only z observables support a bitwise collapse (kept only on more than
    one qubit) and bit-level readout error on more than one measured qubit.
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
        object.__setattr__(self, "bitwise_collapse", self.bitwise_collapse and len(qubits) > 1)
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
    return DichotomicObservable(label, qubits, num_qubits, bitwise_collapse=bitwise_collapse)


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
    as 3.0 are accepted; 2.5, a non-finite value, a boolean and text such as
    "3" are rejected, not truncated or read as numbers. An int is returned
    as it is, so a 128-bit seed keeps every digit."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    try:
        number = math.nan if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and number.is_integer()):
        raise error(f"{key} must be an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class CountsVector:
    """Nonnegative shot counts of the 2^num_bits bit patterns, with their
    total and, for drawn counts, the seed of the draw. Entry i counts the
    pattern that spells i in binary, most significant bit first. The sampled
    engine's 2-bit counts index the recorded (Q_i, Q_j) pair as 2*bit(Q_i) +
    bit(Q_j) with bit(+1) = 0, which is ``OUTCOME_KEYS`` order: "++" is
    "00", "+-" "01", "-+" "10" and "--" "11".
    """

    num_bits: int
    counts: tuple[int, ...]
    total: int
    seed: int | None = None

    def __post_init__(self) -> None:
        # an entry's name is only built for an error
        counts = tuple(
            c if type(c) is int and 0 <= c <= sys.float_info.max
            else _count(c, f"count '{i:0{self.num_bits}b}'")
            for i, c in enumerate(self.counts)
        )
        if len(counts) != 2**self.num_bits:
            raise ValueError(f"expected {2**self.num_bits} entries, got {len(counts)}")
        total = _count(self.total, "the counts' total")
        if sum(counts) != total:
            raise ValueError(f"counts sum {sum(counts)} != total {total}")
        if total == 0:
            raise ValueError("empty counts: every entry is 0")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @classmethod
    def from_dict(cls, num_bits: int, table: dict[str, int]) -> "CountsVector":
        """Counts keyed by ``num_bits``-bit strings; absent keys count 0."""
        _check_bit_keys(num_bits, table)
        counts = [0] * (2**num_bits)
        for key, c in table.items():
            counts[int(key, 2)] = _count(c, f"count {key!r}")
        return cls(num_bits, tuple(counts), sum(counts))

    @classmethod
    def from_outcomes(cls, outcomes: dict[str, int], n_shots: int) -> "CountsVector":
        """2-bit counts keyed by the sign pairs of ``OUTCOME_KEYS``, earlier
        measurement first (absent keys count 0), with their shot count. A
        bad count is named by its sign key."""
        if not isinstance(outcomes, dict):
            raise ValueError(f"'outcomes' must map sign pairs to counts, got {outcomes!r}")
        for key in outcomes:
            if key not in OUTCOME_KEYS:
                raise ValueError(f"outcome key {key!r} is not one of {', '.join(OUTCOME_KEYS)}")
        n_shots = _integer(n_shots, "n_shots")
        if n_shots < 1:
            raise ValueError(f"empty counts: n_shots must be at least 1, got {n_shots}")
        counts = tuple(_count(outcomes.get(k, 0), f"count {k!r}") for k in OUTCOME_KEYS)
        return cls(2, counts, n_shots)

    def to_dict(self) -> dict[str, int]:
        return {format(i, f"0{self.num_bits}b"): c for i, c in enumerate(self.counts)}


def _count(value, key: str) -> int:
    """``value`` as a nonnegative ``_integer`` that a float can hold, else ValueError."""
    count = _integer(value, key)
    if not 0 <= count <= sys.float_info.max:
        raise ValueError(f"{key} is negative or overflows a float")
    return count


def _check_bit_keys(num_bits: int, keys) -> None:
    """Reject a counts key that is not a ``num_bits``-bit string, naming it;
    no 2^num_bits table is built."""
    for key in keys:
        if len(key) != num_bits or set(key) - {"0", "1"}:
            raise ValueError(f"counts key {key!r} is not a {num_bits}-bit string")


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
    keys = sum(((idx >> q) & 1) << k for k, q in enumerate(qubits))
    keys.setflags(write=False)
    return keys


@lru_cache(maxsize=16)
def _pattern_signs(m: int) -> np.ndarray:
    """+1 for even-popcount patterns, -1 for odd; cached, so read-only."""
    signs = 1 - 2 * (np.array([bin(i).count("1") for i in range(2**m)]) & 1)
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
    if obs.bitwise_collapse:
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
    if obs.bitwise_collapse:
        m = len(obs.qubits)
        keys = _pattern_keys(len(psi), obs.qubits)
        return np.where(keys[:, None] == np.arange(2**m), column, 0.0), _pattern_signs(m)
    flipped = _apply(obs, column)
    return np.hstack([column + flipped, column - flipped]) / 2, np.array([1.0, -1.0])


def _first_states(rho0: DensityMatrix, dynamics: Dynamics, schedules: tuple, noise) -> dict:
    """The register checks, then rho_i (psi_i on state vectors) per distinct t_i."""
    for sched in schedules:
        _check_register(rho0, sched)
    start = (None if _has_channel(noise) else _state_vector(rho0)) or rho0
    times = dict.fromkeys(sched.t_first for sched in schedules)
    return {t: evolve_density(start, dynamics, 0.0, t, noise) for t in times}


def _evolved_branches(
    first: dict[float, PureState], dynamics: Dynamics, schedules: tuple[MeasurementSchedule, ...]
) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """|phi_n|^2 of the branches phi_n = U(t_j - t_i) P_n psi_i of every
    schedule as the columns of one block, schedule by schedule; their values
    q_n; the column count of each schedule; and Re <phi_n| Q_j |phi_n>."""
    blocks: list[np.ndarray] = []
    branches: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    readouts: dict[DichotomicObservable, int] = {}
    picked, durations, readers = [], [], []
    width = 0
    for sched in schedules:
        key = (sched.t_first, sched.first_observable)
        if key not in branches:
            block, values = _branch_vectors(first[sched.t_first].amplitudes, key[1])
            branches[key] = (np.arange(width, width + len(values)), values)
            blocks.append(block)
            width += len(values)
        picked.append(branches[key])
        durations.append(sched.t_second - sched.t_first)
        readers.append(readouts.setdefault(sched.second_observable, len(readouts)))
    columns, signs = zip(*picked)
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
    values = np.real(np.sum(phi.conj() * q_phi, axis=0))
    return np.real(phi.conj() * phi), np.concatenate(signs), counts, values


def _pure_values(
    first: dict[float, PureState], dynamics: Dynamics, schedules: tuple[MeasurementSchedule, ...]
) -> np.ndarray:
    """C = sum_n q_n <phi_n| Q_j |phi_n> (``_evolved_branches``). The branch
    norms of each schedule must still sum to the norm of its checked psi_i,
    within ``NORM_TOL``."""
    weights, signs, counts, branch_values = _evolved_branches(first, dynamics, schedules)
    expected = {t: np.vdot(psi.amplitudes, psi.amplitudes).real for t, psi in first.items()}
    first_column = np.cumsum(counts) - counts
    norms = np.add.reduceat(weights.sum(axis=0), first_column)
    drift = np.abs(norms - [expected[sched.t_first] for sched in schedules])
    if not np.all(drift <= NORM_TOL):  # NaN fails too
        raise InvalidState(
            f"evolved first-measurement branches drifted: norm {np.nanmax(drift)} "
            f"(tolerance {NORM_TOL})"
        )
    return np.add.reduceat(signs * branch_values, first_column)


def _second_images(first, dynamics, schedules, noise, starts, read):
    """(index, reads) per schedule: ``read(Q_j, y)`` of each image y, unchecked,
    of the list ``starts(rho_i, Q_i)`` evolved over its second segment. A
    Trotter segment continues from the last one in the Pauli form that
    segment returned, so a batch runs the passes of its one-schedule calls
    on the same vectors, and each image is converted back once, to be read;
    an exact segment starts afresh (relax(t) U(t) twice is not relax(2t) U(2t))."""
    trotter = isinstance(dynamics, TrotterEvolution)
    groups: dict[tuple, list[int]] = {}
    for index, sched in enumerate(schedules):
        groups.setdefault((sched.t_first, sched.first_observable), []).append(index)
    for (t_first, obs), members in groups.items():
        n, done = first[t_first].num_qubits, 0
        current = [DensityMatrix._trusted(n, x) for x in starts(first[t_first].matrix, obs)]
        for index in sorted(members, key=lambda i: schedules[i].t_second):
            duration = schedules[index].t_second - t_first
            steps = dynamics.segment_steps(duration) if trotter else 0
            for k, y in enumerate(current if steps > done else ()):
                current[k] = _evolve_segment(y, dynamics, (steps - done) * dynamics.dt, noise)
            done, fresh = max(done, steps), duration > 0 and not trotter
            images = (
                (_evolve_segment(x, dynamics, duration, noise) if fresh else x).matrix
                for x in current
            )
            # map holds no image past its read; a comprehension variable would
            yield index, list(map(partial(read, schedules[index].second_observable), images))


# P sigma = phase * P' for sigma = Z or X and each one-qubit factor P of
# I, X, Y, Z: row P holds the phase in column P'
_TIMES = {
    "z": np.array([[0, 0, 0, 1], [0, 0, -1j, 0], [0, 1j, 0, 0], [1, 0, 0, 0]]),
    "x": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]]),
}


def _pauli_collapse(r: np.ndarray, obs: DichotomicObservable) -> np.ndarray:
    """``_signed_collapse`` on the Pauli coefficients r_P = Tr(P rho). For a
    two-outcome collapse Tr(P M(rho)) = Re Tr(P Q rho), and P Q is a phase
    times the string with each factor of P on the qubits of Q multiplied by
    sigma (``_TIMES``): the strings that commute with Q, times Q, with a
    sign. On one qubit that is the real one-qubit map, I <-> Z for z and
    I <-> X for x, with the other two factors sent to 0; a bitwise collapse
    is the z map on each of its qubits."""
    times = _TIMES[obs.basis]
    if obs.bitwise_collapse or len(obs.qubits) == 1:
        times = times.real
    for q in obs.qubits:
        r = _block_pass(r, times, q)
    return r.real


def _heisenberg_image(image: tuple, channels: tuple, steps: int) -> tuple:
    """``steps`` Trotter steps of the adjoint map on ``image`` = (c, lo, hi),
    the coefficients c_P of an operator sum_P c_P P that is I outside qubits
    lo..hi (``_adjoint_pass``): each step runs the transposed transfer
    matrices of ``channels`` in reverse order."""
    for _ in range(steps):
        for ch in reversed(channels):
            image = _adjoint_pass(*image, ch)
    return image


def _heisenberg_values(first, dynamics: TrotterEvolution, schedules, noise) -> np.ndarray:
    """C = Tr[E^dagger(Q_j) M(rho_i)], with E the steps of the second segment:
    the real dot product of the coefficients of E^dagger(Q_j)
    (``_heisenberg_image``) with those of M(rho_i) (``_pauli_collapse``) on
    the qubits its light cone has reached. The images of one Q_j continue
    from shorter step counts to longer ones, so a batch runs the passes of
    its one-schedule calls on the same vectors. A channel outside the light
    cone is skipped, which needs row I of its transfer matrix to be e_I: a
    channel that is not trace-preserving is an error."""
    steps = [dynamics.segment_steps(s.t_second - s.t_first) for s in schedules]
    channels = dynamics.block_channels(noise) if any(steps) else ()
    for ch in channels:
        row = ch.transfer_matrix[0]
        if not np.abs(row - np.eye(len(row))[0]).max() <= 1e-12:  # NaN fails too
            raise InvalidChannel(f"channel on qubits {ch.target_qubits} is not trace-preserving")
    collapsed = {
        key: _pauli_collapse(PauliVector.of(first[key[0]]).coefficients, key[1])
        for key in dict.fromkeys((s.t_first, s.first_observable) for s in schedules)
    }
    groups: dict[DichotomicObservable, list[tuple[int, int]]] = {}
    for index, sched in enumerate(schedules):
        groups.setdefault(sched.second_observable, []).append((steps[index], index))
    values = np.empty(len(schedules))
    for obs, members in groups.items():
        lo, hi = min(obs.qubits), max(obs.qubits)
        c = np.zeros(4 ** (hi - lo + 1))
        c[sum((3 if obs.basis == "z" else 1) * 4 ** (q - lo) for q in obs.qubits)] = 1.0
        image, done = (c, lo, hi), 0
        for count, index in sorted(members):
            if count > done:
                image, done = _heisenberg_image(image, channels, count - done), count
            c, lo, hi = image
            r = collapsed[schedules[index].t_first, schedules[index].first_observable]
            values[index] = c @ r[: 4 ** (hi + 1) : 4**lo]  # the strings that are I off lo..hi
    return values


def _density_values(
    first: dict[float, DensityMatrix],
    dynamics: Dynamics,
    schedules: tuple[MeasurementSchedule, ...],
    noise: "NoiseModel | None",
) -> np.ndarray:
    """C on density matrices. Under Trotter dynamics it is read from the
    backward images of Q_j on its light cone (``_heisenberg_values``).
    Under exact dynamics it is Tr[Q_j E(M(rho_i))], with M(rho_i) evolved
    forward over a fresh segment per schedule (``_second_images``); every
    such image must stay Hermitian and keep its trace <Q_i>, both within
    ``NORM_TOL``."""
    if isinstance(dynamics, TrotterEvolution):
        return _heisenberg_values(first, dynamics, schedules, noise)
    values = np.empty(len(schedules))
    images = _second_images(
        first, dynamics, schedules, noise, lambda rho, obs: [_signed_collapse(rho, obs)],
        lambda obs, y: (_hermiticity(y), np.trace(y), _expectation(y, obs)),
    )
    for index, [(deviation, trace, value)] in images:
        sched = schedules[index]
        drift = abs(trace - _expectation(first[sched.t_first].matrix, sched.first_observable))
        # written so that NaN or inf entries fail too
        if not (deviation <= NORM_TOL and drift <= NORM_TOL):
            raise InvalidState(
                f"evolved first-measurement operator drifted: Hermiticity {deviation}, "
                f"trace {drift} (tolerance {NORM_TOL})"
            )
        values[index] = value
    return values


def exact_correlator(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    schedules: Sequence[MeasurementSchedule],
    noise: "NoiseModel | None" = None,
) -> tuple[CorrelatorEstimate, ...]:
    """Two-time correlators C = Tr[Q_j E_{i->j}(M(rho_i))] of a batch of
    schedules, one per schedule, in order: on state vectors from the evolved
    branches (``_pure_values``), else on density matrices
    (``_density_values``), as Tr[E^dagger(Q_j) M(rho_i)] from the backward
    images of Q_j under Trotter dynamics and forward from a fresh segment
    per schedule under exact dynamics. Decoherence channels are interleaved
    between the evolution segments when a noise model is given; readout
    confusion never enters the exact value. The branch states P_n rho_i P_n
    are PSD because the checked rho_i is, and every segment map is unitary
    or a complete channel, so they stay PSD without a check of their own;
    |C| <= 1 is checked by ``CorrelatorEstimate``.
    """
    schedules = tuple(schedules)
    first = _first_states(rho0, dynamics, schedules, noise)
    if schedules and isinstance(first[schedules[0].t_first], PureState):
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


def _true_law(diagonals, values, obs: DichotomicObservable, bits: int) -> np.ndarray:
    """Weights Tr[P y] of the outcomes of ``obs`` on operators y, one row
    each, from their diagonals (the columns of ``diagonals``): one per bit
    pattern of its qubits when ``bits`` > 1, else plus then minus,
    (Tr y +/- Tr[Q y]) / 2 with Tr[Q y] from ``values``."""
    if bits > 1:
        return diagonals.T @ np.eye(2**bits)[_pattern_keys(len(diagonals), obs.qubits)]
    totals = diagonals.sum(axis=0)
    return np.column_stack([totals + values, totals - values]) / 2


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
    if obs.bitwise_collapse:
        labels, count = _pattern_keys(rho.shape[0], obs.qubits), 2 ** len(obs.qubits)
    else:
        labels, count = obs.signs < 0, 2
    return [np.where((labels == a)[:, None] & (labels == a), rho, 0.0) for a in range(count)]


def _recorded_laws(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    schedules: Sequence[MeasurementSchedule],
    noise: "NoiseModel | None" = None,
) -> np.ndarray:
    """Exact laws of the recorded (Q_i, Q_j) pairs of a batch, one row per
    schedule in ``OUTCOME_KEYS`` order, read from the diagonals and Tr[Q_j y]
    of its evolved branches y. A measurement is resolved into bit patterns
    where a readout flips bits or a bitwise collapse needs them. Each law
    must be a distribution within ``NORM_TOL``; it then goes through the
    readout map of each measurement and is coarse-grained to signs."""
    schedules = tuple(schedules)
    readout = noise.readout_confusion if noise is not None else None
    # readout maps first, so an unreadable observable fails before any evolution
    observed = [(s.first_observable, s.second_observable) for s in schedules if readout is not None]
    maps = {obs: _readout_on(obs, readout) for pair in observed for obs in pair}
    first = _first_states(rho0, dynamics, schedules, noise)
    pure = bool(schedules) and isinstance(first[schedules[0].t_first], PureState)
    if pure:
        weights, _, counts, values = _evolved_branches(first, dynamics, schedules)
        ends = np.cumsum(counts)[:-1]
        branches = list(zip(np.split(weights, ends, axis=1), np.split(values, ends)))
    else:
        branches = [()] * len(schedules)
        images = _second_images(
            first, dynamics, schedules, noise, _collapse_branches,
            lambda obs, y: (np.real(np.diagonal(y)).copy(), _expectation(y, obs)),
        )
        for index, reads in images:
            diagonals, values = zip(*reads)
            branches[index] = (np.stack(diagonals, axis=1), np.array(values))
    groups: dict[tuple, dict[int, np.ndarray]] = {}
    for index, (sched, (diagonals, values)) in enumerate(zip(schedules, branches)):
        obs1, obs2 = sched.first_observable, sched.second_observable
        m1, m2 = len(obs1.qubits), len(obs2.qubits)
        bits1 = m1 if m1 > 1 and (readout is not None or obs1.bitwise_collapse) else 1
        bits2 = m2 if m2 > 1 and readout is not None else 1
        law = _true_law(diagonals, values, obs2, bits2)
        if bits1 > 1 and not obs1.bitwise_collapse:
            # a two-projector collapse read bit by bit: the pattern follows the
            # diagonal of rho_i, the second outcome the branch of its sign
            totals = law.sum(axis=1, keepdims=True)
            given = np.divide(law, totals, out=np.zeros_like(law), where=totals > 0)
            state = first[sched.t_first]
            diagonal = np.abs(state.amplitudes) ** 2 if pure else np.real(np.diagonal(state.matrix))
            pattern = _true_law(diagonal[:, None], None, obs1, bits1)[0]
            law = pattern[:, None] * given[(1 - _pattern_signs(bits1)) // 2]
        total = law.sum()
        # written so that NaN entries fail too
        if not (law.min() >= -NORM_TOL and abs(total - 1.0) <= NORM_TOL):
            raise InvalidState(
                f"recorded outcome law is no distribution: smallest entry {law.min()}, "
                f"sum {total} (tolerance {NORM_TOL})"
            )
        groups.setdefault((obs1, obs2, bits1, bits2), {})[index] = law
    # the readout and the coarse-graining to signs, one stacked pass per group
    to_signs = {bits: _to_signs(bits) for key in groups for bits in key[2:]}
    laws = np.empty((len(schedules), len(OUTCOME_KEYS)))
    for (obs1, obs2, bits1, bits2), group in groups.items():
        law = np.stack(list(group.values()))
        if readout is not None:
            law = maps[obs1] @ law @ maps[obs2].T
        pairs = np.clip(to_signs[bits1].T @ law @ to_signs[bits2], 0.0, None).reshape(-1, 4)
        laws[list(group)] = pairs / pairs.sum(axis=1, keepdims=True)
    return laws


def sampled_correlator(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    schedules: Sequence[MeasurementSchedule],
    n_shots: int,
    noise: "NoiseModel | None",
    seeds: Sequence[int | None],
) -> tuple[tuple[CorrelatorEstimate, CountsVector], ...]:
    """Shot-sampled two-time correlators of a batch of schedules, one
    (estimate, counts) pair per schedule, in order; ``noise`` may be None.
    All ``n_shots`` counts of a schedule are drawn from its exact recorded
    law (``_recorded_laws``, read through ``noise.readout_confusion`` when
    it is set) by one multinomial seeded by its entry in ``seeds``. The
    value is the mean of the +/-1 products and ``std_error`` their sample
    deviation over sqrt(n), sqrt((1 - value^2) / (n - 1)); NaN for one shot.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    schedules, seeds = tuple(schedules), tuple(seeds)
    if len(seeds) != len(schedules):
        raise ValueError(f"{len(seeds)} seeds for {len(schedules)} schedules")
    drawn = []
    for law, seed in zip(_recorded_laws(rho0, dynamics, schedules, noise), seeds):
        counts = np.random.default_rng(seed).multinomial(n_shots, law)
        value = float(counts @ np.array([1, -1, -1, 1])) / n_shots
        std_error = math.sqrt((1.0 - value**2) / (n_shots - 1)) if n_shots > 1 else math.nan
        estimate = CorrelatorEstimate(value, std_error, n_shots, METHOD_SAMPLED)
        drawn.append((estimate, CountsVector(2, tuple(counts.tolist()), n_shots, seed)))
    return tuple(drawn)
