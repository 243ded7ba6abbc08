"""Dichotomic observables and the two correlator engines.

``exact_correlator`` evaluates the trace formula

    C(t_i, t_j) = Tr[ Q_j E_{i->j}( M(rho_i) ) ],  rho_i = E_{0->i}(rho_0),
    M(rho) = sum_n q_n P_n rho P_n,

where E are the (possibly noisy) segment evolution maps, P_n the projection
branches of the first measurement and q_n = +/-1 their values. M is linear,
so one read of the signed operator M(rho_i) replaces one read per branch;
for a two-outcome collapse M(rho) = {Q_i, rho} / 2 (Emary, Lambert
and Nori, arXiv:1304.5133). When rho_0 has rank one and the noise model has
no channel (no t1, no t2, no gate depolarizing), every map is unitary and
the same value is C = sum_n q_n <phi_n| Q_j |phi_n> on state vectors, with
phi_n = U(t_j - t_i) P_n U(t_i) |psi_0>.

``sampled_correlator`` computes the exact law of the recorded (Q_i, Q_j)
pair of the same protocol from the branches themselves (phi_n on the same
condition, else P_a rho_i P_a), passes each measurement's bit patterns
through the readout map ``ConfusionMatrix.on_bits`` when one is set
(per-bit flips as a kron of 2x2 matrices, or an m-bit matrix as given),
coarse-grains them to signs by their parity (the lumping that readout
mitigation applies to the readout map), and draws each schedule's shot
counts with one multinomial, as a 2-bit ``CountsVector`` (the counts type
that mitigation reads too).

Both engines take a batch of schedules that share rho_0, the dynamics and
the noise model, and return one result per schedule, in order. The batch
shares the register checks and the rank-one test, one checked rho_i (or
psi_i) from ``evolve_density`` per distinct first time t_i, and one
collapse per distinct first measurement (t_i, Q_i). On state vectors the
branch columns of all schedules go through one stacked evolution.

On density matrices both engines read the second segment backward, under
exact and Trotter dynamics alike, as Tr[E^dagger(O) y] (``_density_reads``):
y is M(rho_i) for the exact engine and each branch P_a rho_i P_a for the
sampled law, both in Pauli form, and O is Q_j, or Z_T for every nonempty
set T of its qubits when they are read bit by bit. Under Trotter dynamics
O runs backwards through the transposed Pauli transfer matrices, only on
the qubits its light cone has reached, and a longer second segment
continues the image of a shorter one (C13 from the image that C12 and C23
share in a tau scan); under exact dynamics E^dagger(O) = U^dagger
relax^dagger(O) U is built once per distinct (O, duration). The readout
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
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core.channels import PauliVector, _adjoint_pass, _block_pass, relaxation_channels
from .core.evolution import (
    Dynamics,
    TrotterEvolution,
    _evolve_vectors,
    _expm_hermitian,
    _has_channel,
    evolve_density,
)
from .core.states import NORM_TOL, DensityMatrix, PureState
from .errors import (
    InvalidChannel,
    InvalidGrid,
    InvalidNoiseParameter,
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


# P sigma = phase * P' for sigma = Z or X and each one-qubit factor P of
# I, X, Y, Z: row P holds the phase in column P'
_TIMES = {
    "z": np.array([[0, 0, 0, 1], [0, 0, -1j, 0], [0, 1j, 0, 0], [1, 0, 0, 0]]),
    "x": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]]),
}
# sigma P sigma = +/-P: the sign of each one-qubit factor P of I, X, Y, Z
_CONJUGATE = {"z": np.diag([1.0, -1.0, -1.0, 1.0]), "x": np.diag([1.0, 1.0, -1.0, -1.0])}
# P_b rho P_b with P_b = (I + (-1)^b Z) / 2, for b = 0, 1: X and Y go to 0,
# I and Z each take half of both with the sign (-1)^b
_Z_BRANCHES = tuple(np.array([[1, 0, 0, s], [0] * 4, [0] * 4, [s, 0, 0, 1]]) / 2 for s in (1, -1))


def _pauli_collapse(r: np.ndarray, obs: DichotomicObservable) -> np.ndarray:
    """M(rho) = sum_n q_n P_n rho P_n on the Pauli coefficients r_P =
    Tr(P rho). For a two-outcome collapse, M(rho) = {Q, rho} / 2 and
    Tr(P M(rho)) = Re Tr(P Q rho), and P Q is a phase times the string with
    each factor of P on the qubits of Q multiplied by sigma (``_TIMES``): the
    strings that commute with Q, times Q, with a sign. On one qubit that is
    the real one-qubit map, I <-> Z for z and I <-> X for x, with the other
    two factors sent to 0; a bitwise collapse is the z map on each of its
    qubits."""
    times = _TIMES[obs.basis]
    if obs.bitwise_collapse or len(obs.qubits) == 1:
        times = times.real
    for q in obs.qubits:
        r = _block_pass(r, times, q)
    return r.real


def _pauli_branches(r: np.ndarray, obs: DichotomicObservable) -> list[np.ndarray]:
    """The unnormalised branches P_a rho P_a of a first measurement of ``obs``
    on the Pauli coefficients r_P = Tr(P rho). A bitwise collapse gives one
    per bit pattern a of its qubits (bit k from ``qubits[k]``), the product of
    the one-qubit z branch maps. A two-outcome collapse gives plus, then
    minus, with P = (I +/- Q) / 2: (rho + Q rho Q) / 4 +/- M(rho) / 2, where
    Q rho Q flips the sign of every string that anticommutes with Q."""
    if obs.bitwise_collapse:
        branches = [r]
        for q in obs.qubits:
            branches = [_block_pass(y, _Z_BRANCHES[b], q) for b in (0, 1) for y in branches]
        return branches
    conjugated = r
    for q in obs.qubits:
        conjugated = _block_pass(conjugated, _CONJUGATE[obs.basis], q)
    collapse = _pauli_collapse(r, obs)
    return [(r + conjugated) / 4 + sign * collapse / 2 for sign in (1, -1)]


def _heisenberg_image(image: tuple, channels: tuple, steps: int) -> tuple:
    """``steps`` passes of the adjoint map of the channel sequence
    ``channels`` (one Trotter step, or the relaxation of an exact segment) on
    ``image`` = (c, lo, hi), the coefficients c_P of an operator sum_P c_P P
    that is I outside qubits lo..hi (``_adjoint_pass``): each pass runs the
    transposed transfer matrices of ``channels`` in reverse order."""
    for _ in range(steps):
        for ch in reversed(channels):
            image = _adjoint_pass(*image, ch)
    return image


def _check_trace_preserving(channels) -> None:
    """A backward pass skips a channel outside the image's qubits, which
    needs row I of its transfer matrix to be e_I: else InvalidChannel."""
    for ch in channels:
        row = ch.transfer_matrix[0]
        if not np.abs(row - np.eye(len(row))[0]).max() <= 1e-12:  # NaN fails too
            raise InvalidChannel(f"channel on qubits {ch.target_qubits} is not trace-preserving")


def _exact_image(image: tuple, dynamics, duration: float, noise) -> tuple:
    """E^dagger(O) = U^dagger relax^dagger(O) U over an exact segment of
    ``duration`` > 0, for the image (c, lo, hi) of O: relax^dagger stays on
    its window, then U^dagger . U acts on the window embedded in the register
    as a d x d matrix, converted back once. That must keep the sum of squared
    coefficients within ``NORM_TOL``, as it does exactly when U is unitary."""
    n = dynamics.num_qubits
    relax = relaxation_channels(noise, n, duration) if noise else ()
    _check_trace_preserving(relax)
    c, lo, hi = _heisenberg_image(image, relax, 1)
    embedded = np.zeros(4**n)
    embedded[: 4 ** (hi + 1) : 4**lo] = c
    u = _expm_hermitian(dynamics, duration)
    conjugated = u.conj().T @ PauliVector(n, embedded).matrix @ u
    image = PauliVector.of(conjugated).coefficients
    drift = abs(image @ image - c @ c)
    if not drift <= NORM_TOL:  # NaN fails too
        raise InvalidState(
            f"backward image of an exact segment drifted: squared norm {drift} "
            f"(tolerance {NORM_TOL})"
        )
    return image, 0, n - 1


def _density_reads(first, dynamics: Dynamics, schedules, noise, reads, branches) -> list:
    """Per schedule, V[a, k] = Tr[O_k E(y_a)] over its second segment E, for
    the maps y_a = ``branches(r, Q_i)`` (one vector or a list) of its checked
    rho_i (converted once per t_i, mapped once per (t_i, Q_i)), O_0 = I and
    O_1, O_2, ... the strings of its entry in ``reads`` (``_strings``). Each
    read is Tr[E^dagger(O) y_a]: Tr y_a is coefficient 0, and every other
    one dot product on the qubits the image of O has reached. Under Trotter
    dynamics the images of one string continue from shorter step counts to
    longer ones (``_heisenberg_image``), so a batch runs the passes of its
    one-schedule calls on the same vectors; under exact dynamics each is
    built once per distinct duration (``_exact_image``)."""
    trotter = isinstance(dynamics, TrotterEvolution)
    spans = [s.t_second - s.t_first for s in schedules]
    if trotter:
        spans = [dynamics.segment_steps(d) for d in spans]
        channels = dynamics.block_channels(noise) if any(spans) else ()
        _check_trace_preserving(channels)
    mapped = {}
    for t, rho in first.items():
        r = PauliVector.of(rho.matrix).coefficients
        for obs in dict.fromkeys(s.first_observable for s in schedules if s.t_first == t):
            mapped[t, obs] = np.atleast_2d(branches(r, obs))
    wanted: dict[tuple, set] = {}
    for names, span in zip(reads, spans):
        for name in names:
            wanted.setdefault(name, set()).add(span)
    images = {}
    for name, lengths in wanted.items():
        image, done = _string(*name), 0
        for span in sorted(lengths):
            if trotter and span > done:
                image, done = _heisenberg_image(image, channels, span - done), span
            exact = not trotter and span > 0
            images[name, span] = _exact_image(image, dynamics, span, noise) if exact else image
    out = []
    for sched, names, span in zip(schedules, reads, spans):
        ys = mapped[sched.t_first, sched.first_observable]
        v = np.empty((len(ys), 1 + len(names)))
        v[:, 0] = ys[:, 0]
        for k, name in enumerate(names, 1):
            c, lo, hi = images[name, span]
            v[:, k] = ys[:, : 4 ** (hi + 1) : 4**lo] @ c  # the strings that are I off lo..hi
        out.append(v)
    return out


def _strings(obs: DichotomicObservable, bits: int) -> list[tuple]:
    """The strings read for ``obs`` as (basis, qubits): Q itself for ``bits``
    = 1, else Z_T for every nonempty set T of its qubits, in the order of T
    as a bitmask (bit k for ``qubits[k]``)."""
    if bits == 1:
        return [(obs.basis, obs.qubits)]
    subsets = range(1, 2**bits)
    return [("z", tuple(q for k, q in enumerate(obs.qubits) if t >> k & 1)) for t in subsets]


def _string(basis: str, qubits: tuple[int, ...]) -> tuple:
    """The Pauli string Z (``basis`` "z") or X on each of ``qubits`` as an
    image (c, lo, hi) of ``_heisenberg_image``."""
    lo, hi = min(qubits), max(qubits)
    c = np.zeros(4 ** (hi - lo + 1))
    c[sum((3 if basis == "z" else 1) * 4 ** (q - lo) for q in qubits)] = 1.0
    return c, lo, hi


def exact_correlator(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    schedules: Sequence[MeasurementSchedule],
    noise: "NoiseModel | None" = None,
) -> tuple[CorrelatorEstimate, ...]:
    """Two-time correlators C = Tr[Q_j E_{i->j}(M(rho_i))] of a batch of
    schedules, one per schedule, in order: on state vectors from the evolved
    branches (``_pure_values``), else on density matrices as
    Tr[E^dagger(Q_j) M(rho_i)], the second segment read backward for both
    kinds of dynamics (``_density_reads`` of ``_pauli_collapse``).
    Decoherence channels are interleaved between the evolution segments when
    a noise model is given; readout confusion never enters the exact value.
    The branch states P_n rho_i P_n are PSD because the checked rho_i is, and
    every segment map is unitary or a complete channel, so they stay PSD
    without a check of their own; |C| <= 1 is checked by
    ``CorrelatorEstimate``.
    """
    schedules = tuple(schedules)
    first = _first_states(rho0, dynamics, schedules, noise)
    if schedules and isinstance(first[schedules[0].t_first], PureState):
        values = _pure_values(first, dynamics, schedules)
    else:
        reads = [_strings(s.second_observable, 1) for s in schedules]
        reads = _density_reads(first, dynamics, schedules, noise, reads, _pauli_collapse)
        values = [v[0, 1] for v in reads]
    return tuple(CorrelatorEstimate(float(v), 0.0, 0, METHOD_EXACT) for v in values)


def _readout_on(obs: DichotomicObservable, readout: "ConfusionMatrix") -> np.ndarray:
    """Readout map on the bit patterns of ``obs``'s qubits, bit by bit only in
    the z basis; a size that cannot serve them names its config key."""
    if len(obs.qubits) > 1 and obs.basis != "z":
        raise InvalidObservable("bit-level readout error needs computational-basis observables")
    try:
        return readout.on_bits(len(obs.qubits))
    except InvalidNoiseParameter as err:
        raise InvalidNoiseParameter(f"noise.readout_confusion for {obs.label}: {err}") from err


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


def _recorded_laws(
    rho0: DensityMatrix,
    dynamics: Dynamics,
    schedules: Sequence[MeasurementSchedule],
    noise: "NoiseModel | None" = None,
) -> np.ndarray:
    """Exact laws of the recorded (Q_i, Q_j) pairs of a batch, one row per
    schedule in ``OUTCOME_KEYS`` order. On state vectors they are read from
    the diagonals and Tr[Q_j y] of the evolved branches y; on density
    matrices from the branches P_a rho_i P_a (``_pauli_branches``), with the
    second segment read backward for both kinds of dynamics
    (``_density_reads``): Tr[Q_j E(y)], or Tr[Z_T E(y)] for every nonempty
    set T of the qubits of Q_j when they are read bit by bit, so that the
    weight of bit pattern p is sum_T (-1)^|T & p| Tr[Z_T E(y)] / 2^m. A
    measurement is resolved into bit patterns where a readout flips bits or
    a bitwise collapse needs them. Each law must be a distribution within
    ``NORM_TOL``; it then goes through the readout map of each measurement
    and is coarse-grained to signs."""
    schedules = tuple(schedules)
    readout = noise.readout_confusion if noise is not None else None
    # readout maps first, so an unreadable observable fails before any evolution
    observed = [(s.first_observable, s.second_observable) for s in schedules if readout is not None]
    maps = {obs: _readout_on(obs, readout) for pair in observed for obs in pair}
    second_bits = [len(s.second_observable.qubits) if readout is not None else 1 for s in schedules]
    first = _first_states(rho0, dynamics, schedules, noise)
    pure = bool(schedules) and isinstance(first[schedules[0].t_first], PureState)
    if pure:
        weights, _, counts, values = _evolved_branches(first, dynamics, schedules)
        ends = np.cumsum(counts)[:-1]
        branches = zip(np.split(weights, ends, axis=1), np.split(values, ends))
        true_laws = [
            _true_law(diagonals, values, sched.second_observable, bits)
            for sched, (diagonals, values), bits in zip(schedules, branches, second_bits)
        ]
    else:
        reads = [_strings(s.second_observable, b) for s, b in zip(schedules, second_bits)]
        reads = _density_reads(first, dynamics, schedules, noise, reads, _pauli_branches)
        signs = {b: _pattern_signs(b)[np.bitwise_and.outer(*[range(2**b)] * 2)] for b in second_bits}
        true_laws = [v @ signs[b] / 2**b for v, b in zip(reads, second_bits)]
    groups: dict[tuple, dict[int, np.ndarray]] = {}
    for index, (sched, law, bits2) in enumerate(zip(schedules, true_laws, second_bits)):
        obs1, obs2 = sched.first_observable, sched.second_observable
        m1 = len(obs1.qubits)
        bits1 = m1 if m1 > 1 and (readout is not None or obs1.bitwise_collapse) else 1
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
    law (``_recorded_laws``: on density matrices the second segment read
    backward, for both kinds of dynamics, then read through
    ``noise.readout_confusion`` when it is set) by one multinomial seeded by
    its entry in ``seeds``. The
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
