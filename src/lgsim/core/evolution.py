"""Exact and first-order Trotter segment evolution of states, with noise.

Both kinds of dynamics run through one step loop. Exact dynamics is one step
of the whole Hamiltonian over the segment; a ``TrotterEvolution`` is a
number of ``dt`` steps of its odd layer (odd bonds plus single-site fields)
and its even layer, each one gate per connected block of its terms (a lone
qubit, or a bond with the fields on its qubits) fused with its gate noise
and with the step's relaxation of each qubit it is the last block on. Each
propagator is exp(-i H t) from a Hermitian eigendecomposition (cached per
Hamiltonian), which keeps it unitary to machine precision for the register
sizes handled here. A ``TrotterEvolution`` builds its block gates once, on
first use; an exact segment builds its propagator for its own duration.

On density matrices every channel pass, a Trotter block or a relaxation
channel, runs on the real Pauli coefficients of the operator
(``PauliVector``), one real transfer-matrix matmul per block.
``_evolve_segment`` maps a plain Hermitian d x d array to another; a
segment with channels converts to Pauli form and back once.
The correlators run only first segments forward (``evolve_density``) and
read every second one backward (``observables._density_reads``). Exact
segments keep their dense conjugation and convert only for t1/t2.

A noise model without a channel leaves every map unitary, so state vectors
can be evolved instead of density matrices (``_evolve_vectors``): exact
dynamics in the eigenbasis of H, without building a propagator, and Trotter
dynamics by the same block gates. One call evolves a block of columns, each
over its own duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..errors import InvalidGrid, InvalidState, InvalidTrotterPlan
from .channels import (
    BlockChannel,
    NoiseModel,
    PauliVector,
    apply_channel,
    block_channel,
    relaxation_channels,
)
from .paulis import PauliSumHamiltonian, PauliTerm
from .states import DensityMatrix, PureState


def _eigh(h: PauliSumHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(h.matrix())
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


# block Hamiltonians of one or two qubits, rebuilt at every dt of a Trotter
# scan, share 512 entries; a larger register holds only its latest (w, V)
_block_eigensystem = lru_cache(maxsize=512)(_eigh)
_register_eigensystem = lru_cache(maxsize=1)(_eigh)


def _eigensystem(h: PauliSumHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    return (_block_eigensystem if h.num_qubits <= 2 else _register_eigensystem)(h)


def _expm_hermitian(h: PauliSumHamiltonian, duration: float) -> np.ndarray:
    w, v = _eigensystem(h)
    return (v * np.exp(-1j * w * duration)) @ v.conj().T


@dataclass(frozen=True)
class TrotterEvolution:
    """First-order Trotter dynamics: segments advance in fixed steps of ``dt``.

    The Hamiltonian is split once, at construction, into two layers of
    blocks on disjoint qubits. The odd layer has each odd bond (i, i+1)
    followed by the single-site terms on its qubits, and each other qubit's
    single-site terms; the even layer has each even bond. A block keeps the
    Hamiltonian's term order, and its gate exp(-i dt H_block) exponentiates
    its terms together, so they need not commute. Identity terms are dropped.

    A segment of duration d uses round(d / dt) steps, so a correlator whose
    second window is twice as long simply applies twice as many steps, the
    same way per-step circuits compose on hardware. The block gates and the
    block channels are built on first use and held by the instance, outside
    its equality and hash, for every segment it evolves.
    """

    hamiltonian: PauliSumHamiltonian
    dt: float
    # (layer, first qubit) -> (support, term) pairs; layer 0 is the odd one
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _channels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.dt < float("inf"):  # NaN fails too
            raise InvalidTrotterPlan(f"dt must be finite and nonnegative, got {self.dt}")
        blocks, fields = self._blocks, []
        for t in self.hamiltonian.terms:
            support = t.support()
            if len(support) == 1:
                fields.append((support, t))
            elif len(support) == 2 and support[1] - support[0] == 1:
                blocks.setdefault((1 - support[0] % 2, support[0]), []).append((support, t))
            elif support:
                raise InvalidTrotterPlan(
                    f"cannot auto-partition term {t.paulis!r}: only single-site and "
                    "nearest-neighbor two-site terms are supported"
                )
        bonds = set(blocks)
        for (q,), t in fields:  # a field joins the odd bond on its qubit
            bond = (0, q - 1 + q % 2)
            blocks.setdefault(bond if bond in bonds else (0, q), []).append(((q,), t))

    def segment_steps(self, duration: float) -> int:
        if duration <= 0:
            return 0
        if self.dt == 0:
            raise InvalidTrotterPlan("dt = 0 cannot evolve a finite segment")
        steps = round(duration / self.dt)
        if steps < 1 or abs(steps * self.dt - duration) > 1e-9 * max(1.0, abs(duration)):
            raise InvalidTrotterPlan(
                f"segment of duration {duration} is not a whole number of dt={self.dt} steps"
            )
        return steps

    @cached_property
    def _gates(self) -> tuple[tuple[tuple[int, ...], np.ndarray, tuple], ...]:
        """(qubits, exp(-i dt H_block), term supports counted from its first
        qubit) of each block of the odd, then the even layer."""
        gates = []
        for (_, low), block in sorted(self._blocks.items()):
            m = len(block[0][0])  # a bond comes first in its block
            local = tuple(PauliTerm(t.coefficient, t.paulis[low : low + m]) for _, t in block)
            gate = _expm_hermitian(PauliSumHamiltonian(m, local), self.dt)
            supports = tuple(tuple(q - low for q in support) for support, _ in block)
            gates.append((tuple(range(low, low + m)), gate, supports))
        return tuple(gates)

    def block_channels(self, noise: NoiseModel | None) -> tuple[BlockChannel, ...]:
        """One step: each block gate fused with the gate depolarizing of its
        terms, in the order of ``_gates``, and with the relaxation over
        ``dt`` of each qubit whose last block of the step it is. Channels on
        disjoint qubits commute, so that relaxation acts where it would at
        the end of the step. A qubit that no block covers relaxes as its own
        block at the end. Built once per pair of rates and t1/t2 times."""
        noise = noise or NoiseModel()  # no noise model: no gate noise, no relaxation
        p = (noise.gate_depolarizing_1q, noise.gate_depolarizing_2q)
        key = (*p, noise.t1, noise.t2)
        if key not in self._channels:
            n = self.hamiltonian.num_qubits
            relax = {ch.target_qubits[0]: ch for ch in relaxation_channels(noise, n, self.dt)}
            last = {q: i for i, (qubits, _, _) in enumerate(self._gates) for q in qubits}
            channels = [
                block_channel(
                    qubits,
                    gate,
                    [(p[len(s) - 1], s) for s in terms if p[len(s) - 1]],
                    {k: relax[q].transfer_matrix for k, q in enumerate(qubits)
                     if q in relax and last[q] == i},
                )
                for i, (qubits, gate, terms) in enumerate(self._gates)
            ]
            channels += [ch for q, ch in relax.items() if q not in last]
            self._channels[key] = tuple(channels)
        return self._channels[key]


Dynamics = PauliSumHamiltonian | TrotterEvolution


def _has_channel(noise: NoiseModel | None) -> bool:
    """Whether ``noise`` applies any channel between or inside segments: a
    t1 or t2 time, or gate depolarizing. Readout confusion is no channel."""
    return noise is not None and (
        noise.t1 is not None
        or noise.t2 is not None
        or noise.gate_depolarizing_1q > 0
        or noise.gate_depolarizing_2q > 0
    )


def _evolve_segment(
    matrix: np.ndarray, dynamics: Dynamics, duration: float, noise: NoiseModel | None
) -> np.ndarray:
    """Apply one segment's linear map to the Hermitian d x d ``matrix``,
    unchecked.

    Exact dynamics is one step of the whole Hamiltonian over the segment,
    a dense conjugation with no gate noise, followed by the relaxation
    channels for its length. Trotter dynamics is ``segment_steps`` steps,
    each applying the block channels of the odd, then the even layer: every
    block gate followed by its gate noise and by the step's relaxation of the
    qubits it is the last block on (``block_channels``). Every channel pass
    works on the Pauli form, converted once before the first pass and back
    once after the last; a segment without a channel returns the conjugated
    array. Every step is linear in ``matrix``; the caller checks the result.
    """
    if isinstance(dynamics, PauliSumHamiltonian):
        u = _expm_hermitian(dynamics, duration)
        matrix = u @ matrix @ u.conj().T
        n = dynamics.num_qubits
        steps, channels = 1, relaxation_channels(noise, n, duration) if noise else ()
    else:
        steps, channels = dynamics.segment_steps(duration), dynamics.block_channels(noise)
    if not channels:
        return matrix
    rho = PauliVector.of(matrix)
    for _ in range(steps):
        for ch in channels:
            rho = apply_channel(rho, ch)
    return rho.matrix


def _evolve_vectors(
    psi: np.ndarray, dynamics: Dynamics, durations: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """Column k of the result is column ``columns[k]`` of ``psi`` evolved by
    a noiseless segment of ``durations[k]`` > 0, unchecked.

    Exact dynamics multiplies by V (e^{-iwt} o V^dagger psi) with the cached
    eigensystem (w, V) of H, so no propagator is built, and every column goes
    through one stacked product with V. Trotter dynamics applies the block
    gates to all of ``psi`` step by step, each as one matmul over the rows
    of its qubits, and reads each column off at its own step count, so a
    longer segment continues from the end of a shorter one.
    """
    if isinstance(dynamics, PauliSumHamiltonian):
        w, v = _eigensystem(dynamics)
        # V^dagger psi as conj(V^T conj(psi)), without copying V
        coefficients = (v.T @ psi.conj()).conj()
        # one phase column per distinct duration, shared by the columns
        distinct: dict[float, int] = {}
        inverse = [distinct.setdefault(d, len(distinct)) for d in durations.tolist()]
        block = np.exp(np.multiply.outer(-1j * w, list(distinct)))[:, inverse]
        block *= coefficients[:, columns]
        return v @ block
    steps = np.array([dynamics.segment_steps(d) for d in durations])
    out = np.empty((psi.shape[0], len(steps)), dtype=complex)
    done = 0
    for target in np.unique(steps):
        for _ in range(target - done):
            for qubits, gate, _ in dynamics._gates:
                rows = psi.reshape(-1, len(gate), 2 ** qubits[0] * psi.shape[1])
                psi = (gate @ rows).reshape(psi.shape)
        done = target
        read = steps == target
        out[:, read] = psi[:, columns[read]]
    return out


def evolve_density(
    rho: DensityMatrix | PureState,
    dynamics: Dynamics,
    t_start: float,
    t_end: float,
    noise: NoiseModel | None = None,
) -> DensityMatrix | PureState:
    """Evolve one segment, interleaving decoherence channels with the
    coherent dynamics (see ``_evolve_segment`` for the order).

    A ``PureState`` is evolved as a vector and stays one; it needs a noise
    model without channels (``_has_channel``). Intermediate states skip
    validation; the result of every non-empty segment is checked once.
    """
    for name, t in (("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(t):
            raise InvalidGrid(f"{name}={t} is not a finite time")
    if t_end < t_start:
        raise InvalidGrid(f"t_end={t_end} earlier than t_start={t_start}")
    duration = t_end - t_start
    if isinstance(rho, PureState) and _has_channel(noise):
        raise InvalidState("a noise channel needs a density matrix, not a pure state")
    if duration == 0:
        return rho
    if isinstance(rho, PureState):
        psi = rho.amplitudes[:, None]
        psi = _evolve_vectors(psi, dynamics, np.array([duration]), np.zeros(1, dtype=int))
        return PureState(rho.num_qubits, psi[:, 0])
    # the Pauli form is released before the checked constructor copies the matrix
    return DensityMatrix(rho.num_qubits, _evolve_segment(rho.matrix, dynamics, duration, noise))
