"""Exact and first-order Trotter segment evolution of states, with noise.

Both kinds of dynamics run through one step loop. Exact dynamics is one step
of the whole Hamiltonian over the segment; a ``TrotterEvolution`` is a
number of ``dt`` steps of its odd layer (odd bonds plus single-site fields)
and its even layer, each followed by its gate noise. Every step ends with
the relaxation channels for its length. Each propagator is exp(-i H t) from
a Hermitian eigendecomposition (cached per Hamiltonian), which keeps it
unitary to machine precision for the register sizes handled here. A
``TrotterEvolution`` builds its two layer propagators once, on first use,
and holds them for its own lifetime; an exact segment builds its propagator
for its own duration.

A noise model without a channel leaves every map unitary, so state vectors
can be evolved instead of density matrices (``_evolve_vectors``): exact
dynamics in the eigenbasis of H, without building a propagator, and Trotter
dynamics by the same layer propagators. One call evolves a block of columns,
each over its own duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..errors import InvalidGrid, InvalidState, InvalidTrotterPlan
from .channels import (
    NoiseModel,
    apply_channel,
    depolarizing_channel,
    relaxation_channels,
)
from .paulis import PauliSumHamiltonian, PauliTerm
from .states import DensityMatrix, PureState


@lru_cache(maxsize=512)
def _eigensystem(h: PauliSumHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(h.matrix())
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _expm_hermitian(h: PauliSumHamiltonian, duration: float) -> np.ndarray:
    w, v = _eigensystem(h)
    phases = np.exp(-1j * w * duration)
    return (v * phases) @ v.conj().T


@dataclass(frozen=True)
class TrotterEvolution:
    """First-order Trotter dynamics: segments advance in fixed steps of ``dt``.

    The Hamiltonian is split once, at construction, into two layers. The
    odd layer holds the bonds (i, i+1) with odd i, then the single-site
    terms; the even layer holds the bonds with even i. Each layer keeps the
    Hamiltonian's term order, and the bonds inside one layer must mutually
    commute so the layer factorizes into independent two-qubit gates on
    hardware. Identity terms only add a global phase and are dropped.

    A segment of duration d uses round(d / dt) steps, so a correlator whose
    second window is twice as long simply applies twice as many steps, the
    same way per-step circuits compose on hardware. The two layer
    propagators exp(-i dt H_layer) are built on first use and held by the
    instance, outside its equality and hash, for every segment it evolves.
    """

    hamiltonian: PauliSumHamiltonian
    dt: float
    layers: tuple[PauliSumHamiltonian, PauliSumHamiltonian] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.dt < float("inf"):  # NaN fails too
            raise InvalidTrotterPlan(f"dt must be finite and nonnegative, got {self.dt}")
        odd_bonds: list[PauliTerm] = []
        even_bonds: list[PauliTerm] = []
        single: list[PauliTerm] = []
        for t in self.hamiltonian.terms:
            support = t.support()
            if len(support) == 1:
                single.append(t)
            elif len(support) == 2 and support[1] - support[0] == 1:
                (odd_bonds if support[0] % 2 else even_bonds).append(t)
            elif support:
                raise InvalidTrotterPlan(
                    f"cannot auto-partition term {t.paulis!r}: only single-site and "
                    "nearest-neighbor two-site terms are supported"
                )
        for name, bonds in (("even", even_bonds), ("odd", odd_bonds)):
            for i, a in enumerate(bonds):
                for b in bonds[i + 1 :]:
                    if not a.commutes_with(b):
                        raise InvalidTrotterPlan(
                            f"{name} layer contains non-commuting terms "
                            f"{a.paulis!r} and {b.paulis!r}"
                        )
        n = self.hamiltonian.num_qubits
        layers = (
            PauliSumHamiltonian(n, tuple(odd_bonds + single)),
            PauliSumHamiltonian(n, tuple(even_bonds)),
        )
        object.__setattr__(self, "layers", layers)

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
    def _propagators(self) -> tuple[np.ndarray, np.ndarray]:
        odd, even = self.layers
        return _expm_hermitian(odd, self.dt), _expm_hermitian(even, self.dt)


Dynamics = PauliSumHamiltonian | TrotterEvolution


def _layer_channels(noise: NoiseModel, terms: tuple[PauliTerm, ...]) -> list:
    """Per-gate depolarizing channels for one Trotter layer."""
    channels = []
    for t in terms:
        support = t.support()
        if len(support) == 2 and noise.gate_depolarizing_2q > 0:
            channels.append(depolarizing_channel(noise.gate_depolarizing_2q, support))
        elif len(support) == 1 and noise.gate_depolarizing_1q > 0:
            channels.append(depolarizing_channel(noise.gate_depolarizing_1q, support))
    return channels


def _has_channel(noise: NoiseModel | None) -> bool:
    """Whether ``noise`` applies any channel between or inside segments: a
    t1 or t2 time, or gate depolarizing. Readout confusion is no channel."""
    return noise is not None and (
        noise.t1 is not None
        or noise.t2 is not None
        or noise.gate_depolarizing_1q > 0
        or noise.gate_depolarizing_2q > 0
    )


def _segment_layers(
    dynamics: Dynamics, duration: float, noise: NoiseModel | None
) -> tuple[int, float, list]:
    """Step count, step length and (propagator, gate channels) per layer of
    one segment: one step of the whole Hamiltonian, without gate noise, for
    exact dynamics, else ``segment_steps`` steps of the two Trotter layers."""
    if isinstance(dynamics, PauliSumHamiltonian):
        return 1, duration, [(_expm_hermitian(dynamics, duration), [])]
    layers = [
        (u, _layer_channels(noise, h.terms) if noise is not None else [])
        for u, h in zip(dynamics._propagators, dynamics.layers)
    ]
    return dynamics.segment_steps(duration), dynamics.dt, layers


def _evolve_segment(
    rho: DensityMatrix,
    dynamics: Dynamics,
    duration: float,
    noise: NoiseModel | None,
) -> DensityMatrix:
    """Apply one segment's linear map to ``rho``, unchecked.

    Exact dynamics is one step of the whole Hamiltonian over the segment,
    with no gate noise. Trotter dynamics is ``segment_steps`` steps, each
    applying the odd layer, its gate noise, the even layer, then its gate
    noise. Every step ends with the relaxation channels for its length.
    Every step is linear in ``rho``, which need not be a state; the caller
    checks the result.
    """
    steps, dt, layers = _segment_layers(dynamics, duration, noise)
    relax = relaxation_channels(noise, rho.num_qubits, dt) if noise is not None else []
    layers = [(u, u.conj().T, gate_noise) for u, gate_noise in layers]
    out = rho
    for _ in range(steps):
        for u, u_dagger, gate_noise in layers:
            out = DensityMatrix._trusted(out.num_qubits, u @ out.matrix @ u_dagger)
            for ch in gate_noise:
                out = apply_channel(out, ch)
        for ch in relax:
            out = apply_channel(out, ch)
    return out


def _evolve_vectors(
    psi: np.ndarray, dynamics: Dynamics, durations: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """Column k of the result is column ``columns[k]`` of ``psi`` evolved by
    a noiseless segment of ``durations[k]`` > 0, unchecked.

    Exact dynamics multiplies by V (e^{-iwt} o V^dagger psi) with the cached
    eigensystem (w, V) of H, so no propagator is built, and every column goes
    through one stacked product with V. Trotter dynamics applies the two
    layer propagators to all of ``psi`` step by step and reads each column
    off at its own step count, so a longer segment continues from the end of
    a shorter one.
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
            for u in dynamics._propagators:
                psi = u @ psi
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
    out = _evolve_segment(rho, dynamics, duration, noise)
    return DensityMatrix(out.num_qubits, out.matrix)
