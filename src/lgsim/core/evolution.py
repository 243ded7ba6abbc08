"""Trotterized and exact segment evolution of density matrices, with noise.

Exact segments use exp(-i H t) from a Hermitian eigendecomposition of the
Hamiltonian (cached per Hamiltonian), which keeps it unitary to machine
precision for the register sizes handled here. First-order Trotter steps
split nearest-neighbor bond terms into even/odd layers; single-site field
terms are folded into the odd-layer exponent so one step stays a two-factor
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import InvalidGrid, InvalidTrotterPlan
from .channels import (
    NoiseModel,
    apply_channel,
    depolarizing_channel,
    relaxation_channels,
)
from .paulis import PauliSumHamiltonian, PauliTerm
from .states import DensityMatrix

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
class TrotterPlan:
    """Even/odd bond partition plus leftover single-site terms.

    All bond terms inside one layer must mutually commute so the layer
    exponential factorizes into independent two-qubit gates on hardware.
    """

    num_qubits: int
    steps: int
    even_terms: tuple[PauliTerm, ...]
    odd_terms: tuple[PauliTerm, ...]
    single_site_terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise InvalidTrotterPlan(f"steps must be >= 1, got {self.steps}")
        groups = (self.even_terms, self.odd_terms, self.single_site_terms)
        seen: set[PauliTerm] = set()
        for group in groups:
            for t in group:
                if t in seen:
                    raise InvalidTrotterPlan(f"term {t} appears in more than one partition")
                seen.add(t)
        for name, group in (("even", self.even_terms), ("odd", self.odd_terms)):
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    if not a.commutes_with(b):
                        raise InvalidTrotterPlan(
                            f"{name} layer contains non-commuting terms "
                            f"{a.paulis!r} and {b.paulis!r}"
                        )

    def all_terms(self) -> tuple[PauliTerm, ...]:
        return self.even_terms + self.odd_terms + self.single_site_terms


def trotter_plan(h: PauliSumHamiltonian, steps: int) -> TrotterPlan:
    """Partition a nearest-neighbor Hamiltonian for first-order Trotter.

    Two-site terms on adjacent qubits (i, i+1) go to the even or odd layer by
    the parity of i; single-site terms are kept separate and later absorbed
    into the odd factor.
    """
    even: list[PauliTerm] = []
    odd: list[PauliTerm] = []
    single: list[PauliTerm] = []
    for t in h.terms:
        support = t.support()
        if len(support) == 0:
            continue  # identity shifts only add a global phase
        if len(support) == 1:
            single.append(t)
        elif len(support) == 2 and support[1] - support[0] == 1:
            (even if support[0] % 2 == 0 else odd).append(t)
        else:
            raise InvalidTrotterPlan(
                f"cannot auto-partition term {t.paulis!r}: only single-site and "
                "nearest-neighbor two-site terms are supported"
            )
    return TrotterPlan(h.num_qubits, steps, tuple(even), tuple(odd), tuple(single))


@lru_cache(maxsize=512)
def _partition_hamiltonian(num_qubits: int, terms: tuple[PauliTerm, ...]) -> PauliSumHamiltonian:
    return PauliSumHamiltonian(num_qubits, terms)


@dataclass(frozen=True)
class TrotterEvolution:
    """Stepped dynamics: segments advance in fixed increments of ``dt``.

    A segment of duration d uses round(d / dt) steps, so a correlator whose
    second window is twice as long simply applies twice as many steps, the
    same way per-step circuits compose on hardware.
    """

    hamiltonian: PauliSumHamiltonian
    plan: TrotterPlan
    dt: float

    def __post_init__(self) -> None:
        if self.dt < 0:
            raise InvalidTrotterPlan(f"dt must be nonnegative, got {self.dt}")
        if self.plan.num_qubits != self.hamiltonian.num_qubits:
            raise InvalidTrotterPlan("plan register size does not match Hamiltonian")
        # identity terms only add a global phase, so trotter_plan drops them
        terms = [t for t in self.hamiltonian.terms if t.support()]
        if sorted(self.plan.all_terms(), key=repr) != sorted(terms, key=repr):
            raise InvalidTrotterPlan("plan terms do not partition the Hamiltonian")

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


def _unitary_step(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    return DensityMatrix._trusted(rho.num_qubits, u @ rho.matrix @ u.conj().T)


def _evolve_segment(
    rho: DensityMatrix,
    dynamics: Dynamics,
    duration: float,
    noise: NoiseModel | None,
) -> DensityMatrix:
    """Apply one segment's linear map to ``rho``, unchecked.

    Exact dynamics applies the full-segment unitary followed by relaxation
    channels for the segment duration. Trotter dynamics applies, per step,
    the odd layer, its gate noise, the even layer, its gate noise, then
    relaxation for dt. Every step is linear in ``rho``, which need not be a
    state; the caller checks the result.
    """
    if isinstance(dynamics, PauliSumHamiltonian):
        u = _expm_hermitian(dynamics, duration)
        out = _unitary_step(rho, u)
        if noise is not None:
            for ch in relaxation_channels(noise, rho.num_qubits, duration):
                out = apply_channel(out, ch)
        return out

    plan = dynamics.plan
    steps = dynamics.segment_steps(duration)
    h_even = _partition_hamiltonian(plan.num_qubits, plan.even_terms)
    h_odd = _partition_hamiltonian(plan.num_qubits, plan.odd_terms + plan.single_site_terms)
    u_even = _expm_hermitian(h_even, dynamics.dt)
    u_odd = _expm_hermitian(h_odd, dynamics.dt)
    odd_noise = even_noise = ()
    relax = ()
    if noise is not None:
        if noise.has_gate_noise():
            odd_noise = _layer_channels(noise, plan.odd_terms + plan.single_site_terms)
            even_noise = _layer_channels(noise, plan.even_terms)
        relax = relaxation_channels(noise, rho.num_qubits, dynamics.dt)
    out = rho
    for _ in range(steps):
        out = _unitary_step(out, u_odd)
        for ch in odd_noise:
            out = apply_channel(out, ch)
        out = _unitary_step(out, u_even)
        for ch in even_noise:
            out = apply_channel(out, ch)
        for ch in relax:
            out = apply_channel(out, ch)
    return out


def evolve_density(
    rho: DensityMatrix,
    dynamics: Dynamics,
    t_start: float,
    t_end: float,
    noise: NoiseModel | None = None,
) -> DensityMatrix:
    """Evolve one segment, interleaving decoherence channels with the
    coherent dynamics (see ``_evolve_segment`` for the order).

    Intermediate states skip validation; the result of every non-empty
    segment is checked once.
    """
    if t_end < t_start:
        raise InvalidGrid(f"t_end={t_end} earlier than t_start={t_start}")
    if isinstance(dynamics, TrotterPlan):
        raise InvalidTrotterPlan(
            "a bare TrotterPlan has no step size; wrap it as "
            "TrotterEvolution(hamiltonian, plan, dt)"
        )
    duration = t_end - t_start
    if duration == 0:
        return rho
    out = _evolve_segment(rho, dynamics, duration, noise)
    return DensityMatrix(out.num_qubits, out.matrix)
