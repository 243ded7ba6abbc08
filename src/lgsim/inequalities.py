"""Third-order inequality assembly, tau scans, and region scans.

Three two-time correlators combine into the three third-order inequality
functions; every macrorealistic record keeps each of them at or below 1, so
a value above 1 (beyond the decision margin) flags a violation. The same
machinery serves the single-system temporal case and the two-location
spatio-temporal case; only the observables differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core.channels import NoiseModel
from .core.evolution import TrotterEvolution
from .core.paulis import PauliSumHamiltonian
from .core.states import DensityMatrix, prepare_state
from .errors import (
    InvalidDistribution,
    InvalidGrid,
    InvalidNoiseParameter,
    InvalidObservable,
    MixedMethodError,
)
from .observables import (
    METHOD_EXACT,
    CorrelatorEstimate,
    DichotomicObservable,
    MeasurementSchedule,
    _integer,
    exact_correlator,
    sampled_correlator,
    sigma_z_observable,
)

MODES = ("LGI_single", "LGI_global", "LGBI")

EXACT_MARGIN = 1e-9


@dataclass(frozen=True)
class Engine:
    """Correlator engine selection: exact trace formula or shot sampling."""

    kind: str = "exact"
    n_shots: int = 8192
    seed: int | None = None
    mitigate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "sampled"):
            raise ValueError(f"engine kind must be 'exact' or 'sampled', got {self.kind!r}")
        n_shots = _integer(self.n_shots, "n_shots")
        if n_shots < 1:
            raise ValueError(f"n_shots must be >= 1, got {self.n_shots}")
        object.__setattr__(self, "n_shots", n_shots)
        if self.seed is not None:
            seed = _integer(self.seed, "seed")
            if seed < 0:
                raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
            object.__setattr__(self, "seed", seed)

    @classmethod
    def exact(cls) -> "Engine":
        return cls(kind="exact")

    @classmethod
    def sampled(cls, n_shots: int = 8192, seed: int | None = None, mitigate: bool = False) -> "Engine":
        return cls(kind="sampled", n_shots=n_shots, seed=seed, mitigate=mitigate)


@dataclass(frozen=True)
class InequalityResult:
    """The three third-order combinations at one grid point."""

    tau: float
    mode: str
    method: str
    k3: float
    k3_prime: float
    k3_perm: float
    std_error: float
    decision_margin: float
    violated_k3: bool
    violated_k3_prime: bool
    violated_k3_perm: bool

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        slack = 1e-9 + 3.0 * (self.std_error if math.isfinite(self.std_error) else 0.0)
        for v in (self.k3, self.k3_prime, self.k3_perm):
            if not abs(v) <= 3.0 + slack:  # NaN fails too
                raise ValueError(f"combination value {v} outside [-3, 3] plus tolerance")

    def combinations(self) -> tuple[float, float, float]:
        return (self.k3, self.k3_prime, self.k3_perm)

    def violations(self) -> tuple[bool, bool, bool]:
        return (self.violated_k3, self.violated_k3_prime, self.violated_k3_perm)


def assemble_third_order(
    c12: CorrelatorEstimate,
    c23: CorrelatorEstimate,
    c13: CorrelatorEstimate,
    mode: str,
    tau: float = float("nan"),
) -> InequalityResult:
    """Combine three correlators into the three signed third-order sums.

    All estimates must come from the same engine; the propagated error is
    the root of the summed variances (the same for every sign pattern). A
    violation is flagged above 1 + 1e-9 for exact data and above
    1 + 2 * std_error for sampled data.
    """
    methods = {c12.method, c23.method, c13.method}
    if len(methods) != 1:
        raise MixedMethodError(f"cannot combine correlators with methods {sorted(methods)}")
    method = methods.pop()
    k3 = c12.value + c23.value - c13.value
    k3_prime = -c12.value - c23.value - c13.value
    k3_perm = -c12.value + c23.value + c13.value
    if method == METHOD_EXACT:
        std_error = 0.0
        margin = EXACT_MARGIN
    else:
        std_error = math.sqrt(c12.variance() + c23.variance() + c13.variance())
        margin = max(0.0, 2.0 * std_error) if math.isfinite(std_error) else float("nan")
    threshold = 1.0 + margin
    return InequalityResult(
        tau=tau,
        mode=mode,
        method=method,
        k3=k3,
        k3_prime=k3_prime,
        k3_perm=k3_perm,
        std_error=std_error,
        decision_margin=margin,
        violated_k3=bool(k3 > threshold),
        violated_k3_prime=bool(k3_prime > threshold),
        violated_k3_perm=bool(k3_perm > threshold),
    )


def closed_form_k3(gamma: float, tau):
    """Analytic single-qubit values for an x-axis rotation at rate gamma:
    (2 cos(g t) - cos(2 g t), -2 cos(g t) - cos(2 g t), cos(2 g t))."""
    phase = gamma * np.asarray(tau, dtype=float)
    c1 = np.cos(phase)
    c2 = np.cos(2.0 * phase)
    return 2.0 * c1 - c2, -2.0 * c1 - c2, c2


# ---------------------------------------------------------------------------
# tau scans


@dataclass(frozen=True)
class ThreeTimeSetup:
    """Everything a three-time protocol needs except the grid and engine."""

    rho0: DensityMatrix
    hamiltonian: PauliSumHamiltonian
    first_observable: DichotomicObservable
    second_observable: DichotomicObservable
    mode: str
    noise: NoiseModel | None = None
    trotter_steps_per_tau: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for obs in (self.first_observable, self.second_observable):
            if obs.num_qubits != self.rho0.num_qubits:
                raise InvalidObservable("observable register does not match the state")
        if self.mode == "LGBI":
            overlap = set(self.first_observable.qubits) & set(self.second_observable.qubits)
            if overlap:
                raise InvalidObservable(
                    f"spatio-temporal mode needs disjoint qubit sets; both measure {overlap}"
                )
        if self.trotter_steps_per_tau is not None and self.trotter_steps_per_tau < 1:
            raise ValueError("trotter_steps_per_tau must be >= 1")
        if self.trotter_steps_per_tau is None and self.noise is not None:
            # exact dynamics has no gates, so a gate rate would be dropped unseen
            for name in ("gate_depolarizing_1q", "gate_depolarizing_2q"):
                rate = getattr(self.noise, name)
                if rate:
                    raise InvalidNoiseParameter(
                        f"noise.{name}={rate} acts on Trotter gates, but "
                        f"{self.label or 'this setup'} evolves exactly and has none"
                    )


@dataclass(frozen=True)
class ScanResult:
    """Grid of inequality results plus run metadata.

    ``grid`` holds tau values for tau scans or (ratio, tau) pairs for
    parameter scans; results align with it index by index.
    """

    grid: tuple
    results: tuple[InequalityResult, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.results):
            raise InvalidGrid("grid and results lengths differ")

    def values(self) -> np.ndarray:
        return np.array([r.combinations() for r in self.results])

    def errors(self) -> np.ndarray:
        return np.array([r.std_error for r in self.results])

    def violation_counts(self) -> dict[str, int]:
        names = _column_names(self.metadata.get("mode", "LGI_single"))
        flags = np.array([r.violations() for r in self.results])
        return {names[i]: int(flags[:, i].sum()) for i in range(3)}


def _column_names(mode: str) -> tuple[str, str, str]:
    prefix = "T3" if mode == "LGBI" else "K3"
    return (prefix, f"{prefix}_prime", f"{prefix}_perm")


def _validate_grid(tau_grid: Sequence[float]) -> list[float]:
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise InvalidGrid("empty tau grid")
    if not all(math.isfinite(t) for t in taus):
        raise InvalidGrid("tau grid must be finite")
    if taus[0] < 0:
        raise InvalidGrid(f"negative tau {taus[0]}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise InvalidGrid("tau grid must be strictly increasing")
    return taus


def _child_seed(master: int, point: int, correlator: int) -> int:
    seq = np.random.SeedSequence((int(master), int(point), int(correlator)))
    return int(seq.generate_state(1, np.uint64)[0])


def _pair_confusion(setup: ThreeTimeSetup):
    from .mitigation import ConfusionMatrix, _sign_confusion

    if setup.noise is None or setup.noise.readout_confusion is None:
        return None
    readout = setup.noise.readout_confusion
    first = _sign_confusion(setup.first_observable, readout)
    second = _sign_confusion(setup.second_observable, readout)
    return ConfusionMatrix(2, np.kron(first, second))


def tau_scan(
    setup: ThreeTimeSetup,
    tau_grid: Sequence[float],
    engine: Engine,
) -> ScanResult:
    """Evaluate C12(0, t), C23(t, 2t), C13(0, 2t) and assemble the three
    combinations at every grid point, in grid order.

    Either engine evaluates the whole grid in one batch under Hamiltonian
    dynamics, and one batch of three per grid point under Trotter dynamics,
    whose step depends on tau. Sampled runs draw each (grid point,
    correlator) from its own seed, derived from the master seed; a mitigated
    one then mitigates all drawn counts in one ``mitigate_correlator`` call.
    """
    from .mitigation import mitigate_correlator

    taus = _validate_grid(tau_grid)
    master_seed, sampled = engine.seed, engine.kind == "sampled"
    if sampled and master_seed is None:
        master_seed = int(np.random.SeedSequence().entropy)
    # only drawn counts are mitigated; the exact engine ignores the flag
    pair_confusion = _pair_confusion(setup) if sampled and engine.mitigate else None
    rho0, steps_per_tau = setup.rho0, setup.trotter_steps_per_tau

    # one batch per dynamics: the whole grid, or each tau when dt follows it
    points = range(len(taus))
    groups = [points] if steps_per_tau is None else [[i] for i in points]
    estimates, tables = [], []
    for group in groups:
        batch = [
            MeasurementSchedule(w, setup.first_observable, setup.second_observable)
            for tau in (taus[i] for i in group)
            for w in ((0.0, tau), (tau, 2.0 * tau), (0.0, 2.0 * tau))
        ]
        evolution = setup.hamiltonian
        if steps_per_tau is not None:
            evolution = TrotterEvolution(setup.hamiltonian, taus[group[0]] / steps_per_tau)
        if not sampled:
            estimates += exact_correlator(rho0, evolution, batch, setup.noise)
        else:
            seeds = [_child_seed(master_seed, i, c_index) for i in group for c_index in range(3)]
            drawn = sampled_correlator(rho0, evolution, batch, engine.n_shots, setup.noise, seeds)
            estimates += [est for est, _ in drawn]
            tables += [counts for _, counts in drawn]
    if pair_confusion is not None:
        estimates = mitigate_correlator(tables, pair_confusion)
    triples = [estimates[i : i + 3] for i in range(0, len(estimates), 3)]
    results = [
        assemble_third_order(*triple, mode=setup.mode, tau=tau)
        for tau, triple in zip(taus, triples)
    ]

    metadata = {
        "mode": setup.mode,
        "label": setup.label,
        "engine": {
            "kind": engine.kind,
            "n_shots": engine.n_shots if engine.kind == "sampled" else 0,
            "seed": master_seed,
            "mitigate": bool(engine.mitigate),
        },
        "noise_digest": setup.noise.digest() if setup.noise is not None else None,
        "trotter_steps_per_tau": setup.trotter_steps_per_tau,
    }
    return ScanResult(tuple(taus), tuple(results), metadata)


# ---------------------------------------------------------------------------
# CSV serialization (contract: 12 significant digits, fixed column order)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def scan_to_csv(scan: ScanResult) -> str:
    """Serialize a scan; tau scans get the documented 10-column layout, and
    (ratio, tau) grids prepend a ratio column."""
    mode = scan.metadata.get("mode", "LGI_single")
    names = _column_names(mode)
    region = bool(scan.grid) and isinstance(scan.grid[0], tuple)
    header = ["ratio", "tau"] if region else ["tau"]
    header += [
        names[0],
        names[1],
        names[2],
        f"err_{names[0]}",
        f"err_{names[1]}",
        f"err_{names[2]}",
        f"violated_{names[0]}",
        f"violated_{names[1]}",
        f"violated_{names[2]}",
    ]
    lines = [",".join(header)]
    for point, r in zip(scan.grid, scan.results):
        cells = [_fmt(v) for v in (point if region else (point,))]
        cells += [_fmt(r.k3), _fmt(r.k3_prime), _fmt(r.k3_perm)]
        cells += [_fmt(r.std_error)] * 3
        cells += [
            _fmt_bool(r.violated_k3),
            _fmt_bool(r.violated_k3_prime),
            _fmt_bool(r.violated_k3_perm),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parameter-region scan


@dataclass(frozen=True)
class RegionScanResult:
    """One exact tau scan per ratio of a (ratio, tau) grid; the value and
    violation maps are (ratio, tau) views over their results."""

    ratios: tuple[float, ...]
    taus: tuple[float, ...]
    scans: tuple[ScanResult, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def values(self) -> dict[str, np.ndarray]:
        stacked = np.array([scan.values() for scan in self.scans])
        return {name: stacked[:, :, c] for c, name in enumerate(_column_names("LGBI"))}

    @property
    def violated(self) -> dict[str, np.ndarray]:
        flags = np.array([[r.violations() for r in scan.results] for scan in self.scans])
        return {name: flags[:, :, c] for c, name in enumerate(_column_names("LGBI"))}

    def to_scan_result(self) -> ScanResult:
        """Flatten to (ratio, tau) rows for CSV output."""
        grid = tuple((ratio, tau) for ratio in self.ratios for tau in self.taus)
        results = tuple(r for scan in self.scans for r in scan.results)
        return ScanResult(grid, results, dict(self.metadata))


def violation_region_scan(
    n_qubits: int,
    gamma_ratio_grid: Sequence[float],
    tau_grid: Sequence[float] = (),
) -> RegionScanResult:
    """Map spatio-temporal violations for independently rotating qubits.

    The register starts in the n-qubit GHZ state, every qubit rotates about
    x with rate gamma_i / 2 where gamma_1..gamma_{n-1} = 1 and the last
    qubit's rate is scaled by the grid ratio; the first and last qubits are
    read out. Exact engine only. The tau grid has no default: an omitted one
    is empty and rejected.
    """
    from .scenarios import transverse_field_hamiltonian

    if n_qubits < 2:
        raise InvalidGrid("region scan needs at least two qubits")
    ratios = [float(r) for r in gamma_ratio_grid]
    if not ratios:
        raise InvalidGrid("empty ratio grid")
    taus = _validate_grid(tau_grid)

    rho0 = prepare_state("ghz", n_qubits).density_matrix()
    obs_first = sigma_z_observable(0, n_qubits)
    obs_second = sigma_z_observable(n_qubits - 1, n_qubits)
    scans = []
    for ratio in ratios:
        h = transverse_field_hamiltonian([1.0] * (n_qubits - 1) + [ratio])
        setup = ThreeTimeSetup(
            rho0, h, obs_first, obs_second, mode="LGBI", label=f"ratio={ratio}"
        )
        scans.append(tau_scan(setup, taus, Engine.exact()))
    metadata = {
        "mode": "LGBI",
        "label": f"region_scan_{n_qubits}q",
        "n_qubits": n_qubits,
        "engine": {"kind": "exact", "n_shots": 0, "seed": None, "mitigate": False},
        "noise_digest": None,
    }
    return RegionScanResult(tuple(ratios), tuple(taus), tuple(scans), metadata)


# ---------------------------------------------------------------------------
# classical joint-distribution oracle

OUTCOME_TRIPLES = ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")


@dataclass(frozen=True)
class JointOracleResult:
    c12: float
    c23: float
    c13: float
    k3_from_correlators: float
    k3_from_counting: float

    def consistent(self, tol: float = 1e-12) -> bool:
        return abs(self.k3_from_correlators - self.k3_from_counting) <= tol


def joint_distribution_oracle(p) -> JointOracleResult:
    """Correlators and the third-order combination of a classical record.

    ``p`` is a joint distribution over the eight sign triples (Q1, Q2, Q3),
    ordered +++ ++- +-+ +-- -++ -+- --+ --- (or a mapping with those keys).
    Returns the combination both as C12 + C23 - C13 and by the counting
    identity 1 - 4 [P(+,-,+) + P(-,+,-)]; the two must agree, which pins the
    classical window [-3, 1].
    """
    if isinstance(p, dict):
        try:
            vec = np.array([float(p[k]) for k in OUTCOME_TRIPLES])
        except KeyError as err:
            raise InvalidDistribution(f"missing outcome key {err}") from err
    else:
        vec = np.asarray(p, dtype=float)
    if vec.shape != (8,):
        raise InvalidDistribution(f"need 8 probabilities, got shape {vec.shape}")
    if vec.min() < 0:
        raise InvalidDistribution(f"negative probability {vec.min()}")
    if abs(vec.sum() - 1.0) > 1e-12:
        raise InvalidDistribution(f"probabilities sum to {vec.sum()}, not 1")

    signs = np.array([[1 if c == "+" else -1 for c in key] for key in OUTCOME_TRIPLES])
    c12 = float(np.sum(signs[:, 0] * signs[:, 1] * vec))
    c23 = float(np.sum(signs[:, 1] * signs[:, 2] * vec))
    c13 = float(np.sum(signs[:, 0] * signs[:, 2] * vec))
    k3_assembled = c12 + c23 - c13
    k3_counting = 1.0 - 4.0 * (vec[OUTCOME_TRIPLES.index("+-+")] + vec[OUTCOME_TRIPLES.index("-+-")])
    return JointOracleResult(c12, c23, c13, k3_assembled, k3_counting)
