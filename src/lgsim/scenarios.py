"""Prebuilt experiment definitions binding state, dynamics, noise, and mode.

Each runner reproduces one desk-scale experiment family end to end:

* ``single_qubit``: one spin rotating about x, z readout, temporal mode.
* ``transmon``: free phase precession from the equal superposition with
  pure dephasing; the undamped and damped analytic curves ride along in the
  metadata for comparison.
* ``bell_pair_*``: two independently rotating qubits prepared in a Bell
  state, measured per mode (one qubit, global parity, or two locations).
* ``tfic``: five-qubit Ising chain in a transverse field, GHZ start,
  Trotterized evolution, end-qubit pair readout.
* ``param_scan``: violation-region map over the frequency ratio of the last
  qubit for independently rotating registers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core.channels import NoiseModel
from .core.paulis import PauliSumHamiltonian
from .core.states import prepare_state
from .errors import ConfigError
from .inequalities import (
    Engine,
    RegionScanResult,
    ScanResult,
    ThreeTimeSetup,
    closed_form_k3,
    tau_scan,
    violation_region_scan,
)
from .mitigation import ConfusionMatrix
from .observables import parity_observable, sigma_x_observable, sigma_z_observable

SCHEMA_VERSION = 1

DEFAULT_TAU_POINTS = 75
DEFAULT_TFIC_POINTS = 50
DEFAULT_TRANSMON_TAU_MAX = 30.0

# characterization defaults for a hardware-like noise model
DEFAULT_GATE_DEPOL_1Q = 0.0003
DEFAULT_GATE_DEPOL_2Q = 0.01
DEFAULT_READOUT_FLIP = 0.03
DEFAULT_T1 = 140.0
DEFAULT_T2 = 60.0


def transverse_field_hamiltonian(gammas: Sequence[float]) -> PauliSumHamiltonian:
    """Independent x rotations: sum_i (gamma_i / 2) X_i."""
    n = len(gammas)
    terms = []
    for q, g in enumerate(gammas):
        s = ["I"] * n
        s[q] = "X"
        terms.append((g / 2.0, "".join(s)))
    return PauliSumHamiltonian.from_terms(n, terms)


def ising_chain_hamiltonian(j: float, gammas: Sequence[float]) -> PauliSumHamiltonian:
    """Nearest-neighbor chain -J sum Z_i Z_{i+1} - sum gamma_i X_i."""
    n = len(gammas)
    terms = []
    for i in range(n - 1):
        s = ["I"] * n
        s[i] = s[i + 1] = "Z"
        terms.append((-j, "".join(s)))
    for q, g in enumerate(gammas):
        s = ["I"] * n
        s[q] = "X"
        terms.append((-g, "".join(s)))
    return PauliSumHamiltonian.from_terms(n, terms)


def phase_precession_hamiltonian(omega: float) -> PauliSumHamiltonian:
    """Single-qubit free precession -(omega / 2) Z."""
    return PauliSumHamiltonian.from_terms(1, [(-omega / 2.0, "Z")])


def transmon_closed_form(omega: float, t2: float | None, tau):
    """Damped analytic inequality triple for phase precession with pure
    dephasing: correlators pick up exp(-dt / t2) per time window."""
    tau = np.asarray(tau, dtype=float)
    if t2 is None or not np.isfinite(t2):
        u = np.ones_like(tau)
    else:
        u = np.exp(-tau / t2)
    c1 = np.cos(omega * tau)
    c2 = np.cos(2.0 * omega * tau)
    return 2 * u * c1 - u**2 * c2, -2 * u * c1 - u**2 * c2, u**2 * c2


def hardware_noise_model(
    readout_flip: float = DEFAULT_READOUT_FLIP,
    gate_depolarizing_1q: float = DEFAULT_GATE_DEPOL_1Q,
    gate_depolarizing_2q: float = DEFAULT_GATE_DEPOL_2Q,
    t1: float | None = None,
    t2: float | None = None,
) -> NoiseModel:
    """Noise model with device-characterization-style defaults."""
    return NoiseModel(
        t1=t1,
        t2=t2,
        gate_depolarizing_1q=gate_depolarizing_1q,
        gate_depolarizing_2q=gate_depolarizing_2q,
        readout_confusion=ConfusionMatrix.symmetric(readout_flip) if readout_flip else None,
    )


def default_tau_grid(gamma: float = 1.0, n_points: int = DEFAULT_TAU_POINTS) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi / gamma, n_points)


# ---------------------------------------------------------------------------
# runners


def run_single_qubit(
    gamma: float,
    engine: Engine,
    noise: NoiseModel | None = None,
    tau_grid: Sequence[float] | None = None,
) -> ScanResult:
    """Temporal scan for one qubit rotating about x, read along z."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    taus = tau_grid if tau_grid is not None else default_tau_grid(gamma)
    setup = ThreeTimeSetup(
        rho0=prepare_state("zero", 1).density_matrix(),
        hamiltonian=transverse_field_hamiltonian([gamma]),
        first_observable=sigma_z_observable(0, 1),
        second_observable=sigma_z_observable(0, 1),
        mode="LGI_single",
        noise=noise,
        label="single_qubit",
    )
    scan = tau_scan(setup, taus, engine)
    scan.metadata["scenario"] = "single_qubit"
    scan.metadata["parameters"] = {"gamma": gamma}
    return scan


def run_transmon(
    omega_eff: float,
    t2: float | None,
    engine: Engine,
    noise: NoiseModel | None = None,
    tau_grid: Sequence[float] | None = None,
) -> ScanResult:
    """Free precession from the equal superposition with dephasing.

    The x-basis readout of a z-precessing qubit is unitarily equivalent to
    the z readout of an x-rotating qubit, so the undamped curves coincide
    with the single-qubit closed form; dephasing multiplies each correlator
    by exp(-window / t2). Both analytic references are stored in the scan
    metadata.
    """
    if omega_eff <= 0:
        raise ConfigError(f"omega_eff must be positive, got {omega_eff}")
    if t2 is not None and not t2 > 0:
        raise ConfigError(f"t2 must be positive, got {t2}")
    taus = (
        np.asarray(tau_grid, dtype=float)
        if tau_grid is not None
        else np.linspace(0.0, DEFAULT_TRANSMON_TAU_MAX, DEFAULT_TAU_POINTS)
    )
    if t2 is not None and np.isfinite(t2):
        noise = replace(noise, t2={0: t2}) if noise is not None else NoiseModel(t2={0: t2})
    setup = ThreeTimeSetup(
        rho0=prepare_state("plus", 1).density_matrix(),
        hamiltonian=phase_precession_hamiltonian(omega_eff),
        first_observable=sigma_x_observable(0, 1),
        second_observable=sigma_x_observable(0, 1),
        mode="LGI_single",
        noise=noise,
        label="transmon",
    )
    scan = tau_scan(setup, taus, engine)
    undamped = np.column_stack(closed_form_k3(omega_eff, taus))
    damped = np.column_stack(transmon_closed_form(omega_eff, t2, taus))
    scan.metadata["scenario"] = "transmon"
    scan.metadata["parameters"] = {"omega_eff": omega_eff, "t2": t2}
    scan.metadata["undamped_reference"] = undamped.tolist()
    scan.metadata["damped_reference"] = damped.tolist()
    return scan


BELL_MODES = {
    "lgi_single": "LGI_single",
    "lgi_global": "LGI_global",
    "lgbi": "LGBI",
}


def run_bell_pair(
    mode: str,
    gammas: tuple[float, float],
    engine: Engine,
    noise: NoiseModel | None = None,
    tau_grid: Sequence[float] | None = None,
) -> ScanResult:
    """Bell-state pair under independent x rotations, measured per mode.

    ``lgi_single`` reads qubit 0 at both times; ``lgi_global`` reads the
    two-qubit parity (a full readout of both qubits, so the intermediate
    collapse is per qubit); ``lgbi`` reads qubit 0 first and qubit 1 second.
    """
    if mode not in BELL_MODES:
        raise ConfigError(f"unknown bell-pair mode {mode!r}; choose from {sorted(BELL_MODES)}")
    g1, g2 = (float(g) for g in gammas)
    taus = tau_grid if tau_grid is not None else default_tau_grid(g1)
    if mode == "lgi_single":
        first = second = sigma_z_observable(0, 2)
    elif mode == "lgi_global":
        first = second = parity_observable([0, 1], 2)
    else:
        first = sigma_z_observable(0, 2)
        second = sigma_z_observable(1, 2)
    setup = ThreeTimeSetup(
        rho0=prepare_state("bell", 2).density_matrix(),
        hamiltonian=transverse_field_hamiltonian([g1, g2]),
        first_observable=first,
        second_observable=second,
        mode=BELL_MODES[mode],
        noise=noise,
        label=f"bell_pair_{mode}",
    )
    scan = tau_scan(setup, taus, engine)
    scan.metadata["scenario"] = f"bell_pair_{mode}"
    scan.metadata["parameters"] = {"gamma1": g1, "gamma2": g2}
    return scan


def trotter_layer_depths(k: int) -> dict[str, int]:
    """Abstract layer counts per correlator circuit: two exponential factors
    per step, and the longer windows take twice the steps of the tau-long
    one. Transpiled gate depths are deliberately not modeled."""
    return {"C12": 2 * k, "C23": 4 * k, "C13": 4 * k}


def run_tfic(
    j: float,
    gammas: Sequence[float],
    k: int,
    engine: Engine,
    noise: NoiseModel | None = None,
    tau_grid: Sequence[float] | None = None,
) -> ScanResult:
    """Transverse-field Ising chain from a GHZ state, spatio-temporal mode
    between the chain ends, evolved with k Trotter steps per tau.

    The metadata carries the noiseless exact-evolution reference curve and
    the abstract per-correlator layer counts.
    """
    if not 1 <= int(k) <= 50:
        raise ConfigError(f"k must be in 1..50, got {k}")
    gammas = [float(g) for g in gammas]
    n = len(gammas)
    if n < 2:
        raise ConfigError("tfic needs at least two qubits")
    taus = (
        np.asarray(tau_grid, dtype=float)
        if tau_grid is not None
        else np.linspace(0.0, 1.0 / gammas[0], DEFAULT_TFIC_POINTS)
    )
    h = ising_chain_hamiltonian(j, gammas)
    rho0 = prepare_state("ghz", n).density_matrix()
    first = sigma_z_observable(0, n)
    second = sigma_z_observable(n - 1, n)
    setup = ThreeTimeSetup(
        rho0, h, first, second, mode="LGBI", noise=noise,
        trotter_steps_per_tau=int(k), label=f"tfic_k{k}",
    )
    scan = tau_scan(setup, taus, engine)
    reference_setup = ThreeTimeSetup(
        rho0, h, first, second, mode="LGBI", label="tfic_exact",
    )
    reference = tau_scan(reference_setup, taus, Engine.exact())
    scan.metadata["scenario"] = "tfic"
    scan.metadata["parameters"] = {"j": j, "gammas": gammas, "k": int(k)}
    scan.metadata["exact_reference"] = reference.values().tolist()
    scan.metadata["depths"] = trotter_layer_depths(int(k))
    return scan


def run_param_scan(
    n_qubits: int,
    ratios: Sequence[float],
    tau_grid: Sequence[float] | None = None,
) -> RegionScanResult:
    """Violation-region map over the last qubit's frequency ratio."""
    result = violation_region_scan(n_qubits, ratios, tau_grid)
    result.metadata["scenario"] = "param_scan"
    result.metadata["parameters"] = {"n_qubits": n_qubits, "ratios": list(ratios)}
    return result


# ---------------------------------------------------------------------------
# declarative configuration


def _finite(value, key: str) -> float:
    """``value`` as a finite float, or a config error naming ``key``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _integer(value, key: str) -> int:
    """``value`` as an int, or a config error naming ``key``; integral
    floats such as 3.0 are accepted, and 2.7 is rejected, not truncated."""
    number = _finite(value, key)
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _positive(value, key: str) -> float:
    """``value`` as a finite positive float, or a config error naming ``key``;
    rates are checked before any default grid is derived from them."""
    number = _finite(value, key)
    if not number > 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return number


def _finite_list(value, key: str, min_len: int = 1) -> list[float]:
    """``value`` as a list of at least ``min_len`` finite floats."""
    if not isinstance(value, (list, tuple)) or len(value) < min_len:
        raise ConfigError(f"{key} must be a list of at least {min_len} numbers, got {value!r}")
    return [_finite(v, key) for v in value]


def _build_single_qubit(spec: "ScenarioSpec") -> ScanResult:
    gamma = _positive(spec.parameters["gamma"], "gamma")
    taus = spec._tau_grid(2.0 * np.pi / gamma, DEFAULT_TAU_POINTS)
    return run_single_qubit(gamma, spec.engine, spec.noise, taus)


def _build_transmon(spec: "ScenarioSpec") -> ScanResult:
    t2 = spec.parameters["t2"]
    return run_transmon(
        _finite(spec.parameters["omega_eff"], "omega_eff"),
        None if t2 is None else float(t2),
        spec.engine,
        spec.noise,
        spec._tau_grid(DEFAULT_TRANSMON_TAU_MAX, DEFAULT_TAU_POINTS),
    )


def _build_bell_pair(spec: "ScenarioSpec") -> ScanResult:
    g1 = _positive(spec.parameters["gamma1"], "gamma1")
    g2 = _finite(spec.parameters["gamma2"], "gamma2")
    taus = spec._tau_grid(2.0 * np.pi / g1, DEFAULT_TAU_POINTS)
    mode = spec.name.removeprefix("bell_pair_")
    return run_bell_pair(mode, (g1, g2), spec.engine, spec.noise, taus)


def _build_tfic(spec: "ScenarioSpec") -> ScanResult:
    p = spec.parameters
    gammas = _finite_list(p["gammas"], "gammas", min_len=2)
    _positive(gammas[0], "gammas[0]")
    taus = spec._tau_grid(1.0 / gammas[0], DEFAULT_TFIC_POINTS)
    return run_tfic(
        _finite(p["j"], "j"), gammas, _integer(p["k"], "k"), spec.engine, spec.noise, taus
    )


def _build_param_scan(spec: "ScenarioSpec") -> RegionScanResult:
    p = spec.parameters
    taus = spec._tau_grid(2.0 * np.pi, DEFAULT_TAU_POINTS)
    n_qubits = _integer(p["n_qubits"], "n_qubits")
    return run_param_scan(n_qubits, _finite_list(p["ratios"], "ratios"), taus)


class Scenario(NamedTuple):
    """One registry entry: what ``list-scenarios`` prints, the parameters a
    config must carry, and the builder that turns a spec into a run."""

    description: str
    required: tuple[str, ...]
    build: Callable[["ScenarioSpec"], "ScanResult | RegionScanResult"]


SCENARIOS = {
    "single_qubit": Scenario(
        "one qubit rotating about x, z readout, temporal inequalities",
        ("gamma",),
        _build_single_qubit,
    ),
    "transmon": Scenario(
        "free phase precession from |+> with pure dephasing (t2)",
        ("omega_eff", "t2"),
        _build_transmon,
    ),
    "bell_pair_lgi_single": Scenario(
        "Bell pair, temporal inequalities on one qubit",
        ("gamma1", "gamma2"),
        _build_bell_pair,
    ),
    "bell_pair_lgi_global": Scenario(
        "Bell pair, temporal inequalities on the two-qubit parity",
        ("gamma1", "gamma2"),
        _build_bell_pair,
    ),
    "bell_pair_lgbi": Scenario(
        "Bell pair, spatio-temporal inequalities across the qubits",
        ("gamma1", "gamma2"),
        _build_bell_pair,
    ),
    "tfic": Scenario(
        "5-qubit transverse-field Ising chain, Trotterized, chain-end readout",
        ("j", "gammas", "k"),
        _build_tfic,
    ),
    "param_scan": Scenario(
        "violation-region map over the last qubit's frequency ratio",
        ("n_qubits", "ratios"),
        _build_param_scan,
    ),
}


def _times_to_config(spec) -> object:
    if spec is None or isinstance(spec, float):
        return spec
    return {str(q): t for q, t in spec}


def _times_from_config(value) -> object:
    if value is None or isinstance(value, (int, float)):
        return value
    if isinstance(value, Mapping):
        return {int(q): float(t) for q, t in value.items()}
    raise ConfigError(f"bad decoherence-time spec {value!r}")


def noise_to_config(noise: NoiseModel | None) -> dict | None:
    if noise is None:
        return None
    out = {
        "t1": _times_to_config(noise.t1),
        "t2": _times_to_config(noise.t2),
        "gate_depolarizing_1q": noise.gate_depolarizing_1q,
        "gate_depolarizing_2q": noise.gate_depolarizing_2q,
    }
    if noise.readout_confusion is not None:
        out["readout_confusion"] = {
            "num_bits": noise.readout_confusion.num_bits,
            "matrix": noise.readout_confusion.matrix.tolist(),
        }
    return out


def noise_from_config(data: Mapping | None) -> NoiseModel | None:
    if data is None:
        return None
    known = {
        "t1", "t2", "gate_depolarizing_1q", "gate_depolarizing_2q",
        "readout_flip", "readout_confusion",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown noise keys {sorted(unknown)}")
    confusion = None
    if data.get("readout_confusion") is not None:
        block = data["readout_confusion"]
        num_bits = _integer(block["num_bits"], "noise.readout_confusion.num_bits")
        confusion = ConfusionMatrix(num_bits, np.array(block["matrix"], float))
    elif data.get("readout_flip"):
        flip = _finite(data["readout_flip"], "noise.readout_flip")
        if not 0.0 <= flip <= 1.0:
            raise ConfigError(f"noise.readout_flip={flip} outside [0, 1]")
        confusion = ConfusionMatrix.symmetric(flip)
    return NoiseModel(
        t1=_times_from_config(data.get("t1")),
        t2=_times_from_config(data.get("t2")),
        gate_depolarizing_1q=float(data.get("gate_depolarizing_1q", 0.0)),
        gate_depolarizing_2q=float(data.get("gate_depolarizing_2q", 0.0)),
        readout_confusion=confusion,
    )


@dataclass
class ScenarioSpec:
    """Declarative description of one run; serializes to the config schema."""

    name: str
    parameters: dict
    engine: Engine = field(default_factory=Engine.exact)
    noise: NoiseModel | None = None
    grid: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.name not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.name!r}; choose from {sorted(SCENARIOS)}"
            )
        for key in SCENARIOS[self.name].required:
            if key not in self.parameters:
                raise ConfigError(f"scenario {self.name!r}: missing required parameter {key!r}")

    @classmethod
    def from_config(cls, data: Mapping) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise ConfigError("config root must be a mapping")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if "scenario" not in data:
            raise ConfigError("missing required key 'scenario'")
        engine_block = dict(data.get("engine") or {})
        engine = Engine(
            kind=engine_block.get("kind", "exact"),
            n_shots=_integer(engine_block.get("shots", 8192), "engine.shots"),
            seed=engine_block.get("seed"),
            mitigate=bool(engine_block.get("mitigate", False)),
        )
        return cls(
            name=data["scenario"],
            parameters=dict(data.get("parameters") or {}),
            engine=engine,
            noise=noise_from_config(data.get("noise")),
            grid=dict(data.get("grid") or {}),
            schema_version=version,
        )

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: not valid JSON ({err})") from err
        # a run manifest embeds the resolved config under "config"
        if isinstance(data, Mapping) and "config" in data and "scenario" not in data:
            data = data["config"]
        return cls.from_config(data)

    def to_config(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.name,
            "parameters": dict(self.parameters),
            "grid": dict(self.grid),
            "engine": {
                "kind": self.engine.kind,
                "shots": self.engine.n_shots,
                "seed": self.engine.seed,
                "mitigate": self.engine.mitigate,
            },
            "noise": noise_to_config(self.noise),
        }

    def _tau_grid(self, default_max: float, default_points: int) -> np.ndarray:
        n_points = _integer(self.grid.get("n_points", default_points), "grid.n_points")
        tau_max = self.grid.get("tau_max")
        tau_max = _finite(tau_max, "grid.tau_max") if tau_max is not None else default_max
        if n_points < 1 or tau_max <= 0:
            raise ConfigError(f"bad grid: n_points={n_points}, tau_max={tau_max}")
        return np.linspace(0.0, tau_max, n_points)

    def run(self) -> ScanResult | RegionScanResult:
        result = SCENARIOS[self.name].build(self)
        result.metadata["config"] = self.to_config()
        return result
