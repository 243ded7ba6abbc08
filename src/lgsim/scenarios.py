"""Prebuilt experiment definitions binding state, dynamics, noise, and mode.

Each runner reproduces one desk-scale experiment family end to end:

* ``single_qubit``: one spin rotating about x, z readout, temporal mode.
* ``transmon``: free phase precession from the equal superposition with
  pure dephasing; the undamped and damped analytic curves ride along in the
  metadata for comparison.
* ``bell_pair_*``: two independently rotating qubits prepared in a Bell
  state, measured per mode (one qubit, global parity, or two locations).
* ``tfic``: Ising chain of n >= 2 qubits (one per ``gammas`` entry) in a
  transverse field, GHZ start, Trotterized evolution, end-qubit pair readout.
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
from .core.paulis import MAX_QUBITS, PauliSumHamiltonian
from .core.states import prepare_state
from .errors import ConfigError, InvalidNoiseParameter
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
from .observables import _integer, parity_observable, sigma_x_observable, sigma_z_observable

SCHEMA_VERSION = 1

DEFAULT_TAU_POINTS = 75
DEFAULT_TFIC_POINTS = 50
DEFAULT_TRANSMON_TAU_MAX = 30.0
TAU_MAX_WINDOWS = 1e6


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


# ---------------------------------------------------------------------------
# runners


def run_single_qubit(
    gamma: float,
    engine: Engine,
    noise: NoiseModel | None = None,
    n_points: int = DEFAULT_TAU_POINTS,
    tau_max: float | None = None,
) -> ScanResult:
    """One qubit rotating about x, read along z; default tau_max 2 pi / gamma."""
    gamma = _positive(gamma, "gamma")
    taus = _tau_grid(n_points, tau_max, 2.0 * np.pi / gamma)
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
    n_points: int = DEFAULT_TAU_POINTS,
    tau_max: float | None = None,
) -> ScanResult:
    """Free precession from |+> with dephasing; default tau_max 30.

    The x-basis readout of a z-precessing qubit is unitarily equivalent to
    the z readout of an x-rotating qubit, so the undamped curves coincide
    with the single-qubit closed form; dephasing multiplies each correlator
    by exp(-window / t2). Both analytic references are stored in the scan
    metadata. A ``t2`` of None or Infinity means no dephasing; it is the
    only dephasing time, so a ``noise`` with a t2 of its own is an error.
    """
    omega_eff = _positive(omega_eff, "omega_eff")
    t2 = None if t2 is None else _time(t2, "t2")
    if noise is not None and noise.t2 is not None:
        raise ConfigError(f"transmon dephases at parameters.t2 only, got noise.t2={noise.t2!r}")
    taus = _tau_grid(n_points, tau_max, DEFAULT_TRANSMON_TAU_MAX)
    if t2 is not None and np.isfinite(t2):
        try:
            noise = replace(noise, t2={0: t2}) if noise is not None else NoiseModel(t2={0: t2})
        except InvalidNoiseParameter as err:
            # a checked noise block with one more t2 can break only t2 <= 2 t1
            raise InvalidNoiseParameter(
                f"parameters.t2={t2} exceeds 2*noise.t1={2 * noise.qubit_t1(0)} (unphysical)"
            ) from err
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
    gamma1: float,
    gamma2: float,
    engine: Engine,
    noise: NoiseModel | None = None,
    n_points: int = DEFAULT_TAU_POINTS,
    tau_max: float | None = None,
) -> ScanResult:
    """Bell pair under independent x rotations; default tau_max 2 pi / gamma1.

    ``lgi_single`` reads qubit 0 at both times; ``lgi_global`` reads the
    two-qubit parity (a full readout of both qubits, so the intermediate
    collapse is per qubit); ``lgbi`` reads qubit 0 first and qubit 1 second.
    """
    if mode not in BELL_MODES:
        raise ConfigError(f"unknown bell-pair mode {mode!r}; choose from {sorted(BELL_MODES)}")
    g1, g2 = _positive(gamma1, "gamma1"), _finite(gamma2, "gamma2")
    taus = _tau_grid(n_points, tau_max, 2.0 * np.pi / g1)
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
    n_points: int = DEFAULT_TFIC_POINTS,
    tau_max: float | None = None,
) -> ScanResult:
    """Transverse-field Ising chain from a GHZ state, spatio-temporal mode
    between the chain ends, k Trotter steps per tau; default tau_max 1 / gammas[0].

    The metadata carries the noiseless exact-evolution reference curve and
    the abstract per-correlator layer counts.
    """
    j = _finite(j, "j")
    gammas = _finite_list(gammas, "gammas", min_len=2)
    if len(gammas) > MAX_QUBITS:
        raise ConfigError(f"gammas has {len(gammas)} entries, one per qubit; at most {MAX_QUBITS}")
    k = _integer(k, "k", ConfigError)
    if not 1 <= k <= 50:
        raise ConfigError(f"k must be in 1..50, got {k}")
    taus = _tau_grid(n_points, tau_max, 1.0 / _positive(gammas[0], "gammas[0]"))
    n = len(gammas)
    h = ising_chain_hamiltonian(j, gammas)
    rho0 = prepare_state("ghz", n).density_matrix()
    first = sigma_z_observable(0, n)
    second = sigma_z_observable(n - 1, n)
    setup = ThreeTimeSetup(
        rho0, h, first, second, mode="LGBI", noise=noise,
        trotter_steps_per_tau=k, label=f"tfic_k{k}",
    )
    scan = tau_scan(setup, taus, engine)
    reference_setup = ThreeTimeSetup(
        rho0, h, first, second, mode="LGBI", label="tfic_exact",
    )
    reference = tau_scan(reference_setup, taus, Engine.exact())
    scan.metadata["scenario"] = "tfic"
    scan.metadata["parameters"] = {"j": j, "gammas": gammas, "k": k}
    scan.metadata["exact_reference"] = reference.values().tolist()
    scan.metadata["depths"] = trotter_layer_depths(k)
    return scan


def run_param_scan(
    n_qubits: int,
    ratios: Sequence[float],
    n_points: int = DEFAULT_TAU_POINTS,
    tau_max: float | None = None,
) -> RegionScanResult:
    """Violation-region map over the last qubit's frequency ratio; default tau_max 2 pi."""
    n_qubits = _integer(n_qubits, "n_qubits", ConfigError)
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in 2..{MAX_QUBITS}, got {n_qubits}")
    ratios = _finite_list(ratios, "ratios")
    taus = _tau_grid(n_points, tau_max, 2.0 * np.pi)
    result = violation_region_scan(n_qubits, ratios, taus)
    result.metadata["scenario"] = "param_scan"
    result.metadata["parameters"] = {"n_qubits": n_qubits, "ratios": ratios}
    return result


# ---------------------------------------------------------------------------
# declarative configuration


def _finite(value, key: str) -> float:
    """``value`` as a finite float, or a config error naming ``key``; a
    boolean or text such as "1.0" is not a number here."""
    try:
        number = math.nan if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _seed(value, key: str) -> int:
    """A random seed: a non-negative integer, or a config error naming
    ``key``."""
    seed = _integer(value, key, ConfigError)
    if seed < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return seed


def _positive(value, key: str) -> float:
    """``value`` as a finite positive float, or a config error naming ``key``;
    rates are checked before any default grid is derived from them."""
    number = _finite(value, key)
    if not number > 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return number


def _finite_list(value, key: str, min_len: int = 1) -> list[float]:
    """``value`` as a list of at least ``min_len`` finite floats."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) < min_len:
        raise ConfigError(f"{key} must be a list of at least {min_len} numbers, got {value!r}")
    return [_finite(v, key) for v in value]


def _time(value, key: str) -> float:
    """A decay time: a finite positive number, or Infinity for no decay."""
    return value if value == math.inf else _positive(value, key)


def _tau_grid(n_points, tau_max, window: float) -> np.ndarray:
    """``n_points`` taus from 0 to ``tau_max``, or to the scenario's default
    ``window`` when ``tau_max`` is None."""
    n_points = _integer(n_points, "grid.n_points", ConfigError)
    tau_max = window if tau_max is None else _finite(tau_max, "grid.tau_max")
    if n_points < 1 or tau_max <= 0:
        raise ConfigError(f"bad grid: n_points={n_points}, tau_max={tau_max}")
    # far beyond the default window the phases are rounding noise
    if tau_max > TAU_MAX_WINDOWS * window:
        raise ConfigError(
            f"grid.tau_max={tau_max} exceeds {TAU_MAX_WINDOWS:g} times the "
            f"scenario's default window {window:g}"
        )
    return np.linspace(0.0, tau_max, n_points)


CONFIG_KEYS = ("schema_version", "scenario", "parameters", "grid", "engine", "noise")
GRID_KEYS = ("n_points", "tau_max")
ENGINE_KEYS = ("kind", "shots", "seed", "mitigate")
NOISE_KEYS = (
    "t1", "t2", "gate_depolarizing_1q", "gate_depolarizing_2q",
    "readout_flip", "readout_confusion",
)


def _mapping(value, key: str, known: Sequence[str]) -> dict:
    """The config block ``value`` (None: empty) as a dict of ``known`` keys
    only, or a config error naming ``key`` or the unknown keys."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    unknown = sorted(set(value) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{key} has unknown keys {unknown}; known keys are {sorted(known)}")
    return dict(value)


def _build_param_scan(engine: Engine, noise: NoiseModel | None, **kwargs) -> ScanResult:
    # the region map is exact and noiseless; refuse what it would drop
    if engine.kind != "exact":
        raise ConfigError(
            f"param_scan runs the exact engine only, got engine.kind={engine.kind!r}"
        )
    if engine.mitigate:
        raise ConfigError("param_scan has no readout to mitigate, got engine.mitigate=true")
    if noise is not None:
        raise ConfigError("param_scan is noiseless, so it takes no noise block")
    return run_param_scan(**kwargs).to_scan_result()


class Scenario(NamedTuple):
    """One registry entry: what ``list-scenarios`` prints, the parameter
    keys of its runner, and a call of that runner with a config's
    ``**parameters``, ``engine``, ``noise`` and ``**grid``."""

    description: str
    parameters: tuple[str, ...]
    run: Callable[..., ScanResult]


# The lambdas look each runner up as a module global at call time, so a
# rebound name (a tracer's wrapper, a test's counter) also sees config runs.
SCENARIOS = {
    "single_qubit": Scenario(
        "one qubit rotating about x, z readout, temporal inequalities",
        ("gamma",),
        lambda **kwargs: run_single_qubit(**kwargs),
    ),
    "transmon": Scenario(
        "free phase precession from |+> with pure dephasing (t2)",
        ("omega_eff", "t2"),
        lambda **kwargs: run_transmon(**kwargs),
    ),
    "bell_pair_lgi_single": Scenario(
        "Bell pair, temporal inequalities on one qubit",
        ("gamma1", "gamma2"),
        lambda **kwargs: run_bell_pair("lgi_single", **kwargs),
    ),
    "bell_pair_lgi_global": Scenario(
        "Bell pair, temporal inequalities on the two-qubit parity",
        ("gamma1", "gamma2"),
        lambda **kwargs: run_bell_pair("lgi_global", **kwargs),
    ),
    "bell_pair_lgbi": Scenario(
        "Bell pair, spatio-temporal inequalities across the qubits",
        ("gamma1", "gamma2"),
        lambda **kwargs: run_bell_pair("lgbi", **kwargs),
    ),
    "tfic": Scenario(
        "n-qubit transverse-field Ising chain, Trotterized, chain-end readout",
        ("j", "gammas", "k"),
        lambda **kwargs: run_tfic(**kwargs),
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


def _times_from_config(value, key: str) -> object:
    if value is None:
        return None
    if isinstance(value, Mapping):
        # JSON object keys are text, so a qubit index is read from its sign
        # and digits; one outside the register exits where the noise meets it
        return {
            _integer(int(q) if str(q).removeprefix("-").isdecimal() else q, key, ConfigError):
            _time(t, f"{key}[{q}]")
            for q, t in value.items()
        }
    return _time(value, key)


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
    data = _mapping(data, "noise", NOISE_KEYS)
    confusion = None
    if data.get("readout_confusion") is not None and data.get("readout_flip") is not None:
        raise ConfigError("noise.readout_flip and noise.readout_confusion are both set; give one")
    if data.get("readout_confusion") is not None:
        key = "noise.readout_confusion"
        block = _mapping(data["readout_confusion"], key, ("num_bits", "matrix"))
        num_bits = _integer(block.get("num_bits"), f"{key}.num_bits", ConfigError)
        try:
            matrix = np.array(block["matrix"], float)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(
                f"{key}.matrix must be a matrix of numbers, got {block.get('matrix')!r}"
            ) from err
        try:
            confusion = ConfusionMatrix(num_bits, matrix)
        except InvalidNoiseParameter as err:
            raise InvalidNoiseParameter(f"{key}: {err}") from err
    elif data.get("readout_flip") is not None:
        flip = _finite(data["readout_flip"], "noise.readout_flip")
        if not 0.0 <= flip <= 1.0:
            raise ConfigError(f"noise.readout_flip={flip} outside [0, 1]")
        # a zero flip probability is no readout noise, as is a missing one
        confusion = ConfusionMatrix.symmetric(flip) if flip else None
    rates = {
        name: _finite(data.get(name, 0.0), f"noise.{name}")
        for name in ("gate_depolarizing_1q", "gate_depolarizing_2q")
    }
    return NoiseModel(
        t1=_times_from_config(data.get("t1"), "noise.t1"),
        t2=_times_from_config(data.get("t2"), "noise.t2"),
        readout_confusion=confusion,
        **rates,
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
        if not isinstance(self.name, str) or self.name not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.name!r}; choose from {sorted(SCENARIOS)}"
            )
        required = SCENARIOS[self.name].parameters
        self.parameters = _mapping(self.parameters, "parameters", required)
        self.grid = _mapping(self.grid, "grid", GRID_KEYS)
        for key in required:
            if key not in self.parameters:
                raise ConfigError(f"scenario {self.name!r}: missing required parameter {key!r}")

    @classmethod
    def from_config(cls, data: Mapping) -> "ScenarioSpec":
        data = _mapping(data, "config", CONFIG_KEYS)
        version = data.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if "scenario" not in data:
            raise ConfigError("missing required key 'scenario'")
        engine_block = _mapping(data.get("engine"), "engine", ENGINE_KEYS)
        mitigate = engine_block.get("mitigate", False)
        if not isinstance(mitigate, bool):
            raise ConfigError(f"engine.mitigate must be true or false, got {mitigate!r}")
        shots = _integer(engine_block.get("shots", 8192), "engine.shots", ConfigError)
        if shots < 1:
            raise ConfigError(f"engine.shots must be >= 1, got {shots}")
        engine = Engine(
            kind=engine_block.get("kind", "exact"),
            n_shots=shots,
            seed=None if engine_block.get("seed") is None else _seed(
                engine_block["seed"], "engine.seed"
            ),
            mitigate=mitigate,
        )
        return cls(
            name=data["scenario"],
            parameters=data.get("parameters"),
            engine=engine,
            noise=noise_from_config(data.get("noise")),
            grid=data.get("grid"),
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

    def run(self) -> ScanResult:
        result = SCENARIOS[self.name].run(
            **self.parameters, engine=self.engine, noise=self.noise, **self.grid
        )
        result.metadata["config"] = self.to_config()
        return result
