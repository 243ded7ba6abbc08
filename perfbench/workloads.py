"""Seeded `lgsim scan` workloads: config generation, fixed sizes, and the
layers each workload is expected to exercise.

The seed draws only physical parameters (and the sampled-engine seed); the
work size of every workload is fixed here, so two seeds cost the same.
"""

import math
import random

# Fixed input sizes, recorded with every result set.
SIZES = {
    "chain_noisy": {"qubits": 6, "trotter_k": 3, "points": 9, "shots": 0},
    "region_exact": {"qubits": 6, "ratios": 4, "points": 300, "shots": 0},
    "sampled_mitigated": {"qubits": 2, "points": 75, "shots": 8192, "bootstrap": 200},
}

CHAIN_TAU_MAX = 1.0
CHAIN_DEPOL_1Q = 3e-4
CHAIN_DEPOL_2Q = 1e-2
REGION_TAUS = 75
READOUT_FLIP = 0.03

# Layers that must record calls on a workload; a traced run fails if one
# of them records none (a rename in the program would otherwise zero it).
EXPECTED_LAYERS = {
    "chain_noisy": (
        "cli", "scenarios", "inequalities", "observables.exact",
        "core.evolution", "core.channels", "core.states", "core.paulis",
    ),
    "region_exact": (
        "cli", "scenarios", "inequalities", "observables.exact",
        "core.evolution", "core.states",
    ),
    "sampled_mitigated": (
        "cli", "scenarios", "inequalities", "observables.sampled",
        "core.evolution", "core.states", "mitigation",
    ),
}


def make_config(workload: str, seed: int) -> dict:
    """Config for one workload; the same seed always gives the same config."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload]
    if workload == "chain_noisy":
        n = size["qubits"]
        gammas = [round(rng.uniform(0.8, 1.2), 6) for _ in range(n - 1)]
        gammas.append(round(rng.uniform(1.6, 2.4), 6))
        return {
            "schema_version": 1,
            "scenario": "tfic",
            "parameters": {
                "j": round(rng.uniform(0.05, 0.2), 6),
                "gammas": gammas,
                "k": size["trotter_k"],
            },
            "grid": {"n_points": size["points"], "tau_max": CHAIN_TAU_MAX},
            "engine": {"kind": "exact"},
            "noise": {
                "gate_depolarizing_1q": CHAIN_DEPOL_1Q,
                "gate_depolarizing_2q": CHAIN_DEPOL_2Q,
            },
        }
    if workload == "region_exact":
        ratios = sorted(round(rng.uniform(0.3, 2.5), 6) for _ in range(size["ratios"]))
        return {
            "schema_version": 1,
            "scenario": "param_scan",
            "parameters": {"n_qubits": size["qubits"], "ratios": ratios},
            "grid": {"n_points": REGION_TAUS, "tau_max": 2.0 * math.pi},
            "engine": {"kind": "exact"},
        }
    if workload == "sampled_mitigated":
        return {
            "schema_version": 1,
            "scenario": "bell_pair_lgi_global",
            "parameters": {
                "gamma1": round(rng.uniform(0.6, 1.4), 6),
                "gamma2": round(rng.uniform(0.6, 1.4), 6),
            },
            "grid": {"n_points": size["points"], "tau_max": None},
            "engine": {
                "kind": "sampled",
                "shots": size["shots"],
                "seed": rng.randrange(2**31),
                "mitigate": True,
            },
            "noise": {"readout_flip": READOUT_FLIP},
        }
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(SIZES)}")
