"""The benchmark's traced mode wraps lgsim entry points by name; a rename in
the package must fail here rather than in every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import lgsim.core.evolution as evolution
import lgsim.inequalities as inequalities
import lgsim.mitigation as mitigation
import lgsim.observables as observables
from lgsim import (
    ConfusionMatrix,
    CountsVector,
    DensityMatrix,
    Engine,
    NoiseModel,
    TrotterEvolution,
    evolve_density,
    prepare_state,
    violation_region_scan,
)
from lgsim.scenarios import ising_chain_hamiltonian, run_bell_pair

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    for _layer, _counter, module_name, attr in load_tracer().ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # classes are patched through their own __dict__, so inherited names do not count
        found = name in owner.__dict__ if isinstance(owner, type) else hasattr(owner, name)
        assert found, f"{module_name}.{attr}"


def test_channel_hook_sees_a_state_and_a_kraus_channel(monkeypatch):
    # the tracer wraps lgsim.core.evolution.apply_channel and sizes each call
    # from its two positional arguments: an operator with .num_qubits and an
    # object with .kraus_ops; a traced chain_noisy run fails if this hook
    # records no calls
    calls = []
    apply_channel = evolution.apply_channel

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return apply_channel(*args, **kwargs)

    monkeypatch.setattr(evolution, "apply_channel", counting)
    h = ising_chain_hamiltonian(0.1, [1.0, 1.0, 2.0])
    evo = TrotterEvolution(h, 0.25)
    rho = prepare_state("ghz", 3).density_matrix()
    evolve_density(rho, evo, 0.0, 0.5, NoiseModel(gate_depolarizing_2q=0.01))
    assert calls
    for args, kwargs in calls:
        assert not kwargs and len(args) == 2
        assert args[0].num_qubits == 3
        assert hasattr(args[1], "kraus_ops")


def test_mitigation_hook_sees_each_point_estimate(monkeypatch):
    # the tracer replaces lgsim.mitigation.mitigate with a wrapper that calls
    # it with return_method=True and counts the method it reads back; if
    # mitigate_correlator stopped going through the module global, the
    # traced inverse_ratio would read 0 without any error
    calls = []
    mitigate = mitigation.mitigate

    def counting(*args, **kwargs):
        out = mitigate(*args, **kwargs)
        calls.append((kwargs, out))
        return out

    monkeypatch.setattr(mitigation, "mitigate", counting)
    counts = CountsVector(2, (3000, 1100, 900, 3192), 8192, seed=21)
    mitigation.mitigate_correlator([counts], ConfusionMatrix.symmetric(0.03, num_bits=2))
    assert len(calls) == 1
    kwargs, out = calls[0]
    assert kwargs == {"return_method": True}
    x, method = out
    assert isinstance(x, np.ndarray) and isinstance(method, str)
    assert method in {"inverse", "least_squares"}


def test_region_scan_hooks_each_see_calls(monkeypatch):
    # region_exact's traced run requires calls into observables.exact,
    # core.evolution and core.states, which the tracer counts at these three
    # names; an exact engine that bypassed one of them would fail every
    # traced region_exact run
    calls = {"exact": 0, "evolve": 0, "check": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        inequalities, "exact_correlator", counting("exact", inequalities.exact_correlator)
    )
    monkeypatch.setattr(
        observables, "evolve_density", counting("evolve", observables.evolve_density)
    )
    monkeypatch.setattr(
        DensityMatrix, "__post_init__", counting("check", DensityMatrix.__post_init__)
    )
    violation_region_scan(3, [0.5, 1.5], np.linspace(0.0, 1.0, 3))
    assert all(count > 0 for count in calls.values()), calls


def test_sampled_scan_hooks_each_see_calls(monkeypatch):
    # sampled_mitigated's traced run requires calls into observables.sampled,
    # core.evolution, core.states and mitigation, which the tracer counts at
    # these names; branch reads run outside them (backward on density
    # matrices), so each first segment and its state check must still be seen
    calls = {"sampled": 0, "evolve": 0, "check": 0, "mitigate": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        inequalities, "sampled_correlator", counting("sampled", inequalities.sampled_correlator)
    )
    monkeypatch.setattr(
        observables, "evolve_density", counting("evolve", observables.evolve_density)
    )
    monkeypatch.setattr(
        DensityMatrix, "__post_init__", counting("check", DensityMatrix.__post_init__)
    )
    monkeypatch.setattr(mitigation, "mitigate", counting("mitigate", mitigation.mitigate))
    run_bell_pair(
        "lgi_global",
        1.0,
        0.8,
        Engine.sampled(256, seed=3, mitigate=True),
        NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.03)),
        n_points=3,
        tau_max=1.0,
    )
    assert all(count > 0 for count in calls.values()), calls
