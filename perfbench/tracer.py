"""Spans around the calls into each lgsim layer, recorded from outside.

`install` replaces each layer's public entry points at the names its callers
look up (module globals and class attributes) with timing wrappers. Spans
(name, start, end, parent, run id) stay in memory until `dump`. Kernel work
for `core.channels` and `core.evolution` is computed from array shapes:
8 d^3 flops per complex d x d matmul, and 16 d^2 bytes per complex operand
read or written.
"""

import functools
import importlib
import json
import time
from collections import Counter

# (layer, counter name, module, attribute); a class attribute is "Class.attr".
ENTRY_POINTS = (
    ("cli", "cli.main", "lgsim.cli", "main"),
    ("scenarios", "scenarios.from_file", "lgsim.scenarios", "ScenarioSpec.from_file"),
    ("scenarios", "scenarios.run", "lgsim.scenarios", "ScenarioSpec.run"),
    ("scenarios", "scenarios.runner", "lgsim.scenarios", "run_single_qubit"),
    ("scenarios", "scenarios.runner", "lgsim.scenarios", "run_transmon"),
    ("scenarios", "scenarios.runner", "lgsim.scenarios", "run_bell_pair"),
    ("scenarios", "scenarios.runner", "lgsim.scenarios", "run_tfic"),
    ("scenarios", "scenarios.runner", "lgsim.scenarios", "run_param_scan"),
    ("inequalities", "inequalities.tau_scan", "lgsim.scenarios", "tau_scan"),
    ("inequalities", "inequalities.tau_scan", "lgsim.inequalities", "tau_scan"),
    ("inequalities", "inequalities.region_scan", "lgsim.scenarios", "violation_region_scan"),
    ("inequalities", "inequalities.to_scan_result", "lgsim.inequalities",
     "RegionScanResult.to_scan_result"),
    ("inequalities", "inequalities.scan_to_csv", "lgsim.cli", "scan_to_csv"),
    ("observables.exact", "observables.exact", "lgsim.inequalities", "exact_correlator"),
    ("observables.sampled", "observables.sampled", "lgsim.inequalities", "sampled_correlator"),
    ("mitigation", "mitigation.correlator", "lgsim.mitigation", "mitigate_correlator"),
    ("core.evolution", "core.evolution", "lgsim.observables", "evolve_density"),
    ("core.channels", "core.channels", "lgsim.core.evolution", "apply_channel"),
    ("core.states", "core.states.constructions", "lgsim.core.states",
     "DensityMatrix.__post_init__"),
    ("core.paulis", "core.paulis.embed", "lgsim.core.channels", "embed_operator"),
    ("core.paulis", "core.paulis.embed", "lgsim.core.paulis", "embed_operator"),
    ("core.paulis", "core.paulis.matrix", "lgsim.core.paulis", "pauli_string_matrix"),
)

COMPLEX_BYTES = 16


def _matmul_flops(d: int) -> float:
    return 8.0 * d**3


def _channel_work(args, kwargs):
    """Kraus sum: two matmuls and one accumulate per operator."""
    rho, channel = args[:2]
    d = 2**rho.num_qubits
    ops = len(channel.kraus_ops)
    flops = ops * 2 * _matmul_flops(d)
    moved = ops * (2 * 3 + 3) * COMPLEX_BYTES * d * d
    return flops, moved


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []  # [name, layer, start_ns, end_ns, parent index, run id]
        self.stack = []
        self.counts = Counter()
        self.flops = Counter()
        self.bytes = Counter()

    def wrap(self, layer, counter, fn, work=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[counter] += 1
            if work is not None:
                flops, moved = work(args, kwargs)
                self.flops[layer] += flops
                self.bytes[layer] += moved
            record = [counter, layer, time.perf_counter_ns(), 0,
                      stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter_ns()
                stack.pop()

        return timed

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "spans": self.spans,
                "counts": dict(self.counts),
                "flops": dict(self.flops),
                "bytes": dict(self.bytes),
            }, fh)


def install(run_id: int) -> Tracer:
    """Wrap every entry point; a missing name raises, so a rename in the
    program cannot silently drop a layer."""
    from lgsim.core.paulis import PauliSumHamiltonian

    tracer = Tracer(run_id)

    def evolution_work(args, kwargs):
        """Unitary conjugations (two matmuls each) plus propagator builds
        (one matmul each); Kraus channels are counted by core.channels."""
        rho, dynamics, t_start, t_end = args[:4]
        duration = t_end - t_start
        d = 2**rho.num_qubits
        if duration == 0:
            matmuls = 0
        elif isinstance(dynamics, PauliSumHamiltonian):
            matmuls = 1 + 2
        else:
            matmuls = 2 + 2 * 2 * dynamics.segment_steps(duration)
        return matmuls * _matmul_flops(d), matmuls * 3 * COMPLEX_BYTES * d * d

    work = {"core.channels": _channel_work, "core.evolution": evolution_work}
    for layer, counter, module_name, attr in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(layer, counter, raw.__func__))
        else:
            wrapped = tracer.wrap(layer, counter, raw, work.get(layer))
        setattr(owner, name, wrapped)

    mitigation = importlib.import_module("lgsim.mitigation")
    mitigate = mitigation.mitigate

    def counted_mitigate(raw, m, return_method=False):
        x, method = mitigate(raw, m, return_method=True)
        tracer.counts[f"mitigation.mitigate.{method}"] += 1
        return (x, method) if return_method else x

    mitigation.mitigate = tracer.wrap("mitigation", "mitigation.mitigate", counted_mitigate)
    return tracer
