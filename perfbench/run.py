"""lgsim benchmark: seeded `lgsim scan` workloads, each run in a cold process.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain_noisy --seed 1 --seconds 30 --trace 0

Child processes run one at a time, closed loop, until --seconds have passed.
Every run's scan.csv is checked against an independent reference after the
child exits, outside the timed span. With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 untraced
and traced children alternate and it carries the per-layer metrics.
--save DIR also writes the full result set (samples and environment block)
for perfbench/compare.py.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# Children and the reference computation share one BLAS thread setting; it
# must be set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3  # per kind of child, even when --seconds runs out first
CHILD_TIMEOUT_S = 60.0
LAST_START_S = 100.0  # no child starts later than this into the loop
LAYERS = (
    "cli", "scenarios", "inequalities", "observables.exact", "observables.sampled",
    "mitigation", "core.evolution", "core.channels", "core.states", "core.paulis",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="directory for the full result set")
    return parser.parse_args(argv)


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def environment() -> dict:
    """Facts that must match before two result sets may be compared."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, config: Path, out: Path, env: dict, trace_run=None) -> dict:
    """Spawn one child, wait for it, and return its timings and max RSS."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(out), str(root / "src")]
    if trace_run is not None:
        cmd.append(str(trace_run))
    with open(out / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=root)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "traced": trace_run is not None,
        "exit_code": proc.returncode,
        "wall_s": exited - spawned,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    marks_path = out / "marks.json"
    if proc.returncode == 0 and marks_path.exists():
        marks = json.loads(marks_path.read_text())
        sample["setup_s"] = marks["config_done"] - spawned
        sample["setup.import_s"] = marks["import_done"] - spawned
        sample["setup.config_s"] = marks["config_done"] - marks["import_done"]
        sample["scan_s"] = marks["scan_end"] - marks["scan_start"]
    return sample


def layer_figures(trace: dict) -> tuple[dict, Counter]:
    """Per-layer self time, counts and computed work of one traced child,
    and the number of spans each layer recorded."""
    spans = trace["spans"]
    covered = [0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns, calls = Counter(), Counter()
    for i, (_, layer, start, end, _, _) in enumerate(spans):
        self_ns[layer] += end - start - covered[i]
        calls[layer] += 1
    counts, flops, moved = trace["counts"], trace["flops"], trace["bytes"]
    figures = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    channel_calls = counts.get("core.channels", 0)
    mitigate_calls = counts.get("mitigation.mitigate", 0)
    figures.update({
        "core.channels.calls": channel_calls,
        "core.channels.gflop": flops.get("core.channels", 0) / 1e9,
        "core.channels.mb_moved": moved.get("core.channels", 0) / 1e6,
        "core.channels.embed_per_call": (
            counts.get("core.paulis.embed", 0) / channel_calls if channel_calls else 0.0
        ),
        "core.states.constructions": counts.get("core.states.constructions", 0),
        "core.evolution.calls": counts.get("core.evolution", 0),
        "core.evolution.gflop": flops.get("core.evolution", 0) / 1e9,
        "core.paulis.embed.calls": counts.get("core.paulis.embed", 0),
        "core.paulis.matrix.calls": counts.get("core.paulis.matrix", 0),
        "observables.exact.calls": counts.get("observables.exact", 0),
        "observables.sampled.calls": counts.get("observables.sampled", 0),
        "mitigation.mitigate.calls": mitigate_calls,
        "mitigation.inverse_ratio": (
            counts.get("mitigation.mitigate.inverse", 0) / mitigate_calls
            if mitigate_calls else 0.0
        ),
    })
    return figures, calls


def describe(name: str, unit: str, values: list) -> str:
    """Median plus the highest percentile that has at least ten samples
    beyond it, with the sample count."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={n}"
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        line += f", p{pct} {sorted(values)[n - 11]:.6g} {unit}"
    else:
        line += ", no percentile has 10 samples beyond it"
    return line + f", min {min(values):.6g}, max {max(values):.6g})"


def check_checkout(root: Path) -> str | None:
    for needed in ("BENCHMARK.json", "src/lgsim/cli.py", "tests/bruteforce.py"):
        if not (root / needed).is_file():
            return f"{needed} not found under {root}; run from the repository root"
    return None


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    problem = check_checkout(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, wanted)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, root: Path, work: Path, wanted: list) -> int:
    env_block = environment()
    config = workloads.make_config(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    expected = reference.expected_outputs(args.workload, config, args.seed, root)

    env = child_env(root)
    # untimed warm-up: byte-compiles lgsim and fills the page cache
    subprocess.run([sys.executable, "-c", "import lgsim.cli"], env=env, cwd=root,
                   check=True, timeout=CHILD_TIMEOUT_S)

    samples, traces = [], []
    kinds = (False, True) if args.trace else (False,)
    started = time.monotonic()
    run = 0
    while True:
        done = Counter(s["traced"] for s in samples)
        elapsed = time.monotonic() - started
        if elapsed >= LAST_START_S or (
            elapsed >= args.seconds and all(done[k] >= MIN_SAMPLES for k in kinds)
        ):
            break
        tracing = kinds[run % len(kinds)]
        out = work / f"run{run}"
        sample = run_child(root, config_path, out, env, run if tracing else None)
        if sample["exit_code"] != 0 or "scan_s" not in sample:
            stderr = (out / "stderr.txt").read_text(errors="replace").strip()
            problem = f"exit code {sample['exit_code']}: {stderr[-500:]}"
        else:
            problem = expected.check(out / "scan.csv")
            if tracing:
                figures, calls = layer_figures(json.loads((out / "spans.json").read_text()))
                traces.append(figures)
                silent = [layer for layer in workloads.EXPECTED_LAYERS[args.workload]
                          if calls[layer] == 0]
                if silent and problem is None:
                    problem = f"traced run recorded no calls into {silent}"
        sample["error"] = problem
        if problem is not None:
            print(f"run {run} failed: {problem}", file=sys.stderr)
        samples.append(sample)
        shutil.rmtree(out)
        run += 1

    failures = [s["error"] for s in samples if s["error"] is not None]
    # a run whose output failed the check still timed a whole scan
    timed = [s for s in samples if "scan_s" in s]
    plain = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    if not plain or (args.trace and not traces):
        print("error: no run completed a scan", file=sys.stderr)
        for problem in failures[:3]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    figures = {}
    for key in ("wall_s", "setup_s", "scan_s", "peak_rss_mb", "setup.import_s", "setup.config_s"):
        figures[key] = statistics.median(s[key] for s in plain)
    if args.trace:
        for key in traces[0]:
            figures[key] = statistics.median(t[key] for t in traces)
        figures["trace.overhead_s"] = (
            statistics.median(s["scan_s"] for s in traced) - figures["scan_s"]
        )
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: BENCHMARK.json names metrics this benchmark does not compute: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed}: {json.dumps(workloads.SIZES[args.workload])}")
    print(f"env: {json.dumps(env_block, sort_keys=True)}")
    for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("scan_s", "s"), ("peak_rss_mb", "MB")):
        print(describe(key, unit, [s[key] for s in plain]))
    print(f"error_rate: {len(failures) / len(samples):.6g} ratio "
          f"({len(failures)} failed of {len(samples)} attempted)")
    if args.trace:
        print(describe("traced scan_s", "s", [s["scan_s"] for s in traced]))
        for m in wanted:
            note = " (computed from shapes)" if m["unit"] in ("GFLOP", "MB") else ""
            print(f"{m['name']}: {figures[m['name']]:.6g} {m['unit']}{note}")

    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }
    if args.save:
        save = Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                    seconds=args.seconds, env=env_block, sizes=workloads.SIZES[args.workload],
                    config=config, samples=samples)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (save / name).write_text(json.dumps(full, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
