"""Command-line front end: scan runner, calibration, mitigation, oracle.

Exit codes: 0 success, 2 usage/config problems, 3 runtime failures. ``main``
decides them for every command: an unusable path (``OSError``) exits 2 naming
it, a ``ConfigError`` or ``InvalidNoiseParameter`` exits 2 with its message,
and any other ``LgsimError`` exits 3. A command maps its own input-file errors
to 2 before they reach ``main``.
``LGSIM_SEED`` provides a seed when neither the flag nor the config sets one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .core.channels import NoiseModel
from .errors import ConfigError, InvalidNoiseParameter, LgsimError
from .inequalities import joint_distribution_oracle, scan_to_csv
from .mitigation import ConfusionMatrix, calibrate, mitigate
from .observables import CountsVector, _check_bit_keys, _integer
from .scenarios import SCENARIOS, ScenarioSpec, _seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
MAX_SHOTS = 2**63 - 1  # numpy draws counts as int64


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(flag_seed, config_seed):
    if flag_seed is not None:
        return _seed(flag_seed, "--seed")
    if config_seed is not None:
        return config_seed
    env = os.environ.get("LGSIM_SEED")
    if env is not None:
        # int() keeps every digit of a long seed; "2.0" or "x" stay text and fail
        try:
            env = int(env)
        except ValueError:
            pass
        return _seed(env, "LGSIM_SEED")
    return None


def _cmd_scan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        spec = ScenarioSpec.from_file(args.config)
        engine = spec.engine
        if args.engine is not None:
            engine = replace(engine, kind=args.engine)
        if args.shots is not None:
            if args.shots < 1:
                raise ConfigError(f"--shots must be >= 1, got {args.shots}")
            engine = replace(engine, n_shots=args.shots)
        if args.mitigate:
            engine = replace(engine, mitigate=True)
        if engine.kind == "sampled" and not 2 <= engine.n_shots <= MAX_SHOTS:
            source = "--shots" if args.shots is not None else "engine.shots"
            raise ConfigError(
                f"{source} must be in 2..{MAX_SHOTS} for a sampled scan (one shot has no "
                f"error bar), got {engine.n_shots}"
            )
        seed = _resolve_seed(args.seed, engine.seed)
        spec.engine = replace(engine, seed=seed)
    except ValueError as err:
        return _fail(str(err), EXIT_USAGE)
    out_dir = Path(args.out)
    # the directories this call creates, deepest first; an unusable path
    # fails in mkdir, before the run
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        scan = spec.run()
    except BaseException:
        for path in created:  # a failed run leaves no empty output directory
            path.rmdir()
        raise

    # echo the resolved seed so a manifest rerun reproduces the run exactly
    resolved_seed = scan.metadata.get("engine", {}).get("seed", seed)
    config_echo = spec.to_config()
    config_echo["engine"]["seed"] = resolved_seed

    csv_path, manifest_path = out_dir / "scan.csv", out_dir / "manifest.json"
    csv_path.write_text(scan_to_csv(scan), newline="")
    manifest = {
        "schema_version": 1,
        "package_version": __version__,
        "config": config_echo,
        "seed": resolved_seed,
        "noise_digest": scan.metadata.get("noise_digest"),
        "outputs": {"scan_csv": csv_path.name},
        "violations": scan.violation_counts(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": round(time.perf_counter() - started, 6),
        "argv": list(sys.argv[1:]) if sys.argv else [],
    }
    try:
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError:
        csv_path.unlink()  # no scan.csv without its manifest
        raise

    counts = scan.violation_counts()
    summary = ", ".join(f"{name}={count}" for name, count in counts.items())
    print(
        f"{spec.name}: {len(scan.grid)} grid points; violating points: {summary}; "
        f"wrote {csv_path}"
    )
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        if (args.flip_prob is None) == (args.matrix is None):
            raise ConfigError("provide exactly one of --flip-prob or --matrix")
        if not 1 <= args.shots <= MAX_SHOTS:
            raise ConfigError(f"--shots must be in 1..{MAX_SHOTS}, got {args.shots}")
        if args.matrix is not None:
            confusion = ConfusionMatrix.from_json(Path(args.matrix).read_text())
        else:
            confusion = ConfusionMatrix.symmetric(args.flip_prob)
        noise = NoiseModel(readout_confusion=confusion)
        estimated = calibrate(
            noise, args.bits, shots_per_state=args.shots, seed=args.seed, mode=args.mode
        )
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(estimated.to_json() + "\n")
    except LgsimError as err:
        return _fail(str(err), EXIT_USAGE)
    except (KeyError, TypeError, ValueError) as err:
        return _fail(f"bad matrix file: {err}", EXIT_USAGE)
    print(f"calibrated {args.bits}-bit confusion matrix; condition number "
          f"{estimated.condition_number():.6g}; wrote {out}")
    return EXIT_OK


def _load_counts(path: Path, bits: int) -> CountsVector:
    """Counts from ``{"counts": {bits: count}, "num_bits"?}`` or ``{"outcomes":
    {"++": count, ...}, "n_shots": n}``, which are 2-bit. Bit keys are checked,
    then num_bits against the ``bits``-bit matrix, before the 2^num_bits
    table is built."""
    data = json.loads(path.read_text())
    sign_keyed = "outcomes" in data
    if sign_keyed:
        num_bits = 2
    else:
        table, num_bits = data["counts"], data.get("num_bits")
        if not isinstance(table, dict) or (not table and num_bits is None):
            raise ValueError(f"'counts' must map one or more bit strings to counts, got {table!r}")
        if num_bits is None:
            num_bits = max(len(k) for k in table)
        num_bits = _integer(num_bits, "counts 'num_bits'")
        _check_bit_keys(num_bits, table)
    if num_bits != bits:
        raise ValueError(f"counts 'num_bits' {num_bits} does not match the {bits}-bit matrix")
    if sign_keyed:
        return CountsVector.from_outcomes(data["outcomes"], data["n_shots"])
    return CountsVector.from_dict(num_bits, table)


def _cmd_mitigate(args: argparse.Namespace) -> int:
    try:
        matrix = ConfusionMatrix.from_json(Path(args.matrix).read_text())
        raw = _load_counts(Path(args.counts), matrix.num_bits)
    except (KeyError, TypeError, ValueError, OverflowError, LgsimError) as err:
        return _fail(f"bad input file: {err}", EXIT_USAGE)
    probs, method = mitigate(raw, matrix, return_method=True)
    payload = {
        "num_bits": matrix.num_bits,
        "method": method,
        "probabilities": {
            format(i, f"0{matrix.num_bits}b"): float(p) for i, p in enumerate(probs)
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"mitigated {raw.total} counts via {method}; wrote {out}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.distribution).read_text())
        result = joint_distribution_oracle(data)
    except ValueError as err:  # InvalidDistribution is one
        return _fail(f"bad distribution: {err}", EXIT_USAGE)
    print(f"C12 = {result.c12:.12g}")
    print(f"C23 = {result.c23:.12g}")
    print(f"C13 = {result.c13:.12g}")
    print(f"K3 (C12 + C23 - C13)    = {result.k3_from_correlators:.12g}")
    print(f"K3 (1 - 4[P+-+ + P-+-]) = {result.k3_from_counting:.12g}")
    if not result.consistent(1e-12):
        return _fail(
            "the two third-order computations disagree beyond 1e-12", EXIT_RUNTIME
        )
    return EXIT_OK


def _cmd_list_scenarios(_: argparse.Namespace) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name, scenario in SCENARIOS.items():
        print(f"{name:<{width}}  {scenario.description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsim",
        description="Temporal and spatio-temporal inequality scans for few-qubit systems",
    )
    parser.add_argument("--version", action="version", version=f"lgsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a scenario from a config file")
    scan.add_argument("config", help="scenario config JSON (or a previous manifest.json)")
    scan.add_argument("--engine", choices=("exact", "sampled"), default=None)
    scan.add_argument("--shots", type=int, default=None)
    scan.add_argument("--seed", type=int, default=None)
    scan.add_argument("--mitigate", action="store_true", help="apply readout mitigation")
    scan.add_argument("--out", default=".", help="output directory (default: .)")
    scan.set_defaults(func=_cmd_scan)

    cal = sub.add_parser("calibrate", help="estimate a readout confusion matrix")
    cal.add_argument("--bits", type=int, required=True)
    cal.add_argument("--flip-prob", type=float, default=None)
    cal.add_argument("--matrix", default=None, help="true confusion matrix JSON")
    cal.add_argument("--shots", type=int, default=8192)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--mode", choices=("auto", "full", "tensor"), default="auto")
    cal.add_argument("--out", required=True)
    cal.set_defaults(func=_cmd_calibrate)

    mit = sub.add_parser("mitigate", help="apply a confusion matrix to counts")
    mit.add_argument("--counts", required=True, help="counts JSON")
    mit.add_argument("--matrix", required=True, help="confusion matrix JSON")
    mit.add_argument("--out", required=True)
    mit.set_defaults(func=_cmd_mitigate)

    orc = sub.add_parser("oracle", help="check a classical 3-outcome record")
    orc.add_argument("--distribution", required=True, help="8-entry distribution JSON")
    orc.set_defaults(func=_cmd_oracle)

    lst = sub.add_parser("list-scenarios", help="list available scenarios")
    lst.set_defaults(func=_cmd_list_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(err.code) if err.code else EXIT_OK
    try:
        return args.func(args)
    except OSError as err:
        return _fail(f"cannot use {err.filename}: {err.strerror}", EXIT_USAGE)
    except (ConfigError, InvalidNoiseParameter) as err:
        return _fail(str(err), EXIT_USAGE)
    except LgsimError as err:
        return _fail(str(err), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
