"""One cold `lgsim scan` process with timing marks.

Usage: child.py CONFIG OUT_DIR SRC_DIR [TRACE_RUN_ID]

Does what the `lgsim` console script does (import lgsim.cli, call main with
`scan CONFIG --out OUT_DIR`), with a validated `ScenarioSpec.from_file`
timed between the import and the scan. Writes CLOCK_MONOTONIC marks to OUT_DIR/marks.json
and, when traced, the spans to OUT_DIR/spans.json. Exits with the CLI's code.
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    config, out, src = argv[:3]
    trace_run = int(argv[3]) if len(argv) > 3 else None
    marks = {"start": time.monotonic()}
    import lgsim
    import lgsim.cli

    marks["import_done"] = time.monotonic()
    from lgsim.scenarios import ScenarioSpec

    ScenarioSpec.from_file(config)
    marks["config_done"] = time.monotonic()
    if not Path(lgsim.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"lgsim imported from {lgsim.__file__}, not from {src}", file=sys.stderr)
        return 4

    tracer = None
    if trace_run is not None:
        import tracer as tracing

        tracer = tracing.install(trace_run)
    marks["scan_start"] = time.monotonic()
    code = lgsim.cli.main(["scan", config, "--out", out])
    marks["scan_end"] = time.monotonic()
    if tracer is not None:
        tracer.dump(Path(out) / "spans.json")
    (Path(out) / "marks.json").write_text(json.dumps(marks))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
