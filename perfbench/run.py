"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 14 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
the ``per_layer`` ones with ``--trace 1``).  The exit code is 0 when
every output matched, 1 on a mismatch, 2 when the program is missing.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _metric_specs(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    size = inputs.SIZES[args.size]
    reference = inputs.load_reference(args.seed, size)
    if reference is None:
        print(f"perfbench: no reference for seed {args.seed} at size {args.size}; "
              "checking consistency between runs only", file=sys.stderr)
    # A terminated run still stops its daemon and pool and removes its
    # workspace: SystemExit unwinds through the workloads' cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    specs = _metric_specs(bool(args.trace))
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=BENCH / "work"))
    run = workloads.Run(ROOT, args.seed, args.seconds, bool(args.trace), size,
                        workdir, reference)
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.trace:
        run.recorder.write(BENCH / "out" / f"spans-{args.workload}-{args.seed}.json")
    else:
        run.metrics["peak_rss_mb"] = _peak_rss_mb()

    missing = sorted(set(specs) - set(run.metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name], "unit": unit}
            for name, unit in specs.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
