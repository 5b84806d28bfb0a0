"""Write ``perfbench/reference.json``: what each seed's outputs must be.

    python3 perfbench/make_reference.py --seeds 0-99

For every seed this trains serially, checks every audit target with
``EnCore.check`` one at a time and replays the serve targets through a
model loaded from a snapshot, then stores the ruleset digest, the
report digests and the number of injected errors flagged.  The
benchmark reaches the same outputs by other paths (``workers=2``, the
daemon), so a match checks those paths against the serial one.
Regenerate only when a change to learned rules or reports is meant.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402


def reference_for(seed: int, size: inputs.Size) -> dict:
    from repro.core.pipeline import EnCore
    from repro.sysmodel.snapshot import image_from_dict, image_to_dict

    encore = EnCore()
    model = encore.train(inputs.training_corpus(seed, size))
    targets, truth = inputs.audit_targets(seed, size)
    audit_reports = [encore.check(target) for target in targets]
    with tempfile.TemporaryDirectory() as tmp:
        path = encore.save_model(Path(tmp) / "model.json")
        local = EnCore()
        local.load_model(path)
    served, served_truth = inputs.serve_targets(seed, size)
    serve_reports = [
        local.check(image_from_dict(json.loads(json.dumps(image_to_dict(t)))))
        for t in served
    ]
    return {
        "ruleset_digest": model.ruleset_digest(),
        "audit_digest": inputs.reports_digest(
            [inputs.canonical(r.to_dict()) for r in audit_reports]),
        "audit_flagged": inputs.detected(audit_reports, truth)[0],
        "serve_digest": inputs.reports_digest(
            [inputs.canonical(r.to_dict()) for r in serve_reports]),
        "serve_flagged": inputs.detected(serve_reports, served_truth)[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    size = inputs.SIZES["full"]
    seeds = {}
    for seed in range(first, last + 1):
        seeds[str(seed)] = reference_for(seed, size)
        print(f"seed {seed}: {seeds[str(seed)]['ruleset_digest'][:12]}", file=sys.stderr)
    document = {"size": size.to_dict(), "seeds": seeds}
    inputs.REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
