"""Golden behaviour contract: what EnCore learns and reports, pinned.

A fixed canonical workload — ``Ec2CorpusGenerator(seed=42)``, 40
training images, 10 checked targets (every other one carrying
ConfErr-injected errors) — is trained and checked at ``workers=1`` and
``workers=2``, without a result cache and with one (cold, then warm on
the same directory).  Three digests must equal
``data/canonical_digests.json``:

* ``ruleset_digest`` — the serialised rule set, provenance included;
* ``inference`` — every candidate's filter decision and provenance
  (dropped candidates included), in inference order;
* ``reports`` — one digest per checked target's report.

Performance work on the learning or checking path must leave all three
unchanged; a deliberate behaviour change regenerates the file with
``PYTHONPATH=src python -m tests.test_canonical_digests`` and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine.cache import ResultCache
from repro.injection.conferr import ConfErrInjector
from repro.obs.telemetry import Telemetry, scope

GOLDEN = Path(__file__).parent / "data" / "canonical_digests.json"

SEED = 42
TRAINING_IMAGES = 40
TARGETS = 10
TARGET_BASE = 1000
INJECTED_ERRORS = 5
APPS = ("apache", "mysql", "php")


def _sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _targets():
    generator = Ec2CorpusGenerator(seed=SEED)
    injector = ConfErrInjector(seed=SEED)
    out = []
    for position in range(TARGETS):
        image = generator.generate_one(TARGET_BASE + position)
        if position % 2:
            app = APPS[(position // 2) % len(APPS)]
            image, _ = injector.inject(image, app, count=INJECTED_ERRORS)
        out.append(image)
    return out


def inference_digest(result) -> str:
    """Decisions plus audit records of every candidate, in order."""
    return _sha256([
        [list(key), decision.value, result.audit[key].to_dict()]
        for key, decision in result.decisions.items()
    ])


def canonical_digests(workers: int, cache=None) -> dict:
    encore = EnCore()
    encore.set_cache(cache)
    model = encore.train(
        Ec2CorpusGenerator(seed=SEED).generate(TRAINING_IMAGES), workers=workers
    )
    reports = encore.check_many(_targets(), workers=workers)
    return {
        "ruleset_digest": model.ruleset_digest(),
        "rules": len(model.rules),
        "candidate_pairs": model.inference.candidate_pairs,
        "inference": inference_digest(model.inference),
        "reports": {r.image_id: _sha256(r.to_dict()) for r in reports},
        "warnings": sum(len(r.warnings) for r in reports),
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_canonical_digests_unchanged(workers):
    expected = json.loads(GOLDEN.read_text())
    actual = canonical_digests(workers)
    assert actual["reports"] == expected["reports"]
    assert actual == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_canonical_digests_with_result_cache(workers, tmp_path):
    """Rows served from the cache give the same rules and reports."""
    expected = json.loads(GOLDEN.read_text())
    hits = []
    for _run in ("cold", "warm"):
        with scope(Telemetry()) as telemetry:
            actual = canonical_digests(workers, ResultCache(tmp_path))
        assert actual == expected
        hits.append(telemetry.registry.total("cache.hit.total"))
    # The warm run assembles every training image and target from disk.
    assert hits == [0, TRAINING_IMAGES + TARGETS]


def test_canonical_targets_raise_warnings():
    """The pinned reports are not vacuous: injected targets warn."""
    expected = json.loads(GOLDEN.read_text())
    assert len(expected["reports"]) == TARGETS
    assert expected["rules"] > 0 and expected["warnings"] > 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(canonical_digests(1), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
