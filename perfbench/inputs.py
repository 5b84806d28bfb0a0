"""Seeded inputs, digests and the reference file.

Every input is a pure function of ``(seed, size)``: the training corpus,
the audit fleet and the serve target snapshots all come from
``Ec2CorpusGenerator(seed=seed)`` with apache, mysql and php, at image
indices that never overlap.  Injected targets get 15 ConfErr errors in
one app; the app rotates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

APPS = ("apache", "mysql", "php")
#: One audit target in eight carries injected errors; one serve target
#: in four, so that its 64 targets still hold 240 errors and recall is
#: not decided by a handful of them.
AUDIT_INJECT_EVERY = 8
SERVE_INJECT_EVERY = 4
INJECTED_ERRORS = 15
#: First generator index of the audit fleet and of the serve snapshots;
#: far above any training index, so targets are never training images.
AUDIT_BASE = 100_000
SERVE_BASE = 200_000

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Size:
    train_images: int
    audit_targets: int
    serve_targets: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "train_images": self.train_images,
            "audit_targets": self.audit_targets,
            "serve_targets": self.serve_targets,
        }


SIZES = {
    "full": Size(train_images=160, audit_targets=240, serve_targets=64),
    "tiny": Size(train_images=24, audit_targets=24, serve_targets=8),
}


def _generator(seed: int):
    from repro.corpus.generator import Ec2CorpusGenerator

    return Ec2CorpusGenerator(seed=seed, apps=APPS)


def training_corpus(seed: int, size: Size) -> list:
    return _generator(seed).generate(size.train_images)


def training_corpora(seed: int, size: Size, count: int) -> List[list]:
    """*count* disjoint training corpora; the first is :func:`training_corpus`."""
    generator = _generator(seed)
    n = size.train_images
    return [[generator.generate_one(index) for index in range(part * n, (part + 1) * n)]
            for part in range(count)]


def targets(seed: int, base: int, count: int,
            inject_every: int) -> Tuple[list, List[Tuple[int, list]]]:
    """*count* unseen targets; every *inject_every*-th has injected errors.

    Returns the images and ``(position, [InjectedError])`` ground truth
    for each injected target.  The injected app rotates over ``APPS``.
    """
    from repro.injection.conferr import ConfErrInjector

    generator = _generator(seed)
    injector = ConfErrInjector(seed=seed)
    images, truth = [], []
    for position in range(count):
        image = generator.generate_one(base + position)
        if position % inject_every == inject_every - 1:
            app = APPS[(position // inject_every) % len(APPS)]
            image, errors = injector.inject(image, app, count=INJECTED_ERRORS)
            truth.append((position, errors))
        images.append(image)
    return images, truth


def audit_targets(seed: int, size: Size):
    return targets(seed, AUDIT_BASE, size.audit_targets, AUDIT_INJECT_EVERY)


def serve_targets(seed: int, size: Size):
    return targets(seed, SERVE_BASE, size.serve_targets, SERVE_INJECT_EVERY)


def canonical(report_dict: dict) -> str:
    """The byte form two reports are compared in."""
    return json.dumps(report_dict, sort_keys=True, separators=(",", ":"))


def reports_digest(canonical_reports: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(canonical_reports).encode()).hexdigest()


def detected(reports: Sequence, truth: Sequence[Tuple[int, list]]) -> Tuple[int, int]:
    """``(flagged, injected)`` under the Table 8 protocol, no top-n cut."""
    from repro.evaluation.matching import error_detected

    flagged = total = 0
    for position, errors in truth:
        for error in errors:
            total += 1
            flagged += error_detected(reports[position], error)
    return flagged, total


def load_reference(seed: int, size: Size) -> Optional[dict]:
    """The stored digests for *seed*, or ``None`` when none apply."""
    try:
        data = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    if data.get("size") != size.to_dict():
        return None
    return data.get("seeds", {}).get(str(seed))
