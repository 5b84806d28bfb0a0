"""Template-guided rule inference (paper §5.1, Figure 5).

For each template the inferencer:

1. finds eligible attributes — those whose inferred column type matches
   the template's slot types ("the type information provides an intuitive
   and effective way of attribute selection, which is critical to solve
   the scalability problem");
2. iterates over every (A, B) instantiation and gathers verdicts from
   the template's validation method;
3. computes support / confidence / entropy and runs the filter pipeline.

Type-restricted instantiation is the paper's answer to the attribute
explosion of §2.2; :meth:`RuleInferencer.candidate_pair_count` exposes the
combinatorics for the ablation benchmark.

Each :meth:`RuleInferencer.infer` call builds a :class:`TrainingIndex` —
one interned occurrence-tuple id per system and attribute — and drops it
when it returns.  Templates that declare ``needs_environment=False`` (the
seven value-only built-ins) count the distinct ``(A, B)`` value pairs
across systems and validate each once, whatever ``restrict_types`` is.
Every other template still validates once per system; custom templates
(``$$Template`` lines or a programmatic :class:`RuleTemplate`) keep the
default ``needs_environment=True`` and so take this per-system path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.dataset import AssembledSystem, Dataset
from repro.core.filters import FilterDecision, RuleFilterPipeline
from repro.core.rules import ConcreteRule, RuleSet
from repro.core.templates import RuleTemplate, default_templates
from repro.core.types import ConfigType, TypedValue
from repro.mining.entropy import DEFAULT_ENTROPY_THRESHOLD
from repro.obs.metrics import get_registry
from repro.obs.model import Provenance
from repro.obs.tracing import span


@dataclass
class InferenceResult:
    """Rules plus the filtering audit trail for one inference run."""

    rules: RuleSet
    #: All candidates that met support+confidence, pre-entropy — needed by
    #: the Table 13 ablation without re-running inference.
    pre_entropy_rules: RuleSet
    decisions: Dict[Tuple[str, str, str], FilterDecision]
    candidate_pairs: int
    #: Per-candidate evidence record (key → :class:`Provenance`),
    #: covering kept rules *and* dropped candidates with their rejecting
    #: filter.  Contributing image ids are retained only for candidates
    #: that survived support+confidence — dropped ones keep counts only,
    #: so the audit stays compact at mining scale.
    audit: Dict[Tuple[str, str, str], Provenance] = field(default_factory=dict)


class TrainingIndex:
    """Columnar view of a dataset's rows for one inference run.

    :meth:`column` gives one integer per system, in dataset order: the
    interned id of that system's occurrence tuple for the attribute, or
    ``-1`` when the attribute is absent.  ``values[id]`` maps an id back
    to its :class:`TypedValue` tuple.  Equal tuples share one id across
    systems and attributes, so the distinct ``(A, B)`` value pairs of an
    instantiation are the distinct id pairs of two columns.  A column is
    built on first use: attributes no candidate pair binds (about half
    of them on the benchmark corpora) are never indexed.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.systems: List[AssembledSystem] = list(dataset)
        self.values: List[Tuple[TypedValue, ...]] = []
        self._ids: Dict[Tuple[TypedValue, ...], int] = {}
        self._columns: Dict[str, List[int]] = {}

    def column(self, attribute: str) -> List[int]:
        column = self._columns.get(attribute)
        if column is None:
            column = self._columns[attribute] = [
                self._intern(system.values_of(attribute)) for system in self.systems
            ]
        return column

    def _intern(self, occurrences: Tuple[TypedValue, ...]) -> int:
        if not occurrences:
            return -1
        value_id = self._ids.get(occurrences)
        if value_id is None:
            value_id = self._ids[occurrences] = len(self.values)
            self.values.append(occurrences)
        return value_id


class RuleInferencer:
    """Learns concrete rules from an assembled dataset."""

    def __init__(
        self,
        templates: Optional[Sequence[RuleTemplate]] = None,
        min_support_fraction: float = 0.10,
        min_confidence: float = 0.90,
        entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD,
        use_entropy: bool = True,
        restrict_types: bool = True,
    ) -> None:
        self.templates = list(templates if templates is not None else default_templates())
        self.min_support_fraction = min_support_fraction
        self.min_confidence = min_confidence
        self.entropy_threshold = entropy_threshold
        self.use_entropy = use_entropy
        #: ``False`` disables type-based slot restriction (ablation of the
        #: paper's scalability mechanism): every attribute becomes eligible
        #: for every slot.
        self.restrict_types = restrict_types

    # -- eligibility -------------------------------------------------------------

    def eligible_attributes(
        self, dataset: Dataset, slot_type: ConfigType
    ) -> List[str]:
        """Attributes that may fill a slot of *slot_type*.

        ``String``-typed slots accept any attribute (the equality templates
        of Table 6 apply to "another entry of same type" — the same-type
        constraint is enforced pairwise in :meth:`_pairs`).
        """
        if not self.restrict_types:
            return dataset.attributes()
        if slot_type is ConfigType.STRING:
            return dataset.attributes()
        return dataset.attributes_of_type(slot_type)

    def _pairs(
        self, dataset: Dataset, template: RuleTemplate
    ) -> Iterable[Tuple[str, str]]:
        # Conditions on one slot filter that slot's list once; only the
        # pairwise ones run per pair.  Order is left-major, right sorted.
        augmented, multi = dataset.is_augmented, dataset.is_multi_valued
        left = self.eligible_attributes(dataset, template.type_a)
        right = self.eligible_attributes(dataset, template.type_b)
        if not template.allow_augmented:
            left = [a for a in left if not augmented(a)]
            right = [b for b in right if not augmented(b)]
        if template.slot_b_augmented_only:
            left = [a for a in left if not augmented(a)]
            right = [b for b in right if augmented(b)]
        if template.multiplicity == "single":
            left = [a for a in left if not multi(a)]
            right = [b for b in right if not multi(b)]
        same_type_required = (
            template.type_a is ConfigType.STRING
            and template.type_b is ConfigType.STRING
            and self.restrict_types
        )
        by_type: Dict[Optional[ConfigType], List[str]] = {}
        if same_type_required:
            for b in right:
                by_type.setdefault(dataset.type_of(b), []).append(b)
        for a in left:
            partners = right
            if same_type_required:
                type_a = dataset.type_of(a)
                if type_a is None or type_a.is_trivial:
                    continue
                partners = by_type.get(type_a, [])
            multi_a = multi(a)
            for b in partners:
                if a == b:
                    continue
                if template.symmetric and a > b:
                    continue
                if template.multiplicity == "multi" and not (multi_a or multi(b)):
                    continue
                yield a, b

    def candidate_pair_count(self, dataset: Dataset) -> int:
        """Total (template, A, B) instantiations the run will consider."""
        return sum(
            sum(1 for _ in self._pairs(dataset, template))
            for template in self.templates
        )

    # -- inference ---------------------------------------------------------------

    def infer(self, dataset: Dataset) -> InferenceResult:
        """Run the full Figure 5 workflow over *dataset*."""
        pipeline = RuleFilterPipeline(
            training_size=len(dataset),
            min_support_fraction=self.min_support_fraction,
            min_confidence=self.min_confidence,
            entropy_threshold=self.entropy_threshold,
            use_entropy=self.use_entropy,
        )
        kept = RuleSet()
        pre_entropy = RuleSet()
        decisions: Dict[Tuple[str, str, str], FilterDecision] = {}
        audit: Dict[Tuple[str, str, str], Provenance] = {}
        pair_count = 0
        registry = get_registry()
        with span("infer", templates=len(self.templates)) as infer_span:
            index = TrainingIndex(dataset)
            for template in self.templates:
                # Telemetry is aggregated per template, never per pair:
                # the inner loop is the hottest path in learning.
                t_pairs = t_kept = 0
                t_drops: Dict[str, int] = {}
                with span("infer.template", template=template.name) as t_span:
                    for attr_a, attr_b in self._pairs(dataset, template):
                        t_pairs += 1
                        evaluated = self._evaluate_pair(
                            index, dataset, template, attr_a, attr_b
                        )
                        if evaluated is None:
                            continue
                        rule, contributors = evaluated
                        decision = pipeline.decide(rule, template)
                        survived = decision in (
                            FilterDecision.KEPT, FilterDecision.LOW_ENTROPY
                        )
                        provenance = pipeline.provenance(
                            rule, template, decision,
                            contributors() if survived else (),
                        )
                        decisions[rule.key] = decision
                        audit[rule.key] = provenance
                        if survived:
                            rule = replace(rule, provenance=provenance)
                            pre_entropy.add(rule)
                        if decision is FilterDecision.KEPT:
                            kept.add(rule)
                            t_kept += 1
                        else:
                            t_drops[decision.value] = t_drops.get(decision.value, 0) + 1
                    t_span.annotate(pairs=t_pairs, kept=t_kept)
                pair_count += t_pairs
                registry.counter(
                    "infer.pairs.candidate", template=template.name
                ).inc(t_pairs)
                registry.counter("infer.rules.kept", template=template.name).inc(t_kept)
                for reason, dropped in t_drops.items():
                    registry.counter(
                        "infer.rules.dropped", template=template.name, reason=reason
                    ).inc(dropped)
            infer_span.annotate(pairs=pair_count, kept=len(kept))
        return InferenceResult(
            rules=kept,
            pre_entropy_rules=pre_entropy,
            decisions=decisions,
            candidate_pairs=pair_count,
            audit=audit,
        )

    def _evaluate_pair(
        self,
        index: TrainingIndex,
        dataset: Dataset,
        template: RuleTemplate,
        attr_a: str,
        attr_b: str,
    ) -> Optional[Tuple[ConcreteRule, Callable[[], Tuple[str, ...]]]]:
        """Gather verdicts for one instantiation across all systems.

        Returns the candidate rule plus a function that materialises the
        ids of the contributing images (the systems where the rule was
        applicable — the provenance population), in dataset order; only
        candidates that survive support and confidence call it.
        """
        column_a = index.column(attr_a)
        column_b = index.column(attr_b)
        values = index.values
        support = valid = 0
        if template.needs_environment:
            contributors: List[str] = []
            for system, id_a, id_b in zip(index.systems, column_a, column_b):
                if id_a < 0 or id_b < 0:
                    continue
                verdict = template.verdict(values[id_a], values[id_b], system)
                if verdict is None:
                    continue
                contributors.append(system.image_id)
                if verdict:
                    valid += 1
            support = len(contributors)

            def materialise() -> Tuple[str, ...]:
                return tuple(contributors)
        else:
            applicable = set()
            for pair, count in Counter(zip(column_a, column_b)).items():
                id_a, id_b = pair
                if id_a < 0 or id_b < 0:
                    continue
                verdict = template.verdict(values[id_a], values[id_b], None)
                if verdict is None:
                    continue
                applicable.add(pair)
                support += count
                if verdict:
                    valid += count

            def materialise() -> Tuple[str, ...]:
                return tuple(
                    system.image_id
                    for system, pair in zip(index.systems, zip(column_a, column_b))
                    if pair in applicable
                )
        if not support:
            return None
        stats_a = dataset.stats(attr_a)
        stats_b = dataset.stats(attr_b)
        rule = ConcreteRule(
            template_name=template.name,
            attribute_a=attr_a,
            attribute_b=attr_b,
            relation=template.relation.value,
            support=support,
            valid_count=valid,
            entropy_a=stats_a.entropy if stats_a else 0.0,
            entropy_b=stats_b.entropy if stats_b else 0.0,
            description=template.description,
        )
        return rule, materialise
