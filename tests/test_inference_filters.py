"""Tests for rule inference (paper §5.1) and rule filtering (§5.2)."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.assembler import DataAssembler
from repro.core.filters import FilterDecision, RuleFilterPipeline
from repro.core.inference import RuleInferencer, TrainingIndex
from repro.core.rules import ConcreteRule
from repro.core.templates import default_templates, template_by_name
from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel.image import ConfigFile, SystemImage


def make_mysql_image(index, owner="mysql", port="3306"):
    """A tiny coherent mysql image for controlled inference tests."""
    image = SystemImage(f"inf-{index:03d}")
    image.accounts.ensure_service_account("mysql", 27)
    datadir = f"/var/lib/mysql{index % 3}"
    image.fs.add_dir(datadir, owner=owner, group=owner, mode=0o700)
    image.add_config_file(
        ConfigFile(
            "mysql", "/etc/my.cnf",
            "[client]\n"
            f"port = {port}\n"
            "[mysqld]\n"
            f"datadir = {datadir}\n"
            "user = mysql\n"
            f"port = {port}\n",
        )
    )
    return image


@pytest.fixture()
def controlled_dataset():
    images = [make_mysql_image(i, port=("3306" if i % 2 else "3307")) for i in range(20)]
    return DataAssembler().assemble_corpus(images)


class TestFilterPipeline:
    def make_rule(self, support=20, valid=20, ha=1.0, hb=1.0):
        return ConcreteRule("less_number", "a", "b", "<", support, valid, ha, hb)

    def test_support_filter(self):
        pipeline = RuleFilterPipeline(training_size=100, min_support_fraction=0.1)
        template = template_by_name("less_number")
        assert pipeline.decide(self.make_rule(support=5, valid=5), template) is FilterDecision.LOW_SUPPORT
        assert pipeline.decide(self.make_rule(support=10, valid=10), template) is FilterDecision.KEPT

    def test_confidence_filter(self):
        pipeline = RuleFilterPipeline(training_size=100)
        template = template_by_name("less_number")
        assert pipeline.decide(self.make_rule(support=20, valid=17), template) is FilterDecision.LOW_CONFIDENCE

    def test_entropy_filter_on_numeric_template(self):
        pipeline = RuleFilterPipeline(training_size=100)
        template = template_by_name("less_number")
        decision = pipeline.decide(self.make_rule(ha=0.1), template)
        assert decision is FilterDecision.LOW_ENTROPY

    def test_entropy_exempt_templates(self):
        pipeline = RuleFilterPipeline(training_size=100)
        ownership = template_by_name("ownership")
        rule = ConcreteRule("ownership", "a", "b", "=>", 20, 20, 0.0, 0.0)
        assert pipeline.decide(rule, ownership) is FilterDecision.KEPT

    def test_entropy_filter_disabled(self):
        pipeline = RuleFilterPipeline(training_size=100, use_entropy=False)
        template = template_by_name("less_number")
        assert pipeline.decide(self.make_rule(ha=0.0), template) is FilterDecision.KEPT

    def test_stats_accounting(self):
        pipeline = RuleFilterPipeline(training_size=100)
        template = template_by_name("less_number")
        pipeline.decide(self.make_rule(), template)
        pipeline.decide(self.make_rule(support=1, valid=1), template)
        pipeline.decide(self.make_rule(ha=0.0), template)
        assert pipeline.stats.candidates == 3
        assert pipeline.stats.kept == 1
        assert pipeline.stats.dropped_support == 1
        assert pipeline.stats.dropped_entropy == 1
        assert len(pipeline.stats.entropy_filtered_rules) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RuleFilterPipeline(training_size=0)
        with pytest.raises(ValueError):
            RuleFilterPipeline(training_size=10, min_confidence=2.0)


class TestRuleInferencer:
    def test_learns_flagship_ownership_rule(self, controlled_dataset):
        """Figure 1(b): datadir => user, the paper's running example."""
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        keys = {r.key for r in result.rules}
        assert (
            "ownership", "mysql:mysqld/datadir", "mysql:mysqld/user"
        ) in keys

    def test_learns_port_equality(self, controlled_dataset):
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        keys = {r.key for r in result.rules}
        assert ("equal_same_type", "mysql:client/port", "mysql:mysqld/port") in keys

    def test_candidate_pairs_grow_without_type_restriction(self, controlled_dataset):
        restricted = RuleInferencer(restrict_types=True)
        unrestricted = RuleInferencer(restrict_types=False)
        assert unrestricted.candidate_pair_count(controlled_dataset) > \
            restricted.candidate_pair_count(controlled_dataset)

    def test_rules_meet_thresholds(self, controlled_dataset):
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        for rule in result.rules:
            assert rule.confidence >= 0.9
            assert rule.support >= 2  # 10% of 20

    def test_pre_entropy_superset(self, controlled_dataset):
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        kept = {r.key for r in result.rules}
        pre = {r.key for r in result.pre_entropy_rules}
        assert kept <= pre

    def test_symmetric_template_no_reversed_duplicates(self, controlled_dataset):
        result = RuleInferencer().infer(controlled_dataset)
        equal_pairs = {
            (r.attribute_a, r.attribute_b)
            for r in result.rules
            if r.template_name == "equal_same_type"
        }
        for a, b in equal_pairs:
            assert (b, a) not in equal_pairs

    def test_noisy_corpus_drops_confidence(self):
        """One image violating ownership drops, 5 of 20 kills the rule."""
        images = [make_mysql_image(i) for i in range(15)]
        images += [make_mysql_image(15 + i, owner="root") for i in range(5)]
        dataset = DataAssembler().assemble_corpus(images)
        result = RuleInferencer().infer(dataset)
        keys = {r.key for r in result.rules}
        assert ("ownership", "mysql:mysqld/datadir", "mysql:mysqld/user") not in keys

    def test_custom_template_list(self, controlled_dataset):
        only_ownership = [template_by_name("ownership")]
        result = RuleInferencer(templates=only_ownership).infer(controlled_dataset)
        assert all(r.template_name == "ownership" for r in result.rules)


def _audit(result):
    return [
        (key, decision, result.audit[key].to_dict())
        for key, decision in result.decisions.items()
    ]


class TestTrainingIndex:
    def test_columns_intern_occurrence_tuples(self, controlled_dataset):
        index = TrainingIndex(controlled_dataset)
        systems = controlled_dataset.systems
        for attribute in controlled_dataset.attributes():
            column = index.column(attribute)
            assert len(column) == len(systems)
            assert index.column(attribute) is column  # built once
            for system, value_id in zip(systems, column):
                occurrences = system.values_of(attribute)
                if not occurrences:
                    assert value_id == -1
                else:
                    assert index.values[value_id] == occurrences
        # Equal tuples share one id: ports alternate between two values.
        assert len(set(index.column("mysql:mysqld/port"))) == 2
        assert len(index.values) == len(set(index.values))

    def test_absent_attribute_is_minus_one(self, controlled_dataset, mysql_image):
        from repro.core.dataset import Dataset

        image = mysql_image.copy(image_id="no-client")
        dataset = Dataset(
            list(controlled_dataset) + [DataAssembler().assemble(image)]
        )
        index = TrainingIndex(dataset)
        assert index.column("mysql:client/port")[-1] == -1
        assert index.column("mysql:mysqld/port")[-1] >= 0

    @pytest.mark.parametrize("restrict_types", [True, False])
    def test_value_only_pairs_match_per_system_verdicts(
        self, small_corpus, restrict_types
    ):
        """Validating distinct value pairs once gives the per-system
        result: same candidates, decisions, counts and contributors.
        ``restrict_types=False`` only widens the candidate pairs; a
        php-only corpus keeps its every-attribute-in-every-slot product
        small."""
        images = (
            small_corpus[:30] if restrict_types
            else Ec2CorpusGenerator(seed=101, apps=("php",)).generate(20)
        )
        dataset = DataAssembler().assemble_corpus(images)
        templates = default_templates()
        assert {t.name for t in templates if not t.needs_environment} == {
            "equal_same_type", "one_instance_equal", "extended_boolean",
            "ip_subnet", "substring", "less_number", "less_size",
        }
        calls = Counter()

        def counted(template, path):
            def validator(a, b, system):
                calls[path] += 1
                return template.validator(a, b, system)
            return replace(template, validator=validator)

        value_grouped = [counted(t, "grouped") for t in templates]
        per_system = [
            replace(counted(t, "per_system"), needs_environment=True)
            for t in templates
        ]
        grouped = RuleInferencer(
            templates=value_grouped, restrict_types=restrict_types
        ).infer(dataset)
        reference = RuleInferencer(
            templates=per_system, restrict_types=restrict_types
        ).infer(dataset)
        assert _audit(grouped) == _audit(reference)
        assert grouped.rules.to_json() == reference.rules.to_json()
        assert any(p.contributing_images for p in grouped.audit.values())
        # The flag alone picks the grouped path, whatever restrict_types is.
        assert calls["grouped"] < calls["per_system"]

    def test_index_does_not_outlive_infer(self, controlled_dataset):
        before = dict(vars(controlled_dataset))
        result = RuleInferencer().infer(controlled_dataset)
        assert vars(controlled_dataset).keys() == before.keys()
        assert not any(
            isinstance(value, TrainingIndex) for value in vars(result).values()
        )
