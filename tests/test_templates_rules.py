"""Tests for rule templates (Table 6) and concrete rules."""

import pytest

from repro.core.assembler import DataAssembler
from repro.core.rules import ConcreteRule, RuleSet
from repro.core.templates import (
    RelationKind,
    default_templates,
    template_by_name,
)
from repro.core.types import ConfigType, TypedValue


@pytest.fixture()
def system(mysql_image):
    return DataAssembler().assemble(mysql_image)


def tv(value, config_type=ConfigType.STRING):
    return TypedValue(value, config_type)


class TestDefaultTemplates:
    def test_eleven_predefined(self):
        """Table 6 lists 11 predefined templates."""
        assert len(default_templates()) == 11

    def test_lookup_by_name(self):
        assert template_by_name("ownership").relation is RelationKind.OWNS
        with pytest.raises(KeyError):
            template_by_name("nope")

    def test_spec_rendering(self):
        spec = template_by_name("ownership").spec()
        assert "FilePath" in spec and "UserName" in spec


class TestEquality:
    def test_equal(self, system):
        template = template_by_name("equal_same_type")
        assert template.validate(tv("a"), tv("a"), system) is True
        assert template.validate(tv("a"), tv("b"), system) is False


class TestImplies:
    def test_antecedent_off_not_applicable(self, system):
        template = template_by_name("extended_boolean")
        assert template.validate(tv("off"), tv("on"), system) is None

    def test_antecedent_on(self, system):
        template = template_by_name("extended_boolean")
        assert template.validate(tv("on"), tv("True"), system) is True
        assert template.validate(tv("On"), tv("off"), system) is False


class TestSubnet:
    def test_prefix_match(self, system):
        template = template_by_name("ip_subnet")
        assert template.validate(tv("10.0.1.5"), tv("10.0.0.0"), system) is True
        assert template.validate(tv("192.168.1.1"), tv("10.0.0.0"), system) is False

    def test_full_address_not_applicable(self, system):
        template = template_by_name("ip_subnet")
        assert template.validate(tv("10.0.1.5"), tv("10.0.1.6"), system) is None

    def test_ipv6_not_applicable(self, system):
        template = template_by_name("ip_subnet")
        assert template.validate(tv("::1"), tv("10.0.0.0"), system) is None


class TestConcat:
    def test_existing_join(self, system):
        system.image.fs.add_file("/etc/httpd/modules/mod_x.so")
        template = template_by_name("concat_path")
        assert template.validate(
            tv("/etc/httpd"), tv("modules/mod_x.so"), system
        ) is True
        assert template.validate(
            tv("/etc/httpd"), tv("modules/none.so"), system
        ) is False


class TestSubstring:
    def test_prefix(self, system):
        template = template_by_name("substring")
        assert template.validate(tv("/var/lib"), tv("/var/lib/mysql"), system) is True
        assert template.validate(tv("/opt"), tv("/var/lib/mysql"), system) is False

    def test_identity_not_applicable(self, system):
        template = template_by_name("substring")
        assert template.validate(tv("/x"), tv("/x"), system) is None


class TestAccountTemplates:
    def test_user_in_group(self, system):
        template = template_by_name("user_in_group")
        assert template.validate(tv("mysql"), tv("mysql"), system) is True
        assert template.validate(tv("mysql"), tv("root"), system) is False
        assert template.validate(tv("ghost"), tv("mysql"), system) is False

    def test_ownership(self, system):
        template = template_by_name("ownership")
        assert template.validate(tv("/var/lib/mysql"), tv("mysql"), system) is True
        assert template.validate(tv("/var/lib/mysql"), tv("root"), system) is False

    def test_ownership_missing_path_not_applicable(self, system):
        template = template_by_name("ownership")
        assert template.validate(tv("/nowhere"), tv("mysql"), system) is None

    def test_not_accessible(self, system):
        template = template_by_name("not_accessible")
        # mode 0640 owner mysql: nobody cannot read, mysql can.
        assert template.validate(tv("/var/log/mysqld.log"), tv("nobody"), system) is True
        assert template.validate(tv("/var/log/mysqld.log"), tv("mysql"), system) is False


class TestOrderings:
    def test_less_number(self, system):
        template = template_by_name("less_number")
        assert template.validate(tv("5"), tv("20"), system) is True
        assert template.validate(tv("20"), tv("5"), system) is False
        assert template.validate(tv("x"), tv("5"), system) is None

    def test_less_size(self, system):
        template = template_by_name("less_size")
        assert template.validate(tv("8K"), tv("1M"), system) is True
        assert template.validate(tv("2G"), tv("64M"), system) is False
        assert template.validate(tv("64M"), tv("64M"), system) is True  # <= semantics
        assert template.validate(tv("weird"), tv("64M"), system) is None


class TestConcreteRule:
    def make_rule(self, **kw):
        defaults = dict(
            template_name="ownership",
            attribute_a="mysql:mysqld/datadir",
            attribute_b="mysql:mysqld/user",
            relation="=>",
            support=30,
            valid_count=30,
        )
        defaults.update(kw)
        return ConcreteRule(**defaults)

    def test_confidence(self):
        assert self.make_rule(valid_count=27).confidence == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_rule(valid_count=31)
        with pytest.raises(ValueError):
            self.make_rule(support=-1)

    def test_evaluate_against_system(self, system):
        rule = self.make_rule()
        template = template_by_name("ownership")
        assert rule.evaluate(system, template) is True
        system.image.fs.chown("/var/lib/mysql", owner="root")
        assert rule.evaluate(system, template) is False

    def test_verdict_any_occurrence_semantics(self):
        template = template_by_name("less_number")
        low, mid, high, word = (
            tv("1", ConfigType.NUMBER), tv("5", ConfigType.NUMBER),
            tv("9", ConfigType.NUMBER), tv("x"),
        )
        # Some pair validates: holds, whatever the other pairs say.
        assert template.verdict((high, low), (mid,), None) is True
        # Applicable pairs, none validating: violated.
        assert template.verdict((high,), (low, mid), None) is False
        # No applicable pair (non-numeric): not applicable.
        assert template.verdict((word,), (mid,), None) is None
        assert template.verdict((word, high), (mid,), None) is False

    def test_evaluate_absent_entries_ignored(self, system):
        rule = self.make_rule(attribute_a="mysql:missing")
        template = template_by_name("ownership")
        assert rule.evaluate(system, template) is None

    def test_serialisation_roundtrip(self):
        rule = self.make_rule(entropy_a=0.5, description="d")
        restored = ConcreteRule.from_dict(rule.to_dict())
        assert restored == rule

    def test_str(self):
        assert "=>" in str(self.make_rule())


class TestRuleSet:
    def test_dedupe_on_key(self):
        rules = RuleSet()
        rule = ConcreteRule("t", "a", "b", "==", 10, 10)
        assert rules.add(rule)
        assert not rules.add(ConcreteRule("t", "a", "b", "==", 5, 5))
        assert len(rules) == 1

    def test_queries(self):
        rules = RuleSet(
            [
                ConcreteRule("t1", "a", "b", "==", 10, 10),
                ConcreteRule("t2", "a", "c", "<", 10, 9),
            ]
        )
        assert len(rules.by_template("t1")) == 1
        assert len(rules.involving("a")) == 2
        assert len(rules.involving("c")) == 1

    def test_sorted_by_confidence(self):
        rules = RuleSet(
            [
                ConcreteRule("t", "a", "b", "==", 10, 9),
                ConcreteRule("t", "c", "d", "==", 10, 10),
            ]
        )
        ordered = rules.sorted_by_confidence()
        assert ordered[0].confidence == 1.0

    def test_save_load(self, tmp_path):
        rules = RuleSet([ConcreteRule("t", "a", "b", "==", 10, 10)])
        path = rules.save(tmp_path / "rules.json")
        restored = RuleSet.load(path)
        assert len(restored) == 1
        assert list(restored)[0].key == ("t", "a", "b")
