"""Tests for the shipped report schema and its validator."""

import copy

import pytest

from repro.explain import build_report_document, validate_report
from repro.explain.schema import (
    EXPLORE_SCHEMA,
    FORMAT_NAME,
    FORMAT_VERSION,
    PREDICT_SCHEMA,
    REPORT_SCHEMA,
)


@pytest.fixture(scope="module")
def document(page_report):
    return build_report_document([("racy.html", page_report)])


class TestDocumentValidates:
    def test_build_emits_valid_document(self, document):
        validate_report(document)  # must not raise

    def test_format_markers(self, document):
        assert document["format"] == FORMAT_NAME
        assert document["version"] == FORMAT_VERSION

    def test_totals_consistent(self, document):
        totals = document["totals"]
        assert totals["evidence_records"] == sum(
            len(page["evidence"]) for page in document["pages"]
        )
        assert totals["races"]["filtered"] == sum(
            page["races"]["filtered"] for page in document["pages"]
        )
        assert totals["distinct_fingerprints"] == len(document["clusters"])


class TestValidatorRejects:
    def test_missing_required_key(self, document):
        broken = copy.deepcopy(document)
        del broken["pages"]
        with pytest.raises(ValueError, match="pages"):
            validate_report(broken)

    def test_wrong_type(self, document):
        broken = copy.deepcopy(document)
        broken["totals"]["evidence_records"] = "three"
        with pytest.raises(ValueError, match="evidence_records"):
            validate_report(broken)

    def test_bool_is_not_an_integer(self, document):
        broken = copy.deepcopy(document)
        broken["totals"]["evidence_records"] = True
        with pytest.raises(ValueError, match="evidence_records"):
            validate_report(broken)

    def test_bad_enum_value(self, document):
        broken = copy.deepcopy(document)
        broken["mode"] = "nonsense"
        with pytest.raises(ValueError, match="mode"):
            validate_report(broken)

    def test_bad_evidence_entry(self, document):
        broken = copy.deepcopy(document)
        if not broken["pages"][0]["evidence"]:
            pytest.skip("page reported no races")
        del broken["pages"][0]["evidence"][0]["fingerprint"]
        with pytest.raises(ValueError, match="fingerprint"):
            validate_report(broken)

    def test_bad_witness_step(self, document):
        broken = copy.deepcopy(document)
        evidence = broken["pages"][0]["evidence"]
        if not evidence or not evidence[0]["prior"]["path_from_nca"]:
            pytest.skip("no witness path to corrupt")
        evidence[0]["prior"]["path_from_nca"][0]["src"] = "one"
        with pytest.raises(ValueError, match="src"):
            validate_report(broken)


class TestSchemaShape:
    def test_schema_is_self_consistent(self):
        """Every required key of every object schema has a property spec,
        in the race report, explore and predict schemas."""

        def walk(schema):
            if not isinstance(schema, dict):
                return
            properties = schema.get("properties", {})
            for key in schema.get("required", ()):
                assert key in properties, f"required {key!r} lacks a spec"
            for sub_schema in properties.values():
                walk(sub_schema)
            walk(schema.get("items"))

        for schema in (REPORT_SCHEMA, EXPLORE_SCHEMA, PREDICT_SCHEMA):
            walk(schema)
