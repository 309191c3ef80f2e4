"""Tests for race evidence records (HB witnesses, provenance, timelines)."""

from repro.core.hb.rules import ALL_RULES
from repro.explain import attach_evidence, build_race_evidence
from repro.obs import Instrumentation


def evidence_for(page_report):
    return attach_evidence(
        page_report.classified,
        page_report.trace,
        page_report.page.monitor.graph,
    )


class TestEvidenceStructure:
    def test_every_race_gets_a_record(self, page_report):
        records = evidence_for(page_report)
        assert len(records) == len(page_report.filtered_races) > 0
        for classified, record in zip(page_report.classified.races, records):
            assert classified.evidence is record
            assert record.race_type == classified.race_type
            assert record.harmful == classified.harmful
            assert record.reason == classified.reason

    def test_witness_paths_are_rule_labeled(self, backend_report):
        _backend, report = backend_report
        for record in evidence_for(report):
            assert record.nca is not None
            for side in (record.prior, record.current):
                assert side.path_from_nca, "racing op must descend from nca"
                for step in side.path_from_nca:
                    assert step["rule"] in ALL_RULES
                # The path really runs nca -> ... -> racing op.
                assert side.path_from_nca[0]["src"] == record.nca["op_id"]
                assert (
                    side.path_from_nca[-1]["dst"] == side.access["op_id"]
                )
                for first, second in zip(
                    side.path_from_nca, side.path_from_nca[1:]
                ):
                    assert first["dst"] == second["src"]

    def test_path_edges_exist_in_graph(self, page_report):
        graph = page_report.page.monitor.graph
        for record in evidence_for(page_report):
            for side in (record.prior, record.current):
                for step in side.path_from_nca:
                    assert graph.edge_rule(step["src"], step["dst"]) == step["rule"]

    def test_racing_pair_is_concurrent_not_ordered(self, page_report):
        graph = page_report.page.monitor.graph
        for record in evidence_for(page_report):
            a = record.prior.access["op_id"]
            b = record.current.access["op_id"]
            assert graph.concurrent(a, b)
            assert "can happen concurrently" in record.explanation

    def test_timeline_includes_both_racing_accesses(self, page_report):
        for record in evidence_for(page_report):
            for side in (record.prior, record.current):
                racing_seqs = {
                    entry["seq"]
                    for entry in side.timeline
                    if entry["racing"]
                }
                assert record.prior.access["seq"] in racing_seqs
                assert record.current.access["seq"] in racing_seqs
                seqs = [entry["seq"] for entry in side.timeline]
                assert seqs == sorted(seqs)

    def test_source_attribution_names_the_operation(self, page_report):
        trace = page_report.trace
        for record in evidence_for(page_report):
            for side in (record.prior, record.current):
                operation = trace.operation(side.access["op_id"])
                assert operation.describe() in side.source


def _normalized(value):
    """Erase volatile element-allocation counters (id_key tuples serialize as
    ["id", <alloc>, <name>]) so records from independent runs compare equal."""
    if isinstance(value, dict):
        return {key: _normalized(item) for key, item in value.items()}
    if isinstance(value, list):
        if (
            len(value) == 3
            and value[0] == "id"
            and isinstance(value[1], int)
        ):
            return ["id", "*", value[2]]
        return [_normalized(item) for item in value]
    return value


class TestBackendParity:
    def test_graph_and_shb_evidence_agree(self):
        from .conftest import check_page

        records = {}
        for backend in ("graph", "shb"):
            report = check_page(hb_backend=backend)
            records[backend] = [
                _normalized(record.to_dict())
                for record in evidence_for(report)
            ]
        assert records["graph"] == records["shb"]


class TestObsHook:
    def test_evidence_counts_reported(self, page_report):
        obs = Instrumentation()
        attach_evidence(
            page_report.classified,
            page_report.trace,
            page_report.page.monitor.graph,
            obs=obs,
        )
        totals = obs.counter_totals()
        assert totals["evidence.record"] == len(page_report.filtered_races)
        assert totals["evidence.path_edges"] > 0

    def test_null_sink_attaches_without_recording(self, page_report):
        records = attach_evidence(
            page_report.classified,
            page_report.trace,
            page_report.page.monitor.graph,
        )
        assert records


class TestJsonRoundTrip:
    def test_to_dict_is_json_serializable(self, page_report):
        import json

        for record in evidence_for(page_report):
            dumped = json.dumps(record.to_dict())
            assert record.fingerprint in dumped


class TestDisjointComponents:
    """A racing pair whose HB cones are disjoint (two independent root
    dispatches) must get a complete evidence record with an empty-prefix
    witness — nca None, empty paths — on every backend, never a raise."""

    @staticmethod
    def _disjoint_classified(backend):
        import pytest  # noqa: F401  (parametrize import kept local)

        from repro.core.access import READ, WRITE, Access
        from repro.core.detector import RaceDetector
        from repro.core.hb.backend import make_backend
        from repro.core.locations import VarLocation
        from repro.core.report import build_report
        from repro.core.trace import Trace

        from ..core.trace_rows import feed

        trace = Trace()
        for _ in range(4):
            trace.operations.create("dispatch")
        hb = make_backend(backend)
        hb.add_edge(1, 2, "8:target-created-before-dispatch")
        hb.add_edge(3, 4, "8:target-created-before-dispatch")
        location = VarLocation(cell_id=1, name="x")
        detector = RaceDetector(trace, hb)
        for access in (
            Access(kind=WRITE, op_id=2, location=location),
            Access(kind=READ, op_id=4, location=location),
        ):
            feed(detector, access)
        assert len(detector.races) == 1
        report = build_report(detector.races, trace)
        return report.races[0], trace, hb

    def test_empty_prefix_witness_on_every_backend(self):
        for backend in ("graph", "shb"):
            classified, trace, hb = self._disjoint_classified(backend)
            record = build_race_evidence(classified, trace, hb)
            assert record.nca is None, backend
            assert record.common_ancestor_count == 0
            assert record.prior.path_from_nca == []
            assert record.current.path_from_nca == []
            assert "disjoint" in record.explanation

    def test_disjoint_record_serializes(self):
        import json

        classified, trace, hb = self._disjoint_classified("graph")
        record = build_race_evidence(classified, trace, hb)
        dumped = json.loads(json.dumps(record.to_dict()))
        assert dumped["nca"] is None
