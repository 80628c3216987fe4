"""Exporters, the @register_exporter registry, and the [observability] block."""

from __future__ import annotations

import json

import pytest

from repro.serve import spec_from_toml
from repro.serve.observability import (
    InMemoryExporter,
    JsonlExporter,
    ObservabilityConfigError,
    SpanExporter,
    Tracer,
    register_exporter,
    registered_exporters,
    tracer_from_spec,
)
from repro.serve.observability.exporters import EXPORTERS, build_exporter


class TestInMemoryExporter:
    def test_capacity_drops_the_oldest(self):
        sink = InMemoryExporter(capacity=2)
        for index in range(4):
            sink.export({"name": f"s{index}"})
        assert [span["name"] for span in sink.spans] == ["s2", "s3"]
        assert len(sink) == 2
        sink.clear()
        assert sink.spans == []

    def test_capacity_is_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            InMemoryExporter(capacity=0)


class TestJsonlExporter:
    def test_spans_and_metrics_share_one_tagged_file(self, tmp_path):
        path = tmp_path / "observability.jsonl"
        exporter = JsonlExporter(path)
        exporter.export({"name": "gateway.request", "duration_ms": 1.25})
        exporter.write_metrics({"gateway": {"requests": 1}})
        exporter.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["span", "metrics"]
        assert lines[0]["name"] == "gateway.request"
        assert lines[1]["metrics"]["gateway"]["requests"] == 1
        assert exporter.lines_written == 2

    def test_export_after_close_is_a_silent_noop(self, tmp_path):
        exporter = JsonlExporter(tmp_path / "x.jsonl")
        exporter.close()
        exporter.export({"name": "late"})  # must not raise
        assert exporter.lines_written == 0


class TestExporterRegistry:
    def test_builtins_are_registered(self):
        assert {"memory", "jsonl"} <= set(registered_exporters())

    def test_register_build_and_replace(self):
        class Custom(SpanExporter):
            def __init__(self, tag: str = "") -> None:
                self.tag = tag

            def export(self, span):
                pass

        try:
            register_exporter("custom-test", Custom)
            built = build_exporter("custom-test", {"tag": "t"})
            assert isinstance(built, Custom) and built.tag == "t"
            with pytest.raises(ValueError, match="already registered"):
                register_exporter("custom-test", Custom)
            register_exporter("custom-test", Custom, replace=True)
        finally:
            EXPORTERS.unregister("custom-test")

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown exporter"):
            build_exporter("nope")


class TestTracerFromSpec:
    def test_empty_block_means_tracing_off(self):
        assert tracer_from_spec(None) is None
        assert tracer_from_spec({}) is None

    def test_full_block_builds_a_configured_tracer(self, tmp_path):
        tracer = tracer_from_spec(
            {
                "sample_rate": 0.25,
                "max_spans": 16,
                "exporters": [
                    "memory",
                    {"name": "jsonl", "path": str(tmp_path / "spans.jsonl")},
                ],
            }
        )
        try:
            assert isinstance(tracer, Tracer)
            assert tracer.sample_rate == 0.25
            assert tracer.stats()["ring_capacity"] == 16
            assert [type(e).__name__ for e in tracer.exporters] == [
                "InMemoryExporter",
                "JsonlExporter",
            ]
        finally:
            for exporter in tracer.exporters:
                exporter.close()

    def test_accepts_a_parsed_stack_spec(self):
        spec = spec_from_toml(
            """
            [stacks.plain]
            middleware = ["telemetry"]

            [observability]
            sample_rate = 0.5
            max_spans = 8
            """
        )
        assert spec.observability == {"sample_rate": 0.5, "max_spans": 8}
        tracer = tracer_from_spec(spec)
        assert tracer is not None and tracer.sample_rate == 0.5

    @pytest.mark.parametrize(
        "block, match",
        [
            ({"sample_rate": "lots"}, "sample_rate"),
            ({"sample_rate": 1.5}, "sample_rate"),
            ({"max_spans": 0}, "max_spans"),
            ({"max_spans": True}, "max_spans"),
            ({"exporters": "memory"}, "exporters"),
            ({"exporters": [{"path": "x"}]}, "missing exporter 'name'"),
            ({"exporters": ["statsd-ghost"]}, "unknown exporter"),
            ({"exporters": [{"name": "memory", "capacity": -1}]}, "bad arguments|capacity"),
            ({"wat": 1}, "unknown \\[observability\\] keys"),
        ],
    )
    def test_malformed_blocks_fail_eagerly(self, block, match):
        with pytest.raises(ObservabilityConfigError, match=match):
            tracer_from_spec(block)

    def test_extra_exporters_ride_along(self):
        sink = InMemoryExporter()
        tracer = tracer_from_spec({"sample_rate": 1.0}, extra_exporters=(sink,))
        tracer.start_span("x").end()
        assert len(sink.spans) == 1
