"""Tracer semantics and exporters (JSONL, Chrome trace)."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.tracer import (
    EVENT_KINDS,
    Tracer,
    chrome_events,
    write_chrome_trace,
    write_jsonl,
)


def _tiny_trace() -> Tracer:
    tr = Tracer()
    tr.emit(0.0, "inject", 0, 0)
    tr.emit(1.5, "link", 0, 2, 10.0, 0)
    tr.emit(3.0, "queue", 1, 2, 2, 0)
    tr.emit(20.0, "deliver", 1, 0, 0, 0.0, "direct", True)
    return tr


class TestTracer:
    def test_rows_sorted_by_time_then_emission(self):
        tr = Tracer()
        tr.emit(5.0, "inject", 1, 1)
        tr.emit(1.0, "inject", 0, 0)
        tr.emit(1.0, "deliver", 0, 0, 0, 0.0, "direct", True)
        rows = tr.rows()
        assert [r[0] for r in rows] == [1.0, 1.0, 5.0]
        assert rows[0][2] == "inject"  # same time: emission order wins
        assert rows[1][2] == "deliver"

    def test_ring_buffer_keeps_latest(self):
        tr = Tracer(capacity=3)
        for i in range(10):
            tr.emit(float(i), "inject", 0, i)
        assert tr.total == 10
        assert tr.dropped == 7
        assert [r[0] for r in tr.rows()] == [7.0, 8.0, 9.0]

    def test_sampling_is_by_pid(self):
        tr = Tracer(sample=3)
        assert [pid for pid in range(9) if tr.want(pid)] == [0, 3, 6]

    def test_payload_is_json_native_and_counts_match(self):
        tr = _tiny_trace()
        p = tr.to_payload()
        assert json.loads(json.dumps(p)) == p
        assert p["total"] == 4
        assert p["counts"] == {
            "deliver": 1, "inject": 1, "link": 1, "queue": 1,
        }
        assert all(k in EVENT_KINDS for k in p["counts"])

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample=0)


class TestJsonl:
    def test_named_fields_per_kind(self):
        buf = io.StringIO()
        n = write_jsonl(_tiny_trace().to_payload(), buf, point="p0")
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert n == len(lines) == 4
        by_kind = {rec["kind"]: rec for rec in lines}
        assert by_kind["link"] == {
            "t": 1.5, "kind": "link", "node": 0, "dir": 2, "dur": 10.0,
            "pid": 0, "point": "p0",
        }
        assert by_kind["deliver"]["phase"] == "direct"
        assert by_kind["deliver"]["final"] is True

    def test_writes_to_path(self, tmp_path):
        dest = tmp_path / "t.jsonl"
        write_jsonl(_tiny_trace().to_payload(), str(dest))
        assert len(dest.read_text().splitlines()) == 4


class TestChromeTrace:
    def test_event_shapes(self):
        recs = list(chrome_events(_tiny_trace().to_payload()))
        link = [r for r in recs if r.get("ph") == "X"]
        inst = [r for r in recs if r.get("ph") == "i"]
        meta = [r for r in recs if r.get("ph") == "M"]
        assert len(link) == 1 and link[0]["dur"] == 10.0
        assert link[0]["tid"] == 3  # direction 2 -> thread 3
        assert {r["name"] for r in inst} == {"inject", "queue", "deliver"}
        assert any(r["name"] == "process_name" for r in meta)
        assert any(r["name"] == "thread_name" for r in meta)

    def test_multi_point_namespacing(self, tmp_path):
        p = _tiny_trace().to_payload()
        path = tmp_path / "trace.json"
        write_chrome_trace([p, p], str(path), labels=["a", "b"])
        doc = json.loads(path.read_text())
        pids = {r["pid"] for r in doc["traceEvents"]}
        # Nodes 0-1 of point 0 and nodes 0-1 of point 1 (stride 2).
        assert pids == {0, 1, 2, 3}
        names = {
            r["args"]["name"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert names == {"a:node 0", "a:node 1", "b:node 0", "b:node 1"}
