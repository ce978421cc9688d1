"""Unit tests for analysis helpers (report rendering, sweeps)."""

from repro.analysis import message_size_sweep, render_table
from repro.model.torus import TorusShape
from repro.strategies import ARDirect


class TestRenderTable:
    def test_basic(self):
        out = render_table(
            "T", ["a", "b"], [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        )
        assert "T" in out
        assert "2.5" in out
        assert "-" in out  # None placeholder
        lines = out.splitlines()
        assert len(lines) >= 5

    def test_empty_rows(self):
        out = render_table("T", ["col"], [])
        assert "col" in out

    def test_notes(self):
        out = render_table("T", ["a"], [{"a": 1}], notes=["hello"])
        assert "note: hello" in out


class TestSweep:
    def test_message_size_sweep(self):
        pts = message_size_sweep(
            ARDirect(), TorusShape.parse("4x4"), [16, 64]
        )
        assert [p.m_bytes for p in pts] == [16, 64]
        assert all(p.time_us > 0 for p in pts)
        assert pts[1].run.time_cycles >= pts[0].run.time_cycles
