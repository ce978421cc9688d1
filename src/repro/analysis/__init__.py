"""Analysis helpers: message-size sweeps and table rendering."""

from repro.analysis.report import render_table
from repro.analysis.sweep import SweepPoint, message_size_sweep

__all__ = [
    "render_table",
    "SweepPoint",
    "message_size_sweep",
]
