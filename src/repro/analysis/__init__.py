"""Log persistence, text tables, and ASCII charts (the viz-tool stand-in)."""

from .charts import bar_chart, histogram, line_chart
from .logs import read_log, write_log
from .report import grid_report
from .tables import render_grid, render_table

__all__ = [
    "render_table",
    "render_grid",
    "bar_chart",
    "line_chart",
    "histogram",
    "write_log",
    "read_log",
    "grid_report",
]
