"""Analysis helpers: tables, ASCII figures and experiment reports.

The benchmark harness prints its results through these helpers so every
experiment produces the same kind of artefact: a titled table (the "table"
form of the paper's evaluation) and, where a trend matters, an ASCII chart
(the "figure" form).
"""

from repro.analysis.tables import Table, format_value
from repro.analysis.figures import ascii_bar_chart, ascii_line_chart
from repro.analysis.report import ExperimentReport
from repro.analysis.sketch import StreamingQuantileSketch, WindowedTimeSeries

__all__ = [
    "Table",
    "format_value",
    "ascii_bar_chart",
    "ascii_line_chart",
    "ExperimentReport",
    "StreamingQuantileSketch",
    "WindowedTimeSeries",
]
