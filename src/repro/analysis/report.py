"""Experiment reports: the artefact each benchmark produces.

An :class:`ExperimentReport` bundles an experiment id (E1..E12), its headline
observations, any number of tables and figures, and a ``metrics:`` block, and
renders them as one text block.  The benchmark harness prints these and
commits them under ``benchmarks/reports/<id>.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.tables import Table


@dataclass
class ExperimentReport:
    """Structured result of one experiment."""

    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    figures: List[str] = field(default_factory=list)
    observations: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def add_table(self, table: Table) -> Table:
        self.tables.append(table)
        return table

    def add_figure(self, figure: str) -> None:
        self.figures.append(figure)

    def observe(self, message: str) -> None:
        """Record a headline observation (one sentence, printed prominently)."""
        self.observations.append(message)

    def record_metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def render(self) -> str:
        banner = f"[{self.experiment_id}] {self.title}"
        lines = [banner, "=" * len(banner), ""]
        for observation in self.observations:
            lines.append(f"* {observation}")
        if self.observations:
            lines.append("")
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for figure in self.figures:
            lines.append(figure)
            lines.append("")
        if self.metrics:
            lines.append("metrics:")
            for name, value in sorted(self.metrics.items()):
                lines.append(f"  {name} = {value:.6g}")
        return "\n".join(lines).rstrip() + "\n"
