"""Shared fixtures and helpers for the benchmark harness.

Each ``bench_e<N>_*.py`` module regenerates one experiment (E1..E12; the
module docstring says what it reproduces).  Every experiment produces an
:class:`~repro.analysis.report.ExperimentReport`; the report is printed to the
captured stdout and written to ``benchmarks/reports/<id>.txt``.  The twelve
committed reports are regenerated byte for byte with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_e*.py --benchmark-disable
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.report import ExperimentReport
from repro.core.config import CoprocessorConfig
from repro.functions.bank import build_default_bank

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def save_report(report: ExperimentReport) -> str:
    """Print the report and persist it under benchmarks/reports/."""
    text = report.render()
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{report.experiment_id}.txt").write_text(text)
    print()
    print(text)
    return text


@pytest.fixture(scope="session")
def bank():
    """The full default function bank, shared by every experiment."""
    return build_default_bank()


@pytest.fixture(scope="session")
def default_config():
    """The default card configuration used unless an experiment sweeps it."""
    return CoprocessorConfig(seed=2005)


@pytest.fixture(scope="session")
def medium_config():
    """A medium fabric that forces replacement pressure with the default bank."""
    return CoprocessorConfig(fabric_columns=8, fabric_rows=64, clb_rows_per_frame=8, seed=2005)
