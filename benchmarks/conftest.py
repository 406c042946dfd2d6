"""Shared fixtures for the legacy pytest-benchmark scripts.

``bench_checkpoint.py`` and ``bench_resilience.py`` write their
formatted tables to ``benchmarks/tables/<name>.txt`` through
``save_result``; ``bench_kernels.py`` only times kernels.  Wall clock
for the workloads is measured by ``benchmarks/e2e`` (its own runner,
not these fixtures).  ``benchmarks/results/`` is reserved for the
checked-in ``BENCH_checkpoint.json``; keeping the throwaway text
renders out of it means ``git status`` stays clean after a run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

TABLES_DIR = Path(__file__).parent / "tables"


@pytest.fixture
def save_result():
    """Callable fixture: ``save_result(name, formatted_text)``."""

    def _save(name: str, text: str) -> Path:
        TABLES_DIR.mkdir(exist_ok=True)
        path = TABLES_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _save
