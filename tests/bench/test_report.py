"""Tests for the automated reproduction report."""

import numpy as np
import pytest

from repro.bench.report import CLAIMS, check_claims, generate_report
from repro.bench.tables import Table


def fake_fig5(win: bool = True):
    cols = ["MKL_dgetf2", "MKL_dgetrf", "PLASMA_dgetrf", "CALU(Tr=4)", "CALU(Tr=8)"]
    vals = np.array(
        [
            [1.0, 4.0, 1.0, 3.0, 5.0],
            [1.4, 5.0, 3.5, 10.0, 15.0],
            [1.5, 17.0, 19.0, 30.0, 39.0],
            [1.5, 26.0, 38.0, 45.0, 48.0],
        ]
    )
    if not win:
        vals[:, 4] = 0.5  # CALU loses everywhere
    return Table(
        title="f",
        row_header="n",
        row_labels=["10", "100", "500", "1000"],
        col_labels=cols,
        values=vals,
    )


def test_claims_registry_nonempty():
    assert len(CLAIMS) >= 10
    assert {c.experiment for c in CLAIMS} >= {"fig5", "fig6", "table1", "stability"}


def test_check_claims_only_present_experiments():
    checks = check_claims({"fig5": fake_fig5()})
    assert checks
    assert all(c.experiment == "fig5" for c, _, _ in checks)


def test_claim_passes_on_good_data():
    checks = check_claims({"fig5": fake_fig5(win=True)})
    mkl_claim = [ok for c, ok, _ in checks if "beats MKL" in c.text]
    assert mkl_claim == [True]


def test_claim_fails_on_bad_data():
    checks = check_claims({"fig5": fake_fig5(win=False)})
    mkl_claim = [ok for c, ok, _ in checks if "beats MKL" in c.text]
    assert mkl_claim == [False]


def test_generate_report_markdown():
    report = generate_report({"fig5": fake_fig5()})
    assert report.startswith("# Reproduction report")
    assert "| fig5 |" in report
    assert "PASS" in report
    assert "### fig5" in report  # raw output embedded


def test_cli_report(tmp_path):
    from repro.bench.__main__ import main

    out = tmp_path / "report.md"
    rc = main(["stability", "--report", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "Reproduction report" in text
    assert "stability" in text


def test_every_claim_names_an_experiment():
    from repro.bench.experiments import EXPERIMENTS

    assert {c.experiment for c in CLAIMS} <= set(EXPERIMENTS)


@pytest.mark.parametrize("holds", [True, False])
def test_cli_report_exit_status(tmp_path, monkeypatch, holds):
    from repro.bench import report
    from repro.bench.__main__ import main

    claim = report.Claim("fig1_fig2", "forced", lambda r: (holds, "forced"))
    monkeypatch.setattr(report, "CLAIMS", [claim])
    out = tmp_path / "report.md"
    assert main(["fig1_fig2", "--report", str(out)]) == (0 if holds else 1)
    assert ("1/1" if holds else "0/1") + " claims hold" in out.read_text()
