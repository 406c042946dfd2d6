"""Tests for trace export (JSON) and table CSV export."""

import json

import numpy as np

from repro.bench.tables import Table
from repro.core.calu import calu_program
from repro.core.layout import BlockLayout
from repro.machine.presets import generic
from repro.resilience.events import ResilienceEvent
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.task import TaskKind
from repro.runtime.trace import Trace


def small_trace():
    graph = calu_program(BlockLayout(400, 200, 100), 2)[0].materialize()
    return SimulatedExecutor(generic(4)).run(graph), graph


class TestJson:
    def test_roundtrip_fields(self):
        trace, graph = small_trace()
        doc = json.loads(trace.to_json())
        assert doc["n_cores"] == 4
        assert doc["makespan"] > 0
        assert len(doc["records"]) == len(graph.tasks)
        rec = doc["records"][0]
        assert set(rec) == {"tid", "name", "kind", "core", "start", "end"}

    def test_kinds_are_strings(self):
        trace, _ = small_trace()
        doc = json.loads(trace.to_json())
        assert all(r["kind"] in "PLUSX" for r in doc["records"])

    def test_empty_trace(self):
        doc = json.loads(Trace([], 2).to_json())
        assert doc["records"] == []

    def test_from_json_round_trip_equivalent(self):
        trace, graph = small_trace()
        trace.events.append(
            ResilienceEvent("retry", task="P[0]", tid=0, detail="re-ran", value=1.0)
        )
        trace.events.append(ResilienceEvent("checkpoint", task="C[0]", tid=99))
        back = Trace.from_json(trace.to_json())
        assert back.n_cores == trace.n_cores
        assert back.makespan == trace.makespan
        assert [(r.tid, r.name, r.kind, r.core, r.start, r.end) for r in back.records] == [
            (r.tid, r.name, r.kind, r.core, r.start, r.end) for r in trace.records
        ]
        assert all(isinstance(r.kind, TaskKind) for r in back.records)
        # Diagnostics behave identically on the deserialized trace.
        assert back.resilience_summary() == trace.resilience_summary() == {
            "retry": 1,
            "checkpoint": 1,
        }
        assert back.events == trace.events
        back.validate_schedule(graph)

    def test_from_json_empty(self):
        back = Trace.from_json(Trace([], 3).to_json())
        assert back.records == [] and back.n_cores == 3 and back.events == []


class TestTableCsv:
    def test_csv_format(self):
        t = Table(
            title="x",
            row_header="n",
            row_labels=["10", "20"],
            col_labels=["a", "b"],
            values=np.array([[1.5, 2.0], [3.25, 4.0]]),
        )
        csv = t.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "n,a,b"
        assert lines[1] == "10,1.5,2"
        assert lines[2] == "20,3.25,4"


class TestCliSave(object):
    def test_save_writes_files(self, tmp_path):
        from repro.bench.__main__ import main

        rc = main(["stability", "--save", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "stability.txt").exists()
        assert (tmp_path / "stability.csv").exists()
