"""Golden graphs: the builders emit, task for task, the graphs of commit 0110052
(CALU/CAQR) and 79d34dc (the four baseline programs).

``golden_graphs.json`` holds one CRC32 per case over every task's name,
kind, dependencies, priority, iteration, idempotence, ``Cost`` fields,
declared footprint, descriptor (op name + payload coordinates, buffers
reduced to their shapes) and which resilience hooks it carries, plus the
program's name and window ranges — recorded at the commit *before*
Algorithms 1 and 2 were folded into one panel loop (ISSUE 21).  The
factors are pinned by ``test_golden_digests.py``; this pins what the
simulator, the autotuner and the verify passes read: the symbolic costs
behind every ``SimulatedExecutor`` figure, the emission order the
per-window fusion and the journal's resume ranges depend on, and the
guards each knob arms.

The baseline cases (``getrf``/``geqrf``/tiled LU/tiled QR — the graphs
behind the ``mkl_*``/``plasma_*`` columns of ``EXPERIMENTS.md``) were
recorded at the commit before those programs moved onto
``Emitter.task`` (ISSUE 22); they hash the same per-task fields minus
``meta["col"]``.

The QR cases pass ``leaf_kernel="geqr3"``, the kernel set they were
recorded with; the default set (LAPACK ``geqrt``) differs from it only
in that name (``test_default_qr_leaf_renames_only_the_leaf_kernel``).
The numeric QR entries were re-recorded when the ``tsqr_merge`` and
``caqr_merge_update`` payloads gained the set's ``"kernel"`` key, and
again when a leaf's ``V`` stopped having a buffer: ``tsqr_leaf`` lost
its ``"v"`` spec and ``caqr_leaf_update`` traded it for the panel's
``"c0"``/``"c1"`` (the costs, footprints and edges did not move).
The numeric LU entries (every ``lu-*-numeric-*`` key, 36 of them) were
re-recorded when every tournament merge moved onto LAPACK ``?getrf``
(``kernels.lu.MERGE_KERNEL``) and the ``tslu_merge`` payload dropped the
``"leaf_kernel"`` key it no longer read: putting the key back
reproduced each old CRC, and the merges keep their ``gepp_merge``
``Cost``, so no cost, footprint, edge or priority moved.  They (38
keys by then) were re-recorded again when the ``tslu_leaf`` and
``tslu_merge`` payloads gained the ``"last"`` key that marks the
panel's last election, whose winners' factors the finalize installs:
hashing the payloads without that key reproduced each old CRC, and the
finalize keeps its ``getf2_nopiv`` ``Cost``.

``python -m tests.core.test_golden_graphs`` re-records the file (only
ever meaningful when an issue *intends* to change the graphs).
"""

from __future__ import annotations

import inspect
import json
import re
import zlib
from dataclasses import astuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.lapack_lu import getrf_program
from repro.baselines.lapack_qr import geqrf_program
from repro.baselines.tiled_lu import tiled_lu_program
from repro.baselines.tiled_qr import tiled_qr_program
from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.resilience.checkpoint import Checkpoint
from tests.core.test_golden_digests import SHAPES, TREES  # (m, n, b, tr) x {binary, flat}

GOLDEN = Path(__file__).with_name("golden_graphs.json")
PROGRAMS = {"lu": calu_program, "qr": caqr_program}

#: One-panel layouts (b = n): what a standalone TSLU/TSQR panel compiles.
PANELS = [(2560, 32, 32, 8), (1003, 16, 16, 5), (100, 30, 30, 4), (70, 16, 16, 4), (50, 50, 50, 3)]

#: Builder knobs, each on a ragged and a square shape, binary tree, numeric.
VARIANTS = {
    "lu": {
        "update_width": {"update_width": 40},
        "abft": {"abft": True},
        "noguards": {"guards": False},
        "lookahead0": {"lookahead": 0},
        "lookahead2": {"lookahead": 2},
        "getf2": {"leaf_kernel": "getf2"},
        "mkl_updates": {"update_library": "mkl"},
        "norecompute": {"recompute": False},
        "checkpoint": {"checkpoint": 2},
    },
    "qr": {
        "noguards": {"guards": False},
        "lookahead0": {"lookahead": 0},
        "geqr2": {"leaf_kernel": "geqr2"},
        "checkpoint": {"checkpoint": 2},
    },
}
VARIANT_SHAPES = [(256, 256, 16, 2), (100, 70, 16, 4)]

CASES = [
    (kind, *shape, tree, mode, "plain")
    for kind in PROGRAMS
    for shape in SHAPES
    for tree in TREES
    for mode in ("numeric", "symbolic")
]
CASES += [
    (kind, *shape, tree, "numeric", "plain")
    for kind in PROGRAMS
    for shape in PANELS
    for tree in TREES
]
CASES += [
    (kind, *shape, TreeKind.BINARY, "numeric", variant)
    for kind, variants in VARIANTS.items()
    for variant in variants
    for shape in VARIANT_SHAPES
]

#: The competitors' symbolic programs: ``name -> (builder, keywords)``.
BASELINES = {
    "getrf": (getrf_program, {}),
    "getrf-nofork": (getrf_program, {"fork_join": False, "lookahead": 1}),
    "geqrf": (geqrf_program, {}),
    "tiled_lu": (tiled_lu_program, {}),
    "tiled_qr": (tiled_qr_program, {}),
}
#: ``(m, n, block)``: ragged tall, square, one tile.
BASELINE_SHAPES = [(1003, 200, 48), (256, 256, 32), (50, 50, 64)]
BASELINE_CASES = [(name, *shape) for name in BASELINES for shape in BASELINE_SHAPES]


def case_id(case) -> str:
    kind, m, n, b, tr, tree, mode, variant = case
    return f"{kind}-{m}x{n}b{b}tr{tr}-{tree.value}-{mode}-{variant}"


def _plain(value):
    """A payload value as plain data: buffers become their shape and dtype."""
    if isinstance(value, np.ndarray):
        return ("buf", value.shape, value.dtype.str)
    if isinstance(value, dict):
        return sorted((key, _plain(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _task_record(graph, task) -> tuple:
    fn = task.fn
    if isinstance(fn, partial):  # the one numeric form: partial(run_op, (opname, payload))
        opname, payload = fn.args[0]
        body = (opname, _plain(payload))
    else:
        body = None if fn is None else "closure"
    meta = task.meta
    return (
        task.name,
        task.kind.value,
        sorted(graph.preds[task.tid]),
        task.priority,
        task.iteration,
        task.idempotent,
        astuple(task.cost),
        sorted(map(repr, task.reads)),
        sorted(map(repr, task.writes)),
        body,
        "op" in meta,
        "health" in meta,
        "corrupt" in meta,
        meta.get("col"),
    )


def _program_digest(program, lookahead: int, keep=slice(None)) -> int:
    """*lookahead* is the depth the builder ranked priorities under,
    hashed where the program carried it when the file was recorded."""
    graph = program.materialize()
    record = (
        program.name,
        program.n_windows,
        lookahead,
        program.windows,
        [_task_record(graph, task)[keep] for task in graph.tasks],
    )
    return zlib.crc32(repr(record).encode())


def baseline_id(case) -> str:
    name, m, n, block = case
    return f"{name}-{m}x{n}b{block}"


def baseline_digest(case) -> int:
    name, m, n, block = case
    builder, build = BASELINES[name]
    lookahead = build.get("lookahead", inspect.signature(builder).parameters["lookahead"].default)
    return _program_digest(builder(m, n, block, **build), lookahead, keep=slice(-1))  # all but col


def digest(case) -> int:
    kind, m, n, b, tr, tree, mode, variant = case
    build = dict(VARIANTS[kind].get(variant, {}))
    if kind == "qr":
        build.setdefault("leaf_kernel", "geqr3")  # the kernel the file recorded
    if "checkpoint" in build:
        build["checkpoint"] = Checkpoint(interval=build["checkpoint"])
    A = None
    if mode == "numeric":
        A = np.random.default_rng(20240613).standard_normal((m, n))
    program, _ = PROGRAMS[kind](BlockLayout(m, n, b), tr, tree, A=A, **build)
    return _program_digest(program, build.get("lookahead", 1))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_graph_matches_parent_commit(case):
    golden = json.loads(GOLDEN.read_text())
    assert digest(case) == golden[case_id(case)]


@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.value)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "{}x{}b{}tr{}".format(*s))
def test_default_qr_leaf_renames_only_the_leaf_kernel(shape, tree):
    """The default kernel set (LAPACK ``geqrt``) emits the recorded
    ``geqr3`` program task for task — names, edges, priorities,
    footprints, flops — except for the kernel name in each leaf's
    ``Cost`` and in the ``tsqr_leaf``, ``tsqr_merge`` and
    ``caqr_merge_update`` payloads (the tree tasks keep their ``Cost``
    names ``tpqrt_tt`` / ``tpmqrt``)."""
    m, n, b, tr = shape
    A = np.random.default_rng(20240613).standard_normal((m, n))
    records = []
    for build in ({}, {"leaf_kernel": "geqr3"}):
        graph = caqr_program(BlockLayout(m, n, b), tr, tree, A=A.copy(), **build)[0].materialize()
        records.append([_task_record(graph, task) for task in graph.tasks])
    default, pinned = records
    assert len(default) == len(pinned)
    renamed = [got[0] for got, want in zip(default, pinned) if got != want]
    set_ops = {"tsqr_leaf", "tsqr_merge", "caqr_merge_update"}
    assert renamed == [rec[0] for rec in pinned if rec[9] and rec[9][0] in set_ops]
    assert any(re.fullmatch(r"P\[\d+\]merge.*", name) for name in renamed) == (tr > 1)
    for got, want in zip(default, pinned):
        assert repr(got).replace("'geqrt'", "'geqr3'") == repr(want)
        if got != want:
            assert dict(got[9][1])["kernel"] == "geqrt"
            leaf = got[9][0] == "tsqr_leaf"
            assert (got[6][0] == "geqrt") == leaf and got[6][1:] == want[6][1:]


@pytest.mark.parametrize("case", BASELINE_CASES, ids=baseline_id)
def test_baseline_graph_matches_parent_commit(case):
    golden = json.loads(GOLDEN.read_text())
    assert baseline_digest(case) == golden[baseline_id(case)]


if __name__ == "__main__":
    digests = {case_id(c): digest(c) for c in CASES}
    digests.update({baseline_id(c): baseline_digest(c) for c in BASELINE_CASES})
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
