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

The numeric QR entries were re-recorded when the ``tsqr_merge`` and
``caqr_merge_update`` payloads gained the set's ``"kernel"`` key, and
again when a leaf's ``V`` stopped having a buffer: ``tsqr_leaf`` lost
its ``"v"`` spec and ``caqr_leaf_update`` traded it for the panel's
``"c0"``/``"c1"`` (the costs, footprints and edges did not move).
The numeric LU entries (every ``lu-*-numeric-*`` key, 36 of them) were
re-recorded when every tournament merge moved onto LAPACK ``?getrf``
and the ``tslu_merge`` payload dropped the
``"leaf_kernel"`` key it no longer read: putting the key back
reproduced each old CRC, and the merges keep their ``gepp_merge``
``Cost``, so no cost, footprint, edge or priority moved.  They (38
keys by then) were re-recorded again when the ``tslu_leaf`` and
``tslu_merge`` payloads gained the ``"last"`` key that marks the
panel's last election, whose winners' factors the finalize installs:
hashing the payloads without that key reproduced each old CRC, and the
finalize keeps its ``getf2_nopiv`` ``Cost``.

72 entries were re-recorded when each task slot came to run one fixed
kernel and the drivers lost their ``leaf_kernel=`` knob: every numeric
LU key (the ``tslu_leaf`` and ``tslu_finalize`` payloads dropped
``"leaf_kernel"``) and every QR key (the QR cases had pinned the
``geqr3`` set they were recorded with; they now build the one set,
LAPACK's, whose leaf ``Cost`` is named ``geqrt``, and the
``tsqr_leaf``, ``tsqr_merge`` and ``caqr_merge_update`` payloads
dropped ``"kernel"``).  Putting the keys back (``"rgetf2"``, and
``"geqr3"`` for QR) and naming the QR leaf ``Cost`` ``geqr3`` again
reproduced each old CRC.  The ``getf2`` and ``geqr2`` variant keys went
with the knob; the symbolic LU keys and the baseline keys did not move.
The 26 numeric LU keys with more than one panel were re-recorded in
the same change, when CALU's ``leftswaps`` task traded its closure for
the ``calu_leftswaps`` descriptor (so the process backend ships it to a
worker): hashing that task's body as ``"closure"`` again reproduced
each CRC, and its ``Cost``, footprint and edges did not move.

The 34 numeric LU keys were re-recorded when the tournament replay
lost its off switch and the ``tslu_finalize`` payload dropped
``"allow_recompute"``: hashing it back in as ``True`` reproduced each
old CRC.  The two ``norecompute`` variant keys went with the switch
(hashing their plain build with ``False`` put back reproduced theirs).

24 LU keys were re-recorded when CALU's update grain came to follow
``MIN_TASK_FLOPS``: on the 256x256 b16 Tr=2, 100x70 b16 Tr=4 and
48x80 b16 Tr=3 shapes, row chunks below the pivot block stack and the
block columns behind the look-ahead one group (every plain key of
those shapes and every LU variant key except ``update_width``, whose
§V grain is the paper's).  ``tests/core/test_grain.py`` holds their
previous CRCs and rebuilds each with the constant at 0.

``python -m tests.core.test_golden_graphs`` re-records the file (only
ever meaningful when an issue *intends* to change the graphs).
"""

from __future__ import annotations

import inspect
import json
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
        "mkl_updates": {"update_library": "mkl"},
        "checkpoint": {"checkpoint": 2},
    },
    "qr": {
        "noguards": {"guards": False},
        "lookahead0": {"lookahead": 0},
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


@pytest.mark.parametrize("case", BASELINE_CASES, ids=baseline_id)
def test_baseline_graph_matches_parent_commit(case):
    golden = json.loads(GOLDEN.read_text())
    assert baseline_digest(case) == golden[baseline_id(case)]


if __name__ == "__main__":
    digests = {case_id(c): digest(c) for c in CASES}
    digests.update({baseline_id(c): baseline_digest(c) for c in BASELINE_CASES})
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
