"""Property tests: BlockTracker vs a brute-force conflict oracle.

For any access sequence, the tracker-built graph must order every
conflicting pair in program order — checked against an O(n²) oracle
that enumerates all pairs directly.  The static race detector must
agree (no findings), closing the loop between the two implementations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.task import Cost, TaskKind
from repro.verify.races import check_races
from repro.verify.reach import ancestor_masks, has_path

BLOCKS = [(i, j) for i in range(3) for j in range(3)]

block_set = st.frozensets(st.sampled_from(BLOCKS), max_size=4)
access_seqs = st.lists(st.tuples(block_set, block_set), min_size=1, max_size=24)


def build(seq):
    graph = TaskGraph("prop")
    tracker = BlockTracker()
    for i, (reads, writes) in enumerate(seq):
        tracker.add_task(
            graph,
            f"t{i}",
            TaskKind.X,
            Cost("laswp"),
            reads=sorted(reads),
            writes=sorted(writes),
        )
    return graph, tracker


def conflicts(a, b):
    (ra, wa), (rb, wb) = a, b
    return bool((wa & wb) or (wa & rb) or (ra & wb))


@settings(max_examples=200, deadline=None)
@given(access_seqs)
def test_tracker_orders_every_conflicting_pair(seq):
    graph, _ = build(seq)
    anc = ancestor_masks(graph)
    for j in range(len(seq)):
        for i in range(j):
            if conflicts(seq[i], seq[j]):
                assert has_path(anc, i, j), f"conflicting pair {i} -> {j} unordered"


@settings(max_examples=200, deadline=None)
@given(access_seqs)
def test_race_detector_agrees_with_oracle(seq):
    graph, _ = build(seq)
    assert [f for f in check_races(graph) if f.rule == "race"] == []


@settings(max_examples=100, deadline=None)
@given(access_seqs)
def test_footprint_matches_declaration(seq):
    graph, _ = build(seq)
    assert len(graph.tasks) == len(seq)
    for task, (reads, writes) in zip(graph.tasks, seq, strict=True):
        assert task.has_footprint
        assert task.reads == reads and task.writes == writes


@settings(max_examples=100, deadline=None)
@given(access_seqs)
def test_no_spurious_order_between_disjoint_writers(seq):
    # Soundness in the other direction: two tasks with no conflict and
    # no transitive intermediary must not gain a *direct* edge.
    graph, _ = build(seq)
    for j in range(len(seq)):
        for i in graph.preds[j]:
            assert conflicts(seq[i], seq[j]), f"edge {i} -> {j} without a conflict"
