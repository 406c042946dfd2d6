"""Design-choice ablations called out in DESIGN.md section 5.

* reduction-tree shape (binary / flat / hybrid) for TSQR;
* scheduler look-ahead depth (0 / 1 / infinite) for square CALU;
* look-ahead depth d in {0, 1, 2}: numeric threaded runs through the
  process-default knob (priorities.lookahead_depth), a priority rule;
* per-task scheduling-overhead sensitivity vs block size (the paper's
  "too many tasks" caveat);
* pivoting-strategy stability (tournament vs partial vs incremental).
"""

from repro.bench.experiments import (
    lookahead_ablation,
    lookahead_depth_ablation,
    overhead_ablation,
    stability,
    tree_ablation,
)


def test_tree_ablation(benchmark, save_result):
    t = benchmark.pedantic(tree_ablation, rounds=1, iterations=1)
    save_result("ablation_trees", t.format())
    # All tree shapes are viable; flat is competitive on shared memory
    # (the paper's observation motivating the height-1 tree).
    flat = t.column("flat")
    binary = t.column("binary")
    assert (flat > 0.6 * binary).all()


def test_lookahead_ablation(benchmark, save_result):
    t = benchmark.pedantic(lookahead_ablation, rounds=1, iterations=1)
    save_result("ablation_lookahead", t.format())
    for n in t.row_labels:
        assert t.cell(n, "lookahead=1") >= 0.95 * t.cell(n, "lookahead=0")


def test_lookahead_depth_ablation(benchmark, save_result):
    t = benchmark.pedantic(lookahead_depth_ablation, rounds=1, iterations=1)
    save_result("ablation_lookahead_depth", t.format())
    # All depths stay in the same performance regime (no pathological
    # serialization at d=0 or runaway overhead at d=2).
    secs = t.column("seconds")
    assert secs.max() <= 2.5 * secs.min()


def test_overhead_ablation(benchmark, save_result):
    t = benchmark.pedantic(overhead_ablation, rounds=1, iterations=1)
    save_result("ablation_overhead", t.format())
    # Larger overhead monotonically degrades every configuration...
    for j in range(t.values.shape[1]):
        col = t.values[:, j]
        assert (col[:-1] >= col[1:] * 0.999).all()
    # ...and the small-block (many-task) configuration degrades fastest.
    drop = t.values[0] / t.values[-1]
    assert drop[0] > drop[-1]


def test_stability_ablation(benchmark, save_result):
    t = benchmark.pedantic(stability, rounds=1, iterations=1)
    save_result("ablation_stability", t.format())
    for n in t.row_labels:
        gepp = t.cell(n, "GEPP")
        calu = t.cell(n, "CALU(Tr=8)")
        inc = t.cell(n, "tiled(nb=n/16)")
        assert calu < 5.0 * gepp
        assert inc > calu
