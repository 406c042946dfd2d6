"""One kernel table: every cost-kernel name has a formula and a price.

``repro.analysis.flops.KERNELS`` is what ``Cost.of`` prices tasks from
and what keys the machine models' kernel profiles.  A name missing from a model is priced
at the silent ``_DEFAULT_PROFILE``, so the presets, the host calibration
and the builders are all held to the table here.
"""

import pytest

from repro.analysis.flops import KERNELS, gemm_flops, tpqrt_tt_flops
from repro.baselines.lapack_lu import build_getf2_graph, getrf_program
from repro.baselines.lapack_qr import build_geqr2_graph, geqrf_program
from repro.baselines.tiled_lu import tiled_lu_program
from repro.baselines.tiled_qr import tiled_qr_program
from repro.core.calu import calu_program
from repro.core.caqr import caqr_program
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from repro.machine.calibrate import calibrate_host
from repro.machine.presets import amd16_acml, generic, intel8_mkl
from repro.runtime.task import Cost

MODELS = {
    "intel8_mkl": intel8_mkl,
    "amd16_acml": amd16_acml,
    "generic": generic,
    "calibrate_host": lambda: calibrate_host(cores=2, dims=(8, 16), rows=128),
}


@pytest.mark.parametrize("model", MODELS)
def test_every_kernel_has_a_profile(model):
    profiles = MODELS[model]().profiles
    assert set(KERNELS) - set(profiles) == set()


def _core(program, b_of=lambda n: 16, **build):
    def graphs():
        for m, n in SHAPES:
            for tree in TreeKind:
                yield program(BlockLayout(m, n, b_of(n)), 4, tree, **build)[0].materialize()

    return graphs


SHAPES = [(200, 70), (96, 96)]  # ragged tall, square
PROGRAMS = {
    "calu": _core(calu_program),
    "caqr": _core(caqr_program),
    "tslu": _core(calu_program, b_of=lambda n: n),
    "tsqr": _core(caqr_program, b_of=lambda n: n),
    "getrf": lambda: (getrf_program(m, n, 16).materialize() for m, n in SHAPES),
    "geqrf": lambda: (geqrf_program(m, n, 16).materialize() for m, n in SHAPES),
    "tiled_lu": lambda: (tiled_lu_program(m, n, 16).materialize() for m, n in SHAPES),
    "tiled_qr": lambda: (tiled_qr_program(m, n, 16).materialize() for m, n in SHAPES),
    "getf2": lambda: (build_getf2_graph(m, n) for m, n in SHAPES),
    "geqr2": lambda: (build_geqr2_graph(m, n) for m, n in SHAPES),
}


@pytest.mark.parametrize("program", PROGRAMS)
def test_every_emitted_kernel_is_a_table_key(program):
    for graph in PROGRAMS[program]():
        assert graph.tasks
        assert {t.cost.kernel for t in graph.tasks} <= set(KERNELS), graph.name


class TestCostOf:
    def test_fills_flops_and_words_from_the_table(self):
        cost = Cost.of("gemm", 8, 5, 3, library="mkl")
        words = 2.0 * 8 * 5 + 8 * 3 + 3 * 5
        assert cost == Cost("gemm", 8, 5, 3, gemm_flops(8, 5, 3), words, "mkl")

    def test_count_batches_unit_operations(self):
        one, three = Cost.of("tpqrt_tt", 16, 8, 8), Cost.of("tpqrt_tt", 16, 8, 8, count=3)
        assert one.flops == tpqrt_tt_flops(8) and one.words == 3.0 * 8 * 8
        assert (three.flops, three.words) == (3 * one.flops, 3 * one.words)
        assert (three.m, three.n, three.k) == (16, 8, 8)

    def test_extra_words_add_and_words_replace(self):
        base = Cost.of("trsm_llnu", 8, 5, 8)
        assert base.words == 2.0 * 8 * 5 + 8 * 8
        assert Cost.of("trsm_llnu", 8, 5, 8, extra_words=80.0).words == base.words + 80.0
        odd = Cost.of("getf2", 100, 10, words=1000.0)
        assert odd.words == 1000.0 and odd.flops == Cost.of("getf2", 100, 10).flops

    def test_data_movement_kernels_have_no_flops(self):
        for kernel in ("laswp", "copy"):
            cost = Cost.of(kernel, 6, 4)
            assert cost.flops == 0.0 and cost.words == 2.0 * 6 * 4

    def test_unknown_kernel_is_an_error_not_a_default(self):
        with pytest.raises(KeyError):
            Cost.of("frobnicate", 4, 4)

    def test_every_formula_is_finite_and_nonnegative(self):
        for kernel in KERNELS:
            cost = Cost.of(kernel, 64, 32, 32)
            assert cost.flops >= 0.0 and cost.words > 0.0, kernel
