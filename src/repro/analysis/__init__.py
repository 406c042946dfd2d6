"""Numerical-quality metrics, closed-form operation/communication counts
and schedule statistics."""

from importlib import import_module

from repro.analysis.errors import (
    growth_factor,
    lu_backward_error,
    orthogonality_error,
    qr_backward_error,
)
from repro.analysis.flops import (
    gemm_flops,
    larfb_flops,
    lu_flops,
    lu_panel_flops,
    qr_flops,
    qr_panel_flops,
    trsm_left_flops,
    trsm_right_flops,
)


def __getattr__(name: str):
    # ``communication`` and ``schedule`` read repro.core / repro.runtime, whose
    # tasks are priced from ``repro.analysis.flops``: resolved on first use, so
    # the closed forms stay importable from below the runtime.
    if name in __all__:
        for sub in ("communication", "schedule"):
            module = import_module(f"repro.analysis.{sub}")
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")


__all__ = [
    "ScheduleStats",
    "factorization_messages_ca",
    "factorization_messages_classic",
    "panel_messages_ca",
    "panel_messages_classic",
    "panel_words_ca",
    "sync_reduction_factor",
    "gemm_flops",
    "growth_factor",
    "larfb_flops",
    "lu_backward_error",
    "lu_flops",
    "lu_panel_flops",
    "orthogonality_error",
    "qr_backward_error",
    "qr_flops",
    "qr_panel_flops",
    "schedule_stats",
    "trsm_left_flops",
    "trsm_right_flops",
]
