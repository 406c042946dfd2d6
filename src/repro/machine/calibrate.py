"""Calibrate a machine model against the host's measured kernel rates.

The presets in :mod:`repro.machine.presets` model the paper's 2009
machines.  For users who want the simulator to reflect *their* machine,
this module measures the actual numeric kernels (``gemm``-class BLAS3,
``getf2``-class BLAS2, the recursive panels) at a few sizes, fits the
saturating-efficiency model ``rate(d) = R_inf * d / (d + d_half)`` per
kernel, and returns a :class:`~repro.machine.model.MachineModel` whose
single-core rates match the host.

This keeps the model honest in both roles: the paper presets reproduce
published shapes; a calibrated model predicts the host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.kernels.blas import gemm
from repro.kernels.lu import getf2, rgetf2
from repro.kernels.qr import geqr2, geqr3
from repro.machine.model import KernelProfile, MachineModel

__all__ = ["KernelSample", "measure_kernel_rates", "fit_profile", "calibrate_host"]


@dataclass(frozen=True)
class KernelSample:
    """One measurement: saturation dimension, achieved flop rate."""

    dim: int
    gflops: float


def _time_once(fn, flops: float, min_time: float = 0.02, setup=None) -> float:
    """Run *fn* repeatedly until *min_time* of kernel time accumulates;
    return GFLOP/s.

    *setup* (e.g. ``P.copy`` for an in-place kernel) runs before each
    repetition, **outside** the timed region, and its result is passed
    to *fn* — so allocation/copy cost never pollutes the measured rate,
    which would skew the calibration for small panels.
    """
    reps = 0
    timed = 0.0
    while True:
        arg = setup() if setup is not None else None
        t0 = time.perf_counter()
        fn(arg) if setup is not None else fn()
        timed += time.perf_counter() - t0
        reps += 1
        if timed >= min_time:
            return flops * reps / timed / 1e9


def measure_kernel_rates(dims=(16, 32, 64, 128), rows: int = 2048, seed: int = 0):
    """Measure host GFLOP/s for the core kernel classes at several widths.

    Returns ``{kernel_name: [KernelSample, ...]}`` for ``gemm``,
    ``getf2``, ``rgetf2``, ``geqr2`` and ``geqr3``.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, list[KernelSample]] = {k: [] for k in ("gemm", "getf2", "rgetf2", "geqr2", "geqr3")}
    for d in dims:
        C = rng.standard_normal((rows, d))
        A = rng.standard_normal((rows, d))
        B = rng.standard_normal((d, d))
        out["gemm"].append(
            KernelSample(d, _time_once(lambda: gemm(C, A, B), 2.0 * rows * d * d))
        )
        P = rng.standard_normal((rows, d))
        lu_flops = rows * d * d - d**3 / 3.0
        # The in-place panel kernels need a fresh copy per repetition;
        # the copy runs as untimed setup so only kernel time is counted.
        out["getf2"].append(KernelSample(d, _time_once(getf2, lu_flops, setup=P.copy)))
        out["rgetf2"].append(KernelSample(d, _time_once(rgetf2, lu_flops, setup=P.copy)))
        qr_flops = 2.0 * rows * d * d - 2.0 * d**3 / 3.0
        out["geqr2"].append(KernelSample(d, _time_once(geqr2, qr_flops, setup=P.copy)))
        out["geqr3"].append(KernelSample(d, _time_once(geqr3, qr_flops, setup=P.copy)))
    return out


def fit_profile(samples: list[KernelSample], peak_gflops: float) -> KernelProfile:
    """Fit ``rate(d) = R_inf * d / (d + d_half)`` to the measurements.

    Linearized least squares on ``1/rate = 1/R_inf + (d_half/R_inf)/d``
    (a Lineweaver-Burk fit), clamped to sane ranges.
    """
    if not samples:
        raise ValueError("no samples to fit")
    if len(samples) == 1:
        s = samples[0]
        return KernelProfile(eff=min(1.0, s.gflops / peak_gflops), half_dim=0.0)
    x = np.array([1.0 / s.dim for s in samples])
    y = np.array([1.0 / max(s.gflops, 1e-9) for s in samples])
    slope, intercept = np.polyfit(x, y, 1)
    intercept = max(intercept, 1e-12)
    r_inf = 1.0 / intercept
    d_half = max(0.0, slope / intercept)
    return KernelProfile(eff=min(1.0, r_inf / peak_gflops), half_dim=float(d_half))


def calibrate_host(
    cores: int | None = None,
    dims=(16, 32, 64, 128),
    rows: int = 2048,
    mem_bw_gbs: float = 20.0,
    name: str = "host",
) -> MachineModel:
    """Build a :class:`MachineModel` fitted to this host's kernel rates.

    The per-core peak is taken as 1.15x the best measured ``gemm`` rate
    (leaving headroom so fitted efficiencies stay < 1); BLAS2 kernels
    keep their memory-bound character with the fitted ceilings.
    """
    import os

    measured = measure_kernel_rates(dims=dims, rows=rows)
    peak = 1.15 * max(s.gflops for s in measured["gemm"])
    profiles: dict[str, KernelProfile] = {}
    for kernel, samples in measured.items():
        prof = fit_profile(samples, peak)
        if kernel in ("getf2", "geqr2"):
            profiles[kernel] = KernelProfile(
                eff=prof.eff,
                half_dim=prof.half_dim,
                membound=True,
                bpf_stream=4.0,
                bpf_inv_dim=20.0,
                bpf_cached=1.0,
            )
        else:
            profiles[kernel] = prof
    profiles["getf2_nopiv"] = profiles["getf2"]
    # Derived kernels inherit the gemm ceiling (the presets' ratios); every
    # name of the kernel table gets a profile, the baselines' panels included.
    g = profiles["gemm"]
    for k, scale in (("trsm_llnu", 0.9), ("trsm_runn", 0.9), ("larfb", 0.95), ("gepp_merge", 0.7),
                     ("tpqrt_ts", 0.8), ("tpqrt_tt", 0.55), ("tpmqrt", 0.85), ("gessm", 0.85),
                     ("ssssm", 0.85), ("geqrt_tile", 0.7), ("getrf_tile", 0.7), ("tsmqr_tile", 0.9),
                     ("getrf_panel", 0.5), ("geqrf_panel", 0.4), ("tstrf", 0.55)):
        profiles[k] = KernelProfile(eff=g.eff * scale, half_dim=g.half_dim)
    profiles["laswp"] = profiles["copy"] = KernelProfile(eff=1.0)  # priced by words alone
    n_cores = cores or os.cpu_count() or 1
    return MachineModel(
        name=name,
        cores=n_cores,
        peak_core_gflops=peak,
        mem_bw_gbs=mem_bw_gbs,
        core_bw_gbs=mem_bw_gbs / max(1, n_cores // 2),
        cache_mb=8.0,
        task_overhead_us=5.0,
        sync_latency_us=1.0,
        profiles=profiles,
        library_factor={"repro": 1.0, "repro_qr": 1.0, "mkl": 1.0, "acml": 1.0, "plasma": 1.0},
    )
