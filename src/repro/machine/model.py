"""The multicore performance model.

Every task carries a :class:`~repro.runtime.task.Cost`; the machine
prices it.  A task's *compute* rate is

``rate = peak_core * library_factor * eff * d / (d + half_dim) * intra_parallel``

where ``d`` is the kernel's saturation dimension (the inner dimension
for ``gemm``-like kernels — small blocks run BLAS3 inefficiently, the
granularity trade-off of the paper's Section III) and
``intra_parallel`` credits kernels a vendor library multithreads
internally (the "parallelized, but not very efficiently" panel of
classic factorizations).

Memory is a roofline: each kernel has a bytes-per-flop demand.  BLAS3
kernels stream ``~16/d`` bytes per flop (blocked reuse); BLAS2 kernels
(``membound=True``) pay their streaming demand whenever the working set
exceeds the cache, which is what makes tall panels bandwidth-bound and
small cache-resident panels compute-bound.  Concurrently running tasks
share the aggregate bandwidth max-min fairly (bus contention), each
capped by the per-core bandwidth times its internal parallelism.

Pure data-movement tasks (row swaps, candidate copies) have
``flops == 0`` and are priced purely by their ``words``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.task import Cost

__all__ = ["KernelProfile", "MachineModel"]


@dataclass(frozen=True)
class KernelProfile:
    """How one kernel class behaves on this machine.

    Parameters
    ----------
    eff:
        Asymptotic fraction of per-core peak for large saturation
        dimension.
    half_dim:
        Saturation dimension at which the kernel reaches half of
        ``eff`` (``d / (d + half_dim)``); 0 disables saturation.
    membound:
        True for BLAS2-class kernels whose traffic scales with the
        flops (no blocking reuse).
    bpf_stream:
        Bytes of memory traffic per flop when the working set does not
        fit in cache (used when ``membound``).
    bpf_inv_dim:
        Width-dependent extra traffic ``bpf_inv_dim / d`` added to the
        streaming demand — narrow panels re-stream the whole panel with
        little reuse (``d`` is the saturation dimension), so BLAS2-ish
        kernels get hungrier as the panel gets skinnier.
    bpf_cached:
        Bytes per flop when the working set is cache-resident.
    intra_parallel:
        Effective number of cores the kernel exploits internally
        (vendor fork-join BLAS); rates and per-core bandwidth caps are
        multiplied by it.  Task-graph algorithms use 1.0 — their
        parallelism is explicit in the graph.
    """

    eff: float
    half_dim: float = 0.0
    membound: bool = False
    bpf_stream: float = 8.0
    bpf_inv_dim: float = 0.0
    bpf_cached: float = 1.0
    intra_parallel: float = 1.0


# Fallback for kernels without an explicit profile.
_DEFAULT_PROFILE = KernelProfile(eff=0.5, half_dim=32.0)


@dataclass(frozen=True)
class MachineModel:
    """An analytic multicore machine.

    Parameters
    ----------
    name: human-readable identifier (used in reports).
    cores: number of cores.
    peak_core_gflops: per-core double-precision peak (GFLOP/s).
    mem_bw_gbs: aggregate memory bandwidth (GB/s) shared by all cores.
    core_bw_gbs: bandwidth one core can draw by itself (GB/s).
    cache_mb: effective cache per task (decides membound kernels'
        cached vs streaming traffic).
    task_overhead_us: dynamic-scheduling cost charged to every task.
    sync_latency_us: latency charged when a task consumes data produced
        on a different core (one charge per task with remote inputs).
    profiles: kernel name -> :class:`KernelProfile`.
    library_factor: efficiency multiplier per library personality
        (``"repro"``, ``"mkl"``, ``"acml"``, ``"plasma"``).
    overhead_factor: per-library multiplier on the task overhead — a
        vendor library's internal fork-join has almost no per-task
        cost, PLASMA's static pipeline is cheap, and the paper's
        hand-rolled dynamic scheduler pays the full price ("the time
        spent in the scheduling itself can lead to a loss of
        performance").
    """

    name: str
    cores: int
    peak_core_gflops: float
    mem_bw_gbs: float
    core_bw_gbs: float
    cache_mb: float = 6.0
    task_overhead_us: float = 2.0
    sync_latency_us: float = 1.0
    profiles: dict[str, KernelProfile] = field(default_factory=dict)
    library_factor: dict[str, float] = field(default_factory=dict)
    overhead_factor: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Per-task pricing
    # ------------------------------------------------------------------
    def profile(self, kernel: str) -> KernelProfile:
        return self.profiles.get(kernel, _DEFAULT_PROFILE)

    def task_overhead_s(self, cost: Cost) -> float:
        """Scheduling overhead charged to this task, in seconds."""
        return self.task_overhead_us * 1e-6 * self.overhead_factor.get(cost.library, 1.0)

    @staticmethod
    def saturation_dim(cost: Cost) -> float:
        """The dimension that drives kernel efficiency.

        The inner dimension ``k`` when present (gemm/trsm block width),
        otherwise the smaller matrix dimension.
        """
        dims = [d for d in (cost.m, cost.n, cost.k) if d > 0]
        if not dims:
            return 1.0
        if cost.k > 0:
            return float(min(cost.k, max(cost.m, 1)))
        return float(min(dims))

    def efficiency(self, cost: Cost) -> float:
        """Fraction of a single core's peak this task's kernel attains."""
        prof = self.profile(cost.kernel)
        lib = self.library_factor.get(cost.library, 1.0)
        d = self.saturation_dim(cost)
        sat = 1.0 if prof.half_dim <= 0 else d / (d + prof.half_dim)
        return min(1.0, prof.eff * lib * sat)

    def compute_rate(self, cost: Cost) -> float:
        """Maximum compute rate for the task, in flop/s."""
        prof = self.profile(cost.kernel)
        return self.peak_core_gflops * 1e9 * self.efficiency(cost) * prof.intra_parallel

    def bytes_per_flop(self, cost: Cost) -> float:
        """Memory-traffic intensity of the task, bytes per flop."""
        prof = self.profile(cost.kernel)
        d = self.saturation_dim(cost)
        if prof.membound:
            stream = prof.bpf_stream + prof.bpf_inv_dim / max(d, 1.0)
            # Smooth cached-to-streaming transition with working-set size
            # (avoids an unphysical performance cliff at the cache size).
            footprint = 8.0 * max(cost.m, 1) * max(cost.n, 1)
            w = footprint / (footprint + self.cache_mb * 1e6)
            return prof.bpf_cached * (1.0 - w) + stream * w
        # BLAS3: blocked reuse leaves ~16/d bytes per flop of streaming.
        return min(4.0, 16.0 / max(d, 1.0))

    def bandwidth_cap(self, cost: Cost) -> float:
        """Bandwidth (bytes/s) this one task may draw at most."""
        prof = self.profile(cost.kernel)
        return min(prof.intra_parallel * self.core_bw_gbs, self.mem_bw_gbs) * 1e9

    def work_and_demand(self, cost: Cost) -> tuple[float, float, float]:
        """Normalize a task for the simulator.

        Returns ``(work, max_rate, bytes_per_work_unit)``: for compute
        tasks work is flops; for pure-memory tasks work is bytes moved
        at a rate capped by the per-core bandwidth.
        """
        if cost.flops > 0:
            rate = self.compute_rate(cost)
            bpf = self.bytes_per_flop(cost)
            if bpf > 0:
                rate = min(rate, self.bandwidth_cap(cost) / bpf)
            return float(cost.flops), rate, bpf
        if cost.words > 0:
            return float(cost.words) * 8.0, self.core_bw_gbs * 1e9, 1.0
        return 0.0, 1.0, 0.0

    def seq_time(self, cost: Cost) -> float:
        """Time for the task running alone (no contention), seconds."""
        work, rate, _ = self.work_and_demand(cost)
        return self.task_overhead_s(cost) + (work / rate if work > 0 else 0.0)

    # ------------------------------------------------------------------
    # Contention: max-min fair bandwidth sharing
    # ------------------------------------------------------------------
    def share_rates(self, demands: list[tuple[float, float]]) -> list[float]:
        """Rates for concurrently running tasks under the bandwidth roofline.

        *demands* is a list of ``(max_rate, bytes_per_work_unit)``.
        Tasks whose full-speed draw fits their fair share run at full
        speed; the rest water-fill the aggregate bandwidth max-min
        fairly.
        """
        n = len(demands)
        rates = [0.0] * n
        pending = []
        for i, (r, b) in enumerate(demands):
            if b <= 0.0:
                rates[i] = r
            else:
                pending.append(i)
        bw_rem = self.mem_bw_gbs * 1e9
        while pending:
            share = bw_rem / len(pending)
            saturated = [i for i in pending if demands[i][0] * demands[i][1] <= share + 1e-9]
            if saturated:
                for i in saturated:
                    rates[i] = demands[i][0]
                    bw_rem -= demands[i][0] * demands[i][1]
                sat = set(saturated)
                pending = [i for i in pending if i not in sat]
            else:
                for i in pending:
                    rates[i] = share / demands[i][1]
                pending = []
        return rates
