"""The benchmark's four workloads, driven only through the program's public API.

Each workload derives every job seed, input and fault plan from the
benchmark's ``--seed``; the program receives only the generated inputs (or,
for ``run_figure9`` and ``run_serve``, which generate their own, the derived
seed).  ``run_job`` times the program's work for one job, checks its output,
and returns a :class:`JobOutcome`.  A job that raises, stalls at its deadline
or fails a check is a failure with a reason; it is counted, never dropped.
Only a workload that injects faults may fail a job without the run being
incorrect.
"""

from __future__ import annotations

import hashlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional
from unittest import mock

import numpy as np
from speed import Meter

# run_figure9 is looked up on its module at each call, so a traced run's
# patch of ``repro.bench.run_figure9`` reaches it.
from repro import bench
from repro.bench.fig9 import FIG9_ALPHAS, FIG9_ASU_COUNTS, fig9_params
from repro.core.config import ConfigSolver, DSMConfig
from repro.dsmsort.runtime import DsmSortJob
from repro.faults.injector import FaultPlan, RandomFaultModel
from repro.replica import ReplicationConfig
from repro.resilience import RetryPolicy
from repro.resilience.chaos import chaos_params
from repro.sched import run_serve


def derive(seed: int, *tags) -> int:
    """A 31-bit seed derived from the benchmark seed and a tag path."""
    h = hashlib.blake2b(repr((int(seed), *tags)).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") & 0x7FFFFFFF


def make_input(params, n_records: int, seed: int) -> list[np.ndarray]:
    """Uniform 32-bit keys split evenly over the ASUs (payloads zero-filled)."""
    rng = np.random.default_rng(seed)
    per_asu = n_records // params.n_asus
    shards = []
    for _ in range(params.n_asus):
        shard = np.zeros(per_asu, dtype=params.schema.dtype)
        shard["key"] = rng.integers(0, 1 << 32, size=per_asu, dtype=np.uint32)
        shards.append(shard)
    return shards


@dataclass
class JobOutcome:
    """One job: host seconds, failure reason (None = verified) and sim stats."""

    #: measured host seconds and the same at the reference speed (speed.py)
    host_s: float
    ref_s: float
    reason: Optional[str]
    #: records in verified output (0 for a failed job)
    records: int
    #: every simulated statistic of the job; the input of ``sim_digest``
    sim: dict
    #: simulated makespan of a completed job
    makespan: Optional[float] = None
    #: workload-specific simulated numbers, averaged over the jobs of a run
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.reason is None


def _error(exc: BaseException) -> str:
    return f"exception:{type(exc).__name__}"


def run_two_pass(job: DsmSortJob, n_records: int, deadline: Optional[float] = None):
    """Pass 1, pass 2, ``verify()`` and the record-count check of one job.

    Returns ``(reason, sim stats, makespan)``.  ``verify()`` alone passes an
    input the job truncated, so the output length is checked against
    ``config.n_records`` too.
    """
    sim: dict = {}
    try:
        r1 = job.run_pass1() if deadline is None else job.run_pass1(deadline=deadline)
    except Exception as exc:  # a failed job is counted; the run goes on
        return _error(exc), {"error": type(exc).__name__}, None
    cs = r1.channel_stats or {}
    sim["pass1"] = [
        r1.makespan, r1.completed, r1.n_runs, r1.net_bytes, r1.n_durable,
        job.platform.sim.n_events_processed, r1.n_breaker_trips,
        r1.n_promoted_runs, r1.n_repaired_copies, r1.n_underreplicated,
        r1.n_replayed_frags, r1.n_reemitted_runs, r1.n_takeover_blocks,
        r1.n_epoch_rejections, r1.n_readmitted, r1.view_epoch,
        sorted((k, v) for k, v in cs.items()),
    ]
    if not r1.completed:
        return "stall", sim, None
    try:
        r2 = job.run_pass2()
    except Exception as exc:  # a failed job is counted; the run goes on
        sim["error"] = type(exc).__name__
        return _error(exc), sim, None
    sim["pass2"] = [r2.makespan, r2.completed, r2.n_partial_runs]
    try:
        job.verify()
    except AssertionError:
        return "verify", sim, None
    n_out = len(job.collected_output())
    sim["n_out"] = n_out
    if n_out != n_records:
        return "count", sim, None
    return None, sim, r1.makespan + r2.makespan


@contextmanager
def observe_pass1(cells: list, after_each):
    """Record every pass-1 cell ``run_figure9`` emulates while the block runs.

    ``after_each()`` is called once a cell's emulation has returned.
    """
    original = DsmSortJob.__dict__["run_pass1"]

    def observed(job, *args, **kwargs):
        res = original(job, *args, **kwargs)
        formed = sum(run.shape[0] for runs in job.runs_on_asu for _b, run in runs)
        cells.append({
            "asus": job.params.n_asus, "alpha": job.config.alpha,
            "active": job.active, "n_records": job.config.n_records,
            "formed": formed, "makespan": res.makespan, "n_runs": res.n_runs,
            "net_bytes": res.net_bytes,
            "events": job.platform.sim.n_events_processed,
        })
        after_each()
        return res

    with mock.patch.object(DsmSortJob, "run_pass1", observed):
        yield cells


class Workload:
    name = ""
    #: jobs in the workload's fixed job set
    n_jobs = 1
    #: host seconds the job set takes on the reference machine; with
    #: ``--seconds`` it sets how often a run repeats the set
    nominal_set_s = 1.0
    #: whether jobs run under injected faults, so that a job that raises or
    #: stalls is measured data rather than a wrong result
    injects_faults = False

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def run_job(self, ctx: dict, job_seed: int) -> JobOutcome:
        raise NotImplementedError

    def job_seeds(self, seed: int) -> list[int]:
        return [derive(seed, "job", i) for i in range(self.n_jobs)]


class Fig9Sweep(Workload):
    """The paper's Figure-9 grid at quick scale, one sweep per job."""

    name = "fig9-sweep"
    nominal_set_s = 25.0

    def __init__(self, n_records: int = 1 << 16, asu_counts=FIG9_ASU_COUNTS):
        self.n_records = n_records
        self.asu_counts = tuple(asu_counts)

    def setup(self, seed: int) -> dict:
        # Warm-up: one baseline and one active cell of the grid.
        bench.run_figure9(
            n_records=self.n_records, asu_counts=self.asu_counts[:1],
            alphas=FIG9_ALPHAS[2:3], include_adaptive=False,
            seed=derive(seed, "warmup"),
        )
        return {}

    def run_job(self, ctx: dict, job_seed: int) -> JobOutcome:
        cells: list = []
        # A sweep runs for tens of seconds, so the host speed is also sampled
        # between its cells.
        with Meter() as m, observe_pass1(cells, m.sample):
            res = bench.run_figure9(
                n_records=self.n_records, asu_counts=self.asu_counts, seed=job_seed
            )
        reason = None
        expected = len(self.asu_counts) * (len(FIG9_ALPHAS) + 2)
        if len(cells) != expected:
            reason = "check:cells"
        elif any(c["formed"] != c["n_records"] for c in cells):
            reason = "check:records"
        elif any(
            len(v) != len(self.asu_counts) or not all(np.isfinite(v)) or min(v) <= 0
            for v in res.speedup.values()
        ):
            reason = "check:speedup"
        sim = {
            "cells": cells, "speedup": res.speedup,
            "adaptive_alpha": res.adaptive_alpha,
            "baseline_makespan": res.baseline_makespan,
        }
        ok = reason is None
        return JobOutcome(
            host_s=m.host_s, ref_s=m.ref_s, reason=reason,
            records=sum(c["formed"] for c in cells) if ok else 0,
            sim=sim,
            makespan=sum(c["makespan"] for c in cells) if ok else None,
            extra={"sim_speedup_adaptive": statistics.fmean(res.speedup["adaptive"])},
        )


class SortLargeRuns(Workload):
    """Two-pass DSM-Sort of ~1M records on 8 ASUs with 4096-record runs."""

    name = "sort-large-runs"
    n_jobs = 2
    nominal_set_s = 2.6
    #: distribute fan-out; with the default sizes it gives ~4096-record runs
    alpha = 4

    def __init__(self, n_records: int = 1 << 20, n_asus: int = 8, gamma: int = 64):
        self.n_records, self.n_asus, self.gamma = n_records, n_asus, gamma

    def setup(self, seed: int) -> dict:
        params = fig9_params(self.n_asus)
        cfg = ConfigSolver(params, gamma=self.gamma).config_for_alpha(
            self.n_records, self.alpha
        )
        # Warm-up; a failure here shows again in the timed jobs.
        wseed = derive(seed, "warmup")
        data = make_input(params, cfg.n_records, wseed)
        run_two_pass(DsmSortJob(params, cfg, seed=wseed, asu_data=data), cfg.n_records)
        return {"params": params, "cfg": cfg}

    def run_job(self, ctx: dict, job_seed: int) -> JobOutcome:
        params, cfg = ctx["params"], ctx["cfg"]
        data = make_input(params, cfg.n_records, derive(job_seed, "input"))
        with Meter() as m:
            job = DsmSortJob(params, cfg, seed=job_seed, asu_data=data)
            reason, sim, makespan = run_two_pass(job, cfg.n_records)
        return JobOutcome(m.host_s, m.ref_s, reason,
                          cfg.n_records if reason is None else 0, sim, makespan)


class FtChaosReplicated(Workload):
    """Replicated, network-detected FT sort under a seeded random fault plan.

    The plan draws from every fault class the FT engine handles, at the
    chaos harness's rates plus replica loss and partitions.
    """

    name = "ft-chaos-replicated"
    # Jobs differ in their fault plans, so a run's time depends on its seed's
    # mix of completed, stalled and failed jobs; 48 jobs keep that mix steady.
    n_jobs = 48
    nominal_set_s = 22.0
    injects_faults = True

    def __init__(self, n_records: int = 1 << 14):
        self.n_records = n_records

    def _job(self, params, cfg, data, seed, plan, t0, retry):
        return DsmSortJob(
            params, cfg, policy="sr", seed=seed, asu_data=data, faults=plan,
            transport="reliable", retry_policy=retry,
            replication=ReplicationConfig(r=2),
            heartbeat_interval=t0 / 40, heartbeat_timeout=t0 / 10,
            detection_mode="network", probe_timeout=t0 / 10,
        )

    @staticmethod
    def _retry(t0: float) -> RetryPolicy:
        return RetryPolicy(timeout=t0 / 50, backoff=2.0, max_backoff=t0 / 10,
                           jitter=0.25, window=64)

    def setup(self, seed: int) -> dict:
        params = chaos_params()
        cfg = DSMConfig.for_n(self.n_records, alpha=8, gamma=16)
        wseed = derive(seed, "warmup")
        data = make_input(params, cfg.n_records, wseed)
        # t0 = fault-free makespan of the replicated reliable job; a direct
        # transport run first sizes its retry policy.  The fault-free job is
        # the warm-up.
        provisional = DsmSortJob(
            params, cfg, policy="sr", seed=wseed, asu_data=data, faults=FaultPlan()
        ).run_pass1().makespan
        job = self._job(params, cfg, data, wseed, FaultPlan(), provisional,
                        self._retry(provisional))
        reason, sim, _ = run_two_pass(job, cfg.n_records)
        if reason is not None:
            raise RuntimeError(f"fault-free warm-up job failed: {reason}")
        t0 = sim["pass1"][0]
        return {"params": params, "cfg": cfg, "t0": t0, "retry": self._retry(t0)}

    def fault_model(self, seed: int, t0: float) -> RandomFaultModel:
        return RandomFaultModel(
            seed=seed,
            mttf_asu=8.0 * t0, mttf_host=16.0 * t0, max_crashes=1,
            mtt_drop=1.5 * t0, mtt_dup=2.0 * t0, mtt_delay=2.0 * t0,
            mtt_corrupt=2.5 * t0, mtt_disk_fault=2.0 * t0,
            msg_fault_duration=t0 / 8, msg_delay=t0 / 50,
            disk_fault_duration=t0 / 10,
            mtt_lose_replica=4.0 * t0,
            mtt_partition=2.0 * t0, partition_duration=t0 / 8,
        )

    def run_job(self, ctx: dict, job_seed: int) -> JobOutcome:
        params, cfg, t0 = ctx["params"], ctx["cfg"], ctx["t0"]
        data = make_input(params, cfg.n_records, derive(job_seed, "input"))
        plan = self.fault_model(derive(job_seed, "faults"), t0).plan(
            params, horizon=0.8 * t0
        )
        with Meter() as m:
            job = self._job(params, cfg, data, job_seed, plan, t0, ctx["retry"])
            reason, sim, makespan = run_two_pass(job, cfg.n_records, deadline=20.0 * t0)
        sim["plan"] = [len(plan), sorted(plan.kinds())]
        sim["reason"] = reason
        return JobOutcome(m.host_s, m.ref_s, reason,
                          cfg.n_records if reason is None else 0, sim, makespan)


class ServeSweep(Workload):
    """The default ``run_serve`` policy x load sweep, one sweep per job."""

    name = "serve-sweep"
    n_jobs = 80
    nominal_set_s = 15.0

    def __init__(self, arrivals: int = 60):
        self.arrivals = arrivals

    def setup(self, seed: int) -> dict:
        # Warm-up; a failure here shows again in the timed jobs.
        run_serve(seed=derive(seed, "warmup"), n_jobs=self.arrivals)
        return {}

    def run_job(self, ctx: dict, job_seed: int) -> JobOutcome:
        with Meter() as m:
            report = run_serve(seed=job_seed, n_jobs=self.arrivals)
        cells = report.as_dict()["cells"]
        reason = None
        if len(cells) != 9:
            reason = "check:cells"
        elif any(
            c["n_jobs"] != self.arrivals
            or c["n_completed"] + c["n_rejected"] + c["n_failed"] != c["n_jobs"]
            for c in cells
        ):
            reason = "check:conservation"
        elif any(
            not 0.0 < c["jain_fairness"] <= 1.0
            or not (c["slo_attainment"] is None or 0.0 <= c["slo_attainment"] <= 1.0)
            for c in cells
        ):
            reason = "check:ratios"
        slo = [c["slo_attainment"] for c in cells if c["slo_attainment"] is not None]
        return JobOutcome(
            host_s=m.host_s, ref_s=m.ref_s, reason=reason, records=0, sim={"cells": cells},
            makespan=statistics.fmean(c["makespan"] for c in cells) if reason is None else None,
            extra={
                "arrivals": sum(c["n_jobs"] for c in cells),
                "sim_slo_attainment": statistics.fmean(slo) if slo else 0.0,
                "sim_jain_fairness": statistics.fmean(c["jain_fairness"] for c in cells),
                "preempted": sum(c["n_preempted"] for c in cells),
                "rejected": sum(c["n_rejected"] for c in cells),
            },
        )


WORKLOADS = {
    w.name: w for w in (Fig9Sweep, SortLargeRuns, FtChaosReplicated, ServeSweep)
}
