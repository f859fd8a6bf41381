"""Soak harness: fault scenarios vs. end-to-end invariants, one runner.

The reliability claims of the fault-tolerant stack are only worth something
if they hold under schedules nobody hand-picked.  Every soak sweep — the
seeded ``python -m repro chaos`` apps and the ``recover``, ``replicate`` and
``partition`` grids — is one :class:`Scenario` in :data:`SCENARIOS`: a
fault-free reference, a case body, invariants over its evidence, seeded
and/or grid plan sources, and optional sweep-level checks such as the
DSM-Sort negative control (retries disabled must *lose* records, so the
invariants are earned, not vacuous).  :func:`run_soak` runs any of them
(:func:`run_chaos` is its seeded front end) and returns one
:class:`ChaosReport` schema; a case that raises is a recorded violation.
Everything is virtual-time deterministic: the same arguments give a
byte-identical report at any worker count.  See the "Soak harness" section
of ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..bench.report import render_table
from ..core.config import DSMConfig
from ..emulator.params import SystemParams
from ..emulator.platform import ActivePlatform
from ..faults.injector import FaultPlan, Injector, RandomFaultModel, drop_msg
from ..functors.basic import FilterFunctor
from ..util.distributions import make_workload
from ..util.records import concat_records
from ..util.rng import RngRegistry, derive_seed
from .breaker import BreakerBoard
from .channel import ReliableEndpoint, RetryPolicy
from .io import read_resilient

__all__ = [
    "SCENARIOS", "CaseContext", "ChaosReport", "ResilientFilterScan",
    "Scenario", "chaos_params", "run_chaos", "run_soak",
]


def chaos_params() -> SystemParams:
    """Small platform (2 hosts, 4 ASUs) calibrated so chaos runs stay fast."""
    return SystemParams(
        n_hosts=2,
        n_asus=4,
        cycles_per_compare=100.0,
        cycles_per_record=300.0,
        cycles_per_net_byte=1.5,
        cycles_per_io_byte=0.5,
        block_records=512,
    )


def _policy_for(t0: float, max_attempts: Optional[int] = None) -> RetryPolicy:
    """Retry policy scaled to the fault-free makespan ``t0``.

    The first timeout grace must exceed an ack round-trip (else fault-free
    runs retransmit spuriously) yet stay far below the run length (else a
    drop window stalls the whole pass); ``t0/50`` sits comfortably between.
    """
    return RetryPolicy(
        timeout=t0 / 50,
        backoff=2.0,
        max_backoff=t0 / 10,
        jitter=0.25,
        max_attempts=max_attempts,
        window=64,
    )


def _fault_model(seed: int, t0: float, **classes) -> RandomFaultModel:
    """The per-seed message + disk fault schedule, scaled to ``t0``;
    ``classes`` adds the app's crash or degradation faults."""
    return RandomFaultModel(
        seed=seed,
        mtt_drop=1.5 * t0,
        mtt_dup=2.0 * t0,
        mtt_delay=2.0 * t0,
        mtt_corrupt=2.5 * t0,
        mtt_disk_fault=2.0 * t0,
        msg_fault_duration=t0 / 8,
        msg_delay=t0 / 50,
        disk_fault_duration=t0 / 10,
        **classes,
    )


# --------------------------------------------------------------------- apps
class ResilientFilterScan:
    """Active filter-scan over the reliable transport, with degradation.

    Per block, the producer consults the link's circuit breaker: healthy →
    filter at the ASU and ship only survivors (the active-storage win);
    breaker open → ship the raw block and let the host filter it (graceful
    degradation: correctness preserved, interconnect savings sacrificed
    while the link is quarantined).  Reads go through
    :func:`~repro.resilience.io.read_resilient`, ships through
    :meth:`~repro.resilience.channel.ReliableEndpoint.send`.
    """

    def __init__(
        self,
        params: SystemParams,
        n_records: int,
        seed: int = 0,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.params = params
        self.n_records = int(n_records)
        self.functor = FilterFunctor(lambda b: b["key"] % 2 == 0, compares=1.0)
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults
        self.seed = int(seed)
        rngs = RngRegistry(seed)
        per_asu = self.n_records // params.n_asus
        self.asu_data = [
            make_workload(rngs.get(f"w.{d}"), per_asu, "uniform", params.schema)
            for d in range(params.n_asus)
        ]

    def expected_keys(self) -> np.ndarray:
        kept = [self.functor.apply(b)[0] for b in self.asu_data]
        return np.sort(concat_records(kept, self.params.schema)["key"])

    def run(self, deadline: Optional[float] = None) -> dict:
        plat = ActivePlatform(self.params)
        board = BreakerBoard(
            plat.sim, fail_threshold=5, cooldown=self.policy.timeout * 8
        )
        rngs = RngRegistry(self.seed)
        eps = {
            node.node_id: ReliableEndpoint(
                plat, node,
                rng=rngs.get(f"rel.{node.node_id}"),
                policy=self.policy, board=board,
            )
            for node in [*plat.hosts, *plat.asus]
        }
        if self.faults is not None:
            Injector(plat, self.faults).arm()
        host = plat.hosts[0]
        D = self.params.n_asus
        blk = self.params.block_records
        rs = self.params.schema.record_size
        collected: list[np.ndarray] = []
        n_degraded = [0]

        def producer(d):
            asu = plat.asus[d]
            ep = eps[asu.node_id]
            data = self.asu_data[d]
            blocks = [data[s : s + blk] for s in range(0, data.shape[0], blk)]
            for block in blocks:
                yield from read_resilient(plat.sim, asu.disk, block.shape[0] * rs)
                staging = block.shape[0] * rs * self.params.cycles_per_io_byte
                if board.healthy(asu.node_id, host.node_id):
                    kept = yield from asu.compute(
                        cycles=staging
                        + self.functor.cost_cycles(block.shape[0], self.params),
                        fn=lambda b: self.functor.apply(b)[0],
                        args=(block,),
                    )
                    if kept.shape[0]:
                        yield from ep.send(
                            host.node_id, ("data", kept), kept.shape[0] * rs,
                            tag="data",
                        )
                else:
                    # Breaker open: this link is flapping.  Ship raw and let
                    # the host filter — degraded but correct.
                    n_degraded[0] += 1
                    if staging:
                        yield from asu.cpu.execute(cycles=staging)
                    yield from ep.send(
                        host.node_id, ("raw", block), block.shape[0] * rs,
                        tag="raw",
                    )
            yield from ep.send(host.node_id, ("eof", None), 16, tag="eof")

        def sink():
            ep = eps[host.node_id]
            n_eof = 0
            while n_eof < D:
                msg = yield from ep.recv()
                kind, payload = msg.payload
                if kind == "eof":
                    n_eof += 1
                elif kind == "raw":
                    kept = yield from host.compute(
                        cycles=self.functor.cost_cycles(
                            payload.shape[0], self.params
                        ),
                        fn=lambda b: self.functor.apply(b)[0],
                        args=(payload,),
                    )
                    if kept.shape[0]:
                        collected.append(kept)
                else:
                    collected.append(payload)

        procs = [
            plat.spawn(producer(d), name=f"scan{d}", node=plat.asus[d])
            for d in range(D)
        ]
        procs.append(plat.spawn(sink(), name="sink", node=host))
        done = plat.sim.all_of(procs)

        def _on_done(ev):
            if not ev.ok:
                raise ev.value
            plat.sim.stop()

        done.callbacks.append(_on_done)
        plat.sim.run(until=deadline)
        completed = all(p.triggered for p in procs)
        out = (
            concat_records(collected, self.params.schema)
            if collected
            else np.empty(0, dtype=self.params.schema.dtype)
        )
        stats: dict = {}
        for ep in eps.values():
            for k, v in ep.stats.as_dict().items():
                stats[k] = stats.get(k, 0) + v
        return {
            "completed": completed,
            "makespan": plat.sim.now,
            "keys": np.sort(out["key"]),
            "net_bytes": plat.network.bytes_total,
            "channel_stats": stats,
            "n_breaker_trips": board.n_trips(),
            "n_degraded_blocks": n_degraded[0],
        }


# ------------------------------------------------------------- scenarios
@dataclass(frozen=True)
class CaseContext:
    """What every case of one scenario in one sweep shares."""

    n_records: int
    workload_seed: int
    amp_bound: float
    #: fault-free makespan scaling every fault plan (``replicate``: one per
    #: replication factor, keyed ``str(r)``)
    t0: Union[float, dict]
    #: sha256 of the fault-free output, for scenarios that check the bytes
    digest: Optional[str]


@dataclass(frozen=True)
class Scenario:
    """One soak scenario (see the "Soak harness" section of RESILIENCE.md).

    ``reference(n, workload_seed) -> (t0, digest)``; ``run_case(params,
    ctx) -> evidence``; ``invariants(params, evidence, ctx) -> {name:
    bool}``; plan sources ``seeded(seed) -> params`` and ``grid(k) ->
    [params]``; ``checks`` maps a source to sweep-level checks ``(cases,
    ctx) -> {..., "ok": bool}``; ``columns`` name the evidence tabled.
    """

    name: str
    summary: str
    reference: Callable[[int, int], tuple]
    run_case: Callable[[dict, CaseContext], dict]
    invariants: Callable[[dict, dict, CaseContext], dict]
    columns: tuple
    seeded: Optional[Callable[[int], dict]] = None
    grid: Optional[Callable[[int], list]] = None
    checks: dict = field(default_factory=dict)


def _digest(records: np.ndarray) -> str:
    return hashlib.sha256(records.tobytes()).hexdigest()


def _sort_job(n_records: int, seed: int, plan: FaultPlan, **kw):
    """A DSM-Sort job on the chaos platform (α=8, γ=16)."""
    from ..dsmsort.runtime import DsmSortJob

    cfg = DSMConfig.for_n(n_records, alpha=8, gamma=16)
    return DsmSortJob(
        chaos_params(), cfg, policy="sr", seed=seed, faults=plan, **kw
    )


def _reliable_kw(t0: float, max_attempts: Optional[int] = None) -> dict:
    """Reliable transport with retry and heartbeats scaled to ``t0``."""
    return dict(
        transport="reliable", retry_policy=_policy_for(t0, max_attempts),
        heartbeat_interval=t0 / 40, heartbeat_timeout=t0 / 10,
    )


def _verified_digest(job) -> Optional[str]:
    """Run pass 2, then verify() (sorted + exact multiset: no loss, no
    duplicates); the output digest if it verifies, else None."""
    job.run_pass2()
    try:
        job.verify()
    except AssertionError:
        return None
    return _digest(job.collected_output())


def _plan_evidence(plan: FaultPlan) -> dict:
    return {"n_faults": len(plan), "fault_kinds": sorted(plan.kinds())}


def _channel_evidence(cs: Optional[dict]) -> dict:
    """Retry amplification (wire bytes over payload bytes) + dedup counters."""
    cs = cs or {}
    payload = cs.get("payload_bytes", 0)
    return {
        "amplification": (
            (payload + cs.get("retrans_bytes", 0)) / payload if payload else 1.0
        ),
        **{k: cs.get(k, 0)
           for k in ("n_retransmits", "n_dup_dropped", "n_corrupt_dropped")},
    }


def _seed_plan(seed: int) -> dict:
    return {"seed": seed}


# ------------------------------------------------------------- references
def _reliable_reference(n_records: int, workload_seed: int) -> tuple:
    """Reliable-transport sort: pass-1 makespan and output digest."""
    # A provisional direct-transport run sizes the retry policy; the real
    # baseline then runs the same reliable stack the cases use.
    provisional = _sort_job(
        n_records, workload_seed, FaultPlan()
    ).run_pass1().makespan
    job = _sort_job(
        n_records, workload_seed, FaultPlan(),
        transport="reliable", retry_policy=_policy_for(provisional),
    )
    t0 = job.run_pass1().makespan
    job.run_pass2()
    job.verify()
    return t0, _digest(job.collected_output())


def _ft_reference(n_records: int, workload_seed: int) -> tuple:
    """Fault-free FT sort: two-pass makespan and output digest."""
    job = _sort_job(n_records, workload_seed, FaultPlan())
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    return r1.makespan + r2.makespan, _digest(job.collected_output())


def _filterscan_reference(n_records: int, workload_seed: int) -> tuple:
    """Fault-free reliable-transport filter-scan makespan."""
    params = chaos_params()
    provisional = ResilientFilterScan(
        params, n_records, seed=workload_seed
    ).run()["makespan"]
    app = ResilientFilterScan(
        params, n_records, seed=workload_seed, policy=_policy_for(provisional)
    )
    return app.run()["makespan"], None


#: fixed arrival-stream length for the scheduler chaos app: long enough to
#: force preemptions and restart-budget kills at 3x overload, short enough
#: that one case stays in the same cost band as the other apps
_SCHED_CHAOS_JOBS = 30
#: offered load as a multiple of measured fleet capacity — deep saturation,
#: so admission control, preemption and the restart budget all fire
_SCHED_CHAOS_OVERLOAD = 3.0


def _scheduler_reference(n_records: int, workload_seed: int) -> tuple:
    """Ideal drain time of the chaos arrival stream (offered work / capacity).

    The scheduler app has no fault-free twin — overload *is* the chaos — so
    the makespan ratio is normalised against the work-conserving lower bound
    instead.
    """
    from ..sched import ServiceOracle, default_mix, estimate_capacity, serve_params

    capacity = estimate_capacity(serve_params(), default_mix(), ServiceOracle())
    return _SCHED_CHAOS_JOBS / capacity, None


_REPLICATION_FACTORS = (1, 2, 3)
_REPLICATE_HB = dict(heartbeat_interval=0.002, heartbeat_timeout=0.008)


def _replicate_reference(n_records: int, workload_seed: int) -> tuple:
    """Fault-free replicated sorts: pass-1 makespan per r, one digest.

    Replication changes placement, never content, so every r must produce
    the same bytes.
    """
    from ..replica import ReplicationConfig

    t0, digests = {}, set()
    for r in _REPLICATION_FACTORS:
        job = _sort_job(
            n_records, workload_seed, FaultPlan(),
            replication=ReplicationConfig(r=r), **_REPLICATE_HB,
        )
        t0[str(r)] = job.run_pass1().makespan
        digests.add(_verified_digest(job))
    if len(digests) != 1 or None in digests:
        raise RuntimeError("fault-free replicated outputs differ or do not verify")
    return t0, digests.pop()


# ------------------------------------------------------------------ cases
def _dsmsort_case(p: dict, ctx: CaseContext) -> dict:
    t0 = ctx.t0
    plan = _fault_model(
        p["seed"], t0, mttf_asu=8.0 * t0, mttf_host=16.0 * t0, max_crashes=1
    ).plan(chaos_params(), horizon=0.8 * t0)
    job = _sort_job(ctx.n_records, ctx.workload_seed, plan, **_reliable_kw(t0))
    res = job.run_pass1(deadline=12.0 * t0)
    return {
        **_plan_evidence(plan),
        "completed": bool(res.completed),
        "sha256": _verified_digest(job) if res.completed else None,
        "n_durable": int(res.n_durable),
        "makespan_ratio": res.makespan / t0,
        **_channel_evidence(res.channel_stats),
        "n_breaker_trips": res.n_breaker_trips,
        "n_replayed_frags": res.n_replayed_frags,
        "n_takeover_blocks": res.n_takeover_blocks,
    }


def _dsmsort_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    return {
        "completed": ev["completed"],
        "sorted_permutation": ev["sha256"] is not None,
        "exact_count": ev["completed"] and ev["n_durable"] == ctx.n_records,
        "amplification_bounded": ev["amplification"] <= ctx.amp_bound,
    }


def _negative_control(cases: list, ctx: CaseContext) -> dict:
    """Retries disabled + forced drop windows => records must be LOST.

    This is the control group proving the chaos invariants are earned by
    the retransmission layer: with ``max_attempts=1`` the same drop fault
    that the positive cases shrug off permanently loses fragments, so the
    pass cannot complete (the deadline converts the stall into a partial
    result).
    """
    t0, n = ctx.t0, ctx.n_records
    params = chaos_params()
    plan = FaultPlan([
        drop_msg(0.3 * t0, h, d, 0.15 * t0)
        for h in range(params.n_hosts)
        for d in range(params.n_asus)
    ])
    job = _sort_job(
        n, ctx.workload_seed, plan, **_reliable_kw(t0, max_attempts=1)
    )
    res = job.run_pass1(deadline=4.0 * t0)
    n_durable = int(max(res.n_durable, 0))
    return {
        "completed": bool(res.completed),
        "n_total": n,
        "n_durable": n_durable,
        "lost_records": n - n_durable,
        # The control PASSES by FAILING: incomplete and demonstrably lossy.
        "ok": bool(not res.completed and n_durable < n),
    }


def _filterscan_case(p: dict, ctx: CaseContext) -> dict:
    t0 = ctx.t0
    params = chaos_params()
    # no crashes: the scan has no replica recovery, so reliability must
    # come from the channel alone
    plan = _fault_model(
        p["seed"], t0, mtt_degrade=3.0 * t0, degrade_factor=0.5,
        degrade_duration=t0 / 4,
    ).plan(params, horizon=0.8 * t0)
    app = ResilientFilterScan(
        params, ctx.n_records, seed=ctx.workload_seed,
        policy=_policy_for(t0), faults=plan,
    )
    res = app.run(deadline=12.0 * t0)
    return {
        **_plan_evidence(plan),
        "completed": bool(res["completed"]),
        "exact_multiset": bool(
            res["completed"]
            and np.array_equal(res["keys"], app.expected_keys())
        ),
        "makespan_ratio": res["makespan"] / t0,
        **_channel_evidence(res["channel_stats"]),
        "n_breaker_trips": res["n_breaker_trips"],
        "n_degraded_blocks": res["n_degraded_blocks"],
    }


def _filterscan_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    return {
        "completed": ev["completed"],
        "exact_multiset": ev["exact_multiset"],
        "amplification_bounded": ev["amplification"] <= ctx.amp_bound,
    }


def _recovery_seeded(seed: int) -> dict:
    rng = np.random.default_rng(derive_seed(seed, "chaos-recovery"))
    return {"seed": seed, "crash_frac": float(rng.uniform(0.05, 0.95))}


def _recovery_grid(k: int) -> list:
    return [{"crash_frac": (i + 1) / (k + 1)} for i in range(k)]


def _recovery_case(p: dict, ctx: CaseContext) -> dict:
    """Coordinator kill at ``crash_frac`` of T0, then checkpoint-restart.

    Whatever the kill instant, the supervised resume must complete and
    produce output byte-identical to the uninterrupted reference, with the
    manifest showing zero duplicate fragment coverage.
    """
    from ..recovery.checkpoint import RecoverableSort
    from ..recovery.manifest import CheckpointError
    from ..recovery.supervisor import RestartBudget

    crash_at = p["crash_frac"] * ctx.t0
    sort = RecoverableSort(
        chaos_params(), DSMConfig.for_n(ctx.n_records, alpha=8, gamma=16),
        seed=ctx.workload_seed, policy="sr",
    )
    rep = sort.run_supervised(
        crashes=[crash_at], budget=RestartBudget(max_restarts=3)
    )
    ev = {
        "n_faults": 1,
        "fault_kinds": ["crash_coordinator"],
        "crash_at": crash_at,
        "completed": bool(rep.completed),
        "sha256": None,
        "exactly_once_coverage": False,
        "makespan_ratio": rep.total_virtual_time / ctx.t0,
        "manifest_bytes": int(sort.manifest.bytes_logged),
        "n_attempts": rep.n_attempts,
        "n_crashes": rep.n_crashes,
    }
    if rep.completed:
        sort.verify()
        ev["sha256"] = _digest(sort.output())
        try:
            sort.manifest.check_no_duplicate_coverage()
            ev["exactly_once_coverage"] = True
        except CheckpointError:
            pass
    return ev


def _recovery_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    return {
        "completed": ev["completed"],
        "byte_identical": ev["sha256"] == ctx.digest,
        "no_duplicate_coverage": ev["exactly_once_coverage"],
        "crash_observed": ev["n_crashes"] >= 1 or ev["crash_at"] >= ctx.t0,
    }


def _straggler_seeded(seed: int) -> dict:
    rng = np.random.default_rng(derive_seed(seed, "chaos-straggler"))
    return {
        "seed": seed,
        "victim": int(rng.integers(0, chaos_params().n_asus)),
        "degrade_factor": float(rng.uniform(0.1, 0.3)),
        "start_frac": float(rng.uniform(0.01, 0.1)),
    }


def _straggler_case(p: dict, ctx: CaseContext) -> dict:
    """A heavy ASU degradation, raced with and without speculation.

    Both runs must complete and verify (exactly-once despite hedged
    duplicate replicas), and speculation must never make the degraded
    schedule slower.
    """
    from ..faults.injector import degrade_asu
    from ..recovery.speculate import SpeculationPolicy

    t0 = ctx.t0
    plan = FaultPlan([degrade_asu(
        p["start_frac"] * t0, p["victim"], duration=8.0 * t0,
        factor=p["degrade_factor"],
    )])
    base = _sort_job(ctx.n_records, ctx.workload_seed, plan)
    b1 = base.run_pass1()
    b2 = base.run_pass2()
    base.verify()
    mk_base = b1.makespan + b2.makespan
    policy = SpeculationPolicy(
        interval=t0 / 25, warmup=t0 / 10,
        max_hedges=chaos_params().n_asus, seed=p["seed"],
    )
    spec = _sort_job(
        ctx.n_records, ctx.workload_seed, plan, speculation=policy
    )
    s1 = spec.run_pass1()
    s2 = spec.run_pass2()
    try:
        spec.verify()  # sorted + exact multiset: hedges added no duplicates
        verified = True
    except AssertionError:
        verified = False
    mk_spec = s1.makespan + s2.makespan
    return {
        **_plan_evidence(plan),
        "completed": bool(b1.completed and s1.completed),
        "verified": verified,
        "makespan_ratio": mk_spec / t0,
        "makespan_ratio_nospec": mk_base / t0,
        "speedup": mk_base / mk_spec if mk_spec else 1.0,
        "n_hedged_shards": s1.n_hedged_shards,
        "n_hedge_wasted_frags": s1.n_hedge_wasted_frags,
    }


def _straggler_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    return {
        "completed": ev["completed"],
        "sorted_permutation": ev["verified"],
        "not_slower": (
            ev["makespan_ratio"] <= ev["makespan_ratio_nospec"] * 1.001
        ),
    }


def _scheduler_case(p: dict, ctx: CaseContext) -> dict:
    """Multi-tenant scheduler at 3x overload: preemption + restart budget.

    The chaos here is *contention*, not injected faults: a seeded Poisson
    stream at triple the fleet's measured capacity drives strict-priority
    preemption, quota rejections and restart-budget kills simultaneously.
    The stream runs twice to check the summary cell replays byte-for-byte.
    """
    from ..recovery.supervisor import RestartBudget
    from ..sched import (
        JobState,
        OpenLoopWorkload,
        Scheduler,
        ServiceOracle,
        default_mix,
        default_tenants,
        serve_params,
        summarize_outcome,
    )

    rate = _SCHED_CHAOS_OVERLOAD * (_SCHED_CHAOS_JOBS / ctx.t0)
    runs = []
    for _ in range(2):
        arrivals = OpenLoopWorkload(
            rate, default_mix(), _SCHED_CHAOS_JOBS, seed=p["seed"]
        ).generate()
        sched = Scheduler(
            serve_params(),
            default_tenants(),
            "priority",
            oracle=ServiceOracle(),
            restart_budget=RestartBudget(max_restarts=1),
            preempt=True,
            policy_kwargs={"age_rate": 0.05},
        )
        outcome = sched.run(arrivals)
        runs.append((sched, outcome, json.dumps(
            summarize_outcome(outcome, sched.tenants, rate),
            sort_keys=True, separators=(",", ":"),
        )))
    (sched, outcome, cell), (_, _, replayed_cell) = runs
    jobs = outcome.jobs
    reg = sched.registry
    return {
        "n_faults": int(outcome.n_preempted + outcome.n_failed),
        "fault_kinds": ["overload", "preempt", "restart_budget"],
        "makespan_ratio": outcome.makespan / ctx.t0,
        "n_jobs": len(jobs),
        "n_terminal": sum(1 for j in jobs if j.state in JobState.TERMINAL),
        "n_done": sum(1 for j in jobs if j.state == JobState.DONE),
        "n_rejected": int(outcome.n_rejected),
        "n_preempted": int(outcome.n_preempted),
        "n_restarted": int(outcome.n_restarted),
        "n_failed": sum(1 for j in jobs if j.state == JobState.FAILED),
        "n_unfinished": len(sched.queued) + len(sched.running),
        "n_leases_held": len(sched._lease_of),
        "metric_counters": {
            "done": reg.counter("repro_sched_jobs_completed_total").value,
            "failed": reg.counter("repro_sched_jobs_failed_total").value,
            "rejected": reg.counter("repro_sched_jobs_rejected_total").value,
            "preempted": reg.counter("repro_sched_preemptions_total").value,
        },
        "replay_identical": replayed_cell == cell,
    }


def _scheduler_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    return {
        "all_terminal": ev["n_terminal"] == ev["n_jobs"],
        "accounting_exact": (
            ev["n_done"] + ev["n_failed"] + ev["n_rejected"] == ev["n_jobs"]
        ),
        "queues_drained": ev["n_unfinished"] == 0,
        "leases_released": ev["n_leases_held"] == 0,
        "counters_consistent": ev["metric_counters"] == {
            "done": ev["n_done"], "failed": ev["n_failed"],
            "rejected": ev["n_rejected"], "preempted": ev["n_preempted"],
        },
        # which contention lever fires (preemption, quota rejection, budget
        # kill) varies per seed; the case only proves itself non-vacuous if
        # at least one did
        "overload_exercised": (
            ev["n_preempted"] + ev["n_rejected"] + ev["n_restarted"] > 0
        ),
        "deterministic_replay": ev["replay_identical"],
    }


#: a cut this long (as a fraction of T0) outlasts the detection horizon
_LONG_CUT = 0.5


def _partition_seeded(seed: int) -> dict:
    rng = np.random.default_rng(derive_seed(seed, "chaos-partition"))
    n_cut = int(rng.integers(1, 3))
    cut = sorted(
        int(d)
        for d in rng.choice(chaos_params().n_asus, size=n_cut, replace=False)
    )
    asymmetry = ("both", "out", "in")[int(rng.integers(0, 3))]
    long_cut = bool(rng.integers(0, 2))
    start_frac = float(rng.uniform(0.15, 0.35))
    return {
        "seed": seed,
        "cut_asus": cut,
        "cut_hosts": [],
        "asymmetry": asymmetry,
        "duration_frac": _LONG_CUT if long_cut else 0.08,
        "start_frac": start_frac,
        "killed_in_cut": bool(long_cut and n_cut == 1 and rng.integers(0, 2)),
    }


def _partition_grid(k: int) -> list:
    """Cut group x window length x asymmetry x mid-cut kill (``k`` unused)."""
    return [
        {
            "cut_asus": list(asus), "cut_hosts": list(hosts),
            "asymmetry": asymmetry, "duration_frac": duration_frac,
            "start_frac": 0.25, "killed_in_cut": kill,
        }
        for asus, hosts in (((1,), ()), ((1, 2), ()), ((), (1,)))
        for duration_frac in (0.08, _LONG_CUT)
        for asymmetry in ("both", "out", "in")
        for kill in (False, True)
    ]


def _partition_case(p: dict, ctx: CaseContext) -> dict:
    """One network cut against the membership / epoch-fencing stack.

    Runs the replicated sort (r=2) with the network-borne failure detector
    under the cut, optionally killing a cut node *while it is unreachable*.
    The output must be a sorted permutation byte-identical to the
    fault-free reference: no split-brain double-writes leaked past the
    epoch fences and no records were lost to the cut.
    """
    from ..faults.injector import crash_asu, crash_host, partition
    from ..replica import ReplicationConfig

    t0 = ctx.t0
    start, duration = p["start_frac"] * t0, p["duration_frac"] * t0
    faults = [partition(start, p["cut_asus"], hosts=p["cut_hosts"],
                        duration=duration, asymmetry=p["asymmetry"])]
    if p["killed_in_cut"]:
        # the split-brain acid test: the node dies while partitioned, so
        # "crashed" and "unreachable" are indistinguishable until the heal
        t_kill = start + 0.4 * duration
        faults.append(
            crash_asu(t_kill, p["cut_asus"][0]) if p["cut_asus"]
            else crash_host(t_kill, p["cut_hosts"][0])
        )
    plan = FaultPlan(faults)
    job = _sort_job(
        ctx.n_records, ctx.workload_seed, plan, **_reliable_kw(t0),
        replication=ReplicationConfig(r=2),
        detection_mode="network", probe_timeout=t0 / 10,
    )
    res = job.run_pass1(deadline=20.0 * t0)
    return {
        **_plan_evidence(plan),
        "completed": bool(res.completed),
        "sha256": _verified_digest(job) if res.completed else None,
        "makespan_ratio": res.makespan / t0,
        **_channel_evidence(res.channel_stats),
        "n_breaker_trips": res.n_breaker_trips,
        "n_epoch_rejections": int(res.n_epoch_rejections),
        "n_readmitted": int(res.n_readmitted),
        "n_reconciled_runs": int(res.n_reconciled_runs),
        "n_divergent_copies": int(res.n_divergent_copies),
        "n_dup_frags_dropped": int(res.n_dup_frags_dropped),
        "n_takeover_blocks": int(res.n_takeover_blocks),
        "view_epoch": int(res.view_epoch),
    }


def _partition_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    # "in" cuts never silence the minority's outbound heartbeats, so the
    # detector must stay quiet; "both"/"out" cuts longer than the detection
    # horizon must expel — and re-admit once heartbeats resume (unless the
    # node was killed mid-cut, in which case only the expulsion epoch shows)
    disruptive = (
        p["duration_frac"] >= _LONG_CUT and p["asymmetry"] in ("both", "out")
    )
    return {
        "completed": ev["completed"],
        "sorted_permutation": ev["sha256"] is not None,
        "byte_identical_no_split_brain": ev["sha256"] == ctx.digest,
        # a cut legitimately amplifies: every pending into the severed route
        # retransmits (bounded by backoff) for the whole window, so the
        # partition app earns twice the flood allowance of the other apps
        "amplification_bounded": ev["amplification"] <= 2.0 * ctx.amp_bound,
        "disruption_observed": (
            not disruptive
            or ev["n_readmitted"] >= 1
            or (p["killed_in_cut"] and ev["view_epoch"] >= 2)
        ),
    }


def _fencing_exercised(cases: list, ctx: CaseContext) -> dict:
    """Stale-epoch writes were rejected in some "out"/"both" cut, or the
    no-split-brain claim is vacuous."""
    n = sum(
        1 for c in cases
        if c["params"]["asymmetry"] in ("out", "both")
        and c.get("n_epoch_rejections", 0) > 0
    )
    return {"n_fenced_cases": n, "ok": n > 0}


def _replicate_grid(k: int) -> list:
    fracs = [(i + 1) / (k + 1) for i in range(k)]
    return [
        {"r": r, "asu": asu, "kill_frac": frac}
        for r in _REPLICATION_FACTORS
        for asu in range(chaos_params().n_asus)
        for frac in fracs
    ]


def _replicate_case(p: dict, ctx: CaseContext) -> dict:
    """One ASU killed at ``kill_frac`` of the fault-free makespan for its r.

    The job must complete byte-identical to the reference, and with r >= 2
    recovery must be pure promotion: zero fragment replay and zero run
    re-emission.
    """
    from ..faults.injector import crash_asu
    from ..replica import ReplicationConfig

    t0 = ctx.t0[str(p["r"])]
    kill_at = p["kill_frac"] * t0
    job = _sort_job(
        ctx.n_records, ctx.workload_seed,
        FaultPlan([crash_asu(kill_at, p["asu"])]),
        replication=ReplicationConfig(r=p["r"]), **_REPLICATE_HB,
    )
    r1 = job.run_pass1()
    return {
        "kill_at": kill_at,
        "completed": bool(r1.completed),
        "sha256": _verified_digest(job),
        "makespan_ratio": r1.makespan / t0,
        "n_replayed_frags": int(r1.n_replayed_frags),
        "n_reemitted_runs": int(r1.n_reemitted_runs),
        "n_promoted_runs": int(r1.n_promoted_runs),
        "n_repaired_copies": int(r1.n_repaired_copies),
    }


def _replicate_invariants(p: dict, ev: dict, ctx: CaseContext) -> dict:
    return {
        "completed": ev["completed"],
        "byte_identical": ev["sha256"] == ctx.digest,
        "promotion_only": p["r"] < 2 or (
            ev["n_replayed_frags"] == 0 and ev["n_reemitted_runs"] == 0
        ),
    }


_CHANNEL_COLUMNS = ("n_faults", "makespan_ratio", "amplification",
                    "n_retransmits", "n_breaker_trips")

#: the scenario registry behind ``python -m repro chaos`` and the
#: ``recover`` / ``replicate`` / ``partition`` grids
SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(
        "dsmsort",
        "DSM-Sort run formation under seeded message/disk/crash chaos",
        _reliable_reference, _dsmsort_case, _dsmsort_invariants,
        columns=_CHANNEL_COLUMNS,
        seeded=_seed_plan, checks={"seeded": (_negative_control,)},
    ),
    Scenario(
        "filterscan",
        "Active filter-scan on the reliable channel, degrading via breakers",
        _filterscan_reference, _filterscan_case, _filterscan_invariants,
        columns=(*_CHANNEL_COLUMNS, "n_degraded_blocks"),
        seeded=_seed_plan,
    ),
    Scenario(
        "recovery",
        "Coordinator kill, then checkpoint-restart to byte-identical output",
        _ft_reference, _recovery_case, _recovery_invariants,
        columns=("crash_at", "n_attempts", "makespan_ratio"),
        seeded=_recovery_seeded, grid=_recovery_grid,
    ),
    Scenario(
        "straggler",
        "Heavy ASU degradation, raced with and without speculation",
        _ft_reference, _straggler_case, _straggler_invariants,
        columns=("makespan_ratio", "speedup", "n_hedged_shards"),
        seeded=_straggler_seeded,
    ),
    Scenario(
        "scheduler",
        "Multi-tenant scheduler at 3x overload: preemption + restart budget",
        _scheduler_reference, _scheduler_case, _scheduler_invariants,
        columns=("makespan_ratio", "n_done", "n_rejected", "n_preempted",
                 "n_restarted"),
        seeded=_seed_plan,
    ),
    Scenario(
        "partition",
        "Network cut against the membership / epoch-fencing stack (r=2)",
        _reliable_reference, _partition_case, _partition_invariants,
        columns=("makespan_ratio", "n_epoch_rejections", "n_readmitted",
                 "n_reconciled_runs", "view_epoch"),
        seeded=_partition_seeded, grid=_partition_grid,
        checks={"grid": (_fencing_exercised,)},
    ),
    Scenario(
        "replicate",
        "ASU kill under r-way run replication (r=1..3): promotion, no replay",
        _replicate_reference, _replicate_case, _replicate_invariants,
        columns=("makespan_ratio", "n_replayed_frags", "n_reemitted_runs",
                 "n_promoted_runs"),
        grid=_replicate_grid,
    ),
)}


# ------------------------------------------------------------------ report
def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    if isinstance(v, list):
        return ",".join(map(str, v)) or "-"
    return str(v)


def _label(params: dict) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in params.items())


@dataclass
class ChaosReport:
    """Outcome of one soak sweep (JSON-stable, wall-clock free).

    ``source`` is ``{"seeded": [seeds]}`` or ``{"grid": k}``; ``baselines``
    holds each scenario's reference (``t0``, ``sha256``).  Each case is
    ``{"app", "params", <evidence>..., "invariants", "ok"}``.
    """

    n_records: int
    workload_seed: int
    amp_bound: float
    scenarios: list[str]
    source: dict
    baselines: dict
    cases: list[dict] = field(default_factory=list)
    sweep_checks: dict = field(default_factory=dict)
    #: version of this report layout
    schema_version: int = 2

    def violations(self) -> list[str]:
        out = []
        for c in self.cases:
            for name in sorted(c["invariants"]):
                if not c["invariants"][name]:
                    out.append(f"{c['app']}/{_label(c['params'])}: {name}")
        for name, rec in sorted(self.sweep_checks.items()):
            if not rec["ok"]:
                out.append(f"{name}: sweep check failed")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def to_json(self) -> str:
        """Canonical JSON: two identical sweeps are byte-identical."""
        doc = {**asdict(self), "ok": self.ok, "violations": self.violations()}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def render(self) -> str:
        cols = list(dict.fromkeys(
            k for name in self.scenarios for k in SCENARIOS[name].columns
        ))
        rows = [
            [c["app"], _label(c["params"]),
             *(_fmt(c.get(k, "")) for k in cols),
             "ok" if c["ok"] else "FAIL"]
            for c in self.cases
        ]
        lines = [render_table(
            ["app", "case",
             *(k.removeprefix("n_") for k in cols), "result"],
            rows,
            title=f"{' + '.join(self.scenarios)} soak ({next(iter(self.source))}), "
            f"N={self.n_records}, {len(self.cases)} cases",
        )]
        for name, rec in sorted(self.sweep_checks.items()):
            lines.append(f"sweep check {name}: {rec}")
        v = self.violations()
        lines.append(
            "PASS: all invariants held" if not v
            else "FAIL: " + "; ".join(v)
        )
        return "\n".join(lines)


# ------------------------------------------------------------------- sweep
def _run_case(task: tuple) -> dict:
    """One case (module-level so it pickles); a case that raises becomes a
    failed ``raised: <type>: <message>`` invariant (``raised_at`` names the
    innermost frame), not an aborted sweep."""
    name, params, ctx = task
    scenario = SCENARIOS[name]
    try:
        ev = scenario.run_case(params, ctx)
        inv = scenario.invariants(params, ev, ctx)
    except Exception as e:
        frame = traceback.extract_tb(e.__traceback__)[-1]
        ev = {"raised_at": f"{Path(frame.filename).name}:{frame.lineno} "
                           f"in {frame.name}"}
        inv = {f"raised: {type(e).__name__}: {e}": False}
    inv = {k: bool(v) for k, v in inv.items()}
    return {
        "app": name, "params": params, **ev,
        "invariants": inv, "ok": all(inv.values()),
    }


def run_chaos(
    seeds: Union[int, Sequence[int]] = 12,
    apps: Sequence[str] = ("dsmsort", "filterscan"),
    n_records: int = 1 << 13,
    amp_bound: float = 3.5,
    negative_control: bool = True,
    seed0: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> ChaosReport:
    """Sweep seeded fault schedules across the apps; return the report.

    ``seeds`` is a count (seeds ``seed0 .. seed0 + seeds - 1``) or an
    explicit sequence.  The workload seed is 0, so only the fault schedule
    varies.  ``negative_control=False`` skips the seeded sweep checks (the
    dsmsort negative control).  See :func:`run_soak`.
    """
    seed_list = (
        list(range(seed0, seed0 + seeds)) if isinstance(seeds, int) else list(seeds)
    )
    return run_soak(
        apps, {"seeded": seed_list}, n_records, 0, amp_bound,
        negative_control, progress, workers,
    )


def run_soak(
    names: Sequence[str],
    source: dict,
    n_records: int,
    workload_seed: int = 0,
    amp_bound: float = 3.5,
    sweep_checks: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> ChaosReport:
    """Run the named scenarios over ``source`` (``{"seeded": [seeds]}`` or
    ``{"grid": k}``): references once per sweep, then the cases across
    ``workers`` processes (default ``REPRO_BENCH_WORKERS`` or the CPU count)
    merged in input order, then the sweep checks unless ``sweep_checks`` is
    false.  The report is byte-identical at any worker count.
    """
    from ..bench.parallel import parallel_map

    (kind, arg), = source.items()
    for name in names:
        if getattr(SCENARIOS.get(name), kind, None) is None:
            raise ValueError(
                f"unknown chaos app {name!r} for {kind} plans; expected one of "
                f"{sorted(n for n, s in SCENARIOS.items() if getattr(s, kind))}"
            )
    say = progress if progress is not None else (lambda _msg: None)
    refs: dict = {}
    ctxs: dict[str, CaseContext] = {}
    for name in names:
        ref_fn = SCENARIOS[name].reference
        if ref_fn not in refs:
            refs[ref_fn] = ref_fn(n_records, workload_seed)
        t0, digest = refs[ref_fn]
        ctxs[name] = CaseContext(
            int(n_records), int(workload_seed), float(amp_bound), t0, digest
        )
        say(f"reference {name}: T0={_fmt(t0)}"
            + (f", sha256={digest[:16]}" if digest else ""))
    if kind == "seeded":
        plans = [(name, SCENARIOS[name].seeded(s)) for s in arg for name in names]
    else:
        plans = [(name, p) for name in names for p in SCENARIOS[name].grid(arg)]
    report = ChaosReport(
        n_records=int(n_records),
        workload_seed=int(workload_seed),
        amp_bound=float(amp_bound),
        scenarios=list(names),
        source={kind: arg},
        baselines={
            name: {"t0": ctx.t0, "sha256": ctx.digest}
            for name, ctx in ctxs.items()
        },
    )
    tasks = [(name, p, ctxs[name]) for name, p in plans]
    for case in parallel_map(_run_case, tasks, workers=workers):
        report.cases.append(case)
        say(f"{case['app']} {_label(case['params'])}: "
            f"{'ok' if case['ok'] else 'VIOLATION'}")
    if sweep_checks:
        for name in names:
            mine = [c for c in report.cases if c["app"] == name]
            for check in SCENARIOS[name].checks.get(kind, ()):
                report.sweep_checks[check.__name__.lstrip("_")] = check(
                    mine, ctxs[name]
                )
    return report
