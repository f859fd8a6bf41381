"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort-large-runs --seed 1 --seconds 15 --trace 0

The program is imported from the checkout's ``src/``; without it the command
exits with code 2 and prints no result.  Human-readable report lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload has a fixed job set derived from ``--seed``.  ``--trace 0``
runs the set ``round(seconds / nominal_set_s)`` times (at least once) with no
instrumentation.  Host seconds are also given at a reference host speed,
sampled just before and after every job and between the cells of a
Figure-9 sweep (see :mod:`speed`); the bounded ``setup_s`` and ``wall_s``
use them, and the report prints the measured seconds beside.  Each job keeps its best time over the repeats: other
tenants of a shared machine only ever slow a job down.  Every repeat must
reproduce the simulated results of the first.

``--trace 1`` runs the set once untraced, once traced (spans and counters,
see :mod:`layers`) and once profiled (a sampling profile grouped by
package), and reports the per-layer metrics; none of its timings feed the
end-to-end numbers.  Spans are written to ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: set-up repetitions whose median is ``setup_s``
SETUP_REPS = 5

#: (name, unit) of every end-to-end metric; see BENCHMARK.json for bounds
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "s"),
)

#: every span name, in the order reported
SPAN_NAMES = tuple(layers.SPAN_TARGETS)

#: (name, unit) of every per-layer metric
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.run_s", "s"),
    ("emulator.cpu_segments", "count"),
    ("emulator.disk_ops", "count"),
    ("emulator.messages", "count"),
    ("emulator.net_bytes", "B"),
    ("dsmsort.runs", "count"),
    ("dsmsort.events_per_run", "events/run"),
    ("dsmsort.pass1_s", "s"),
    ("dsmsort.pass2_s", "s"),
    ("dsmsort.verify_s", "s"),
    ("compute.sort_s", "s"),
    ("compute.distribute_s", "s"),
    ("compute.merge_s", "s"),
    ("compute.records_sorted", "count"),
    ("replica.placement_calls", "count"),
    ("replica.placement_s", "s"),
    ("replica.promoted_runs", "count"),
    ("replica.repaired_copies", "count"),
    ("replica.underreplicated_end", "count"),
    ("resilience.retransmits", "count"),
    ("resilience.breaker_trips", "count"),
    ("resilience.payload_bytes", "B"),
    ("resilience.amplification", "ratio"),
    ("recovery.replayed_frags", "count"),
    ("recovery.reemitted_runs", "count"),
    ("recovery.takeover_blocks", "count"),
    ("faults.injected", "count"),
    ("faults.failed_stall", "count"),
    ("faults.failed_exception", "count"),
    ("faults.failed_verify", "count"),
    ("membership.epoch_rejections", "count"),
    ("membership.readmitted", "count"),
    ("sched.oracle_lookups", "count"),
    ("sched.oracle_emulations", "count"),
    ("sched.oracle_hit_ratio", "ratio"),
    ("sched.run_self_s", "s"),
    ("sched.preempted", "count"),
    ("sched.rejected", "count"),
    ("bench.emulations_per_sweep", "count"),
    ("bench.harness_self_s", "s"),
    *((f"calls.{n}", "count") for n in SPAN_NAMES),
    *((f"self_s.{n}", "s") for n in SPAN_NAMES),
    *((f"host_share.{g}", "%") for g in layers.SHARE_NAMES),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _import_program():
    """Import the workloads against this checkout's ``src/``, or exit 2."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def import_fresh() -> None:
    """Import the program in a fresh interpreter (part of ``setup_s``)."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    subprocess.run([sys.executable, "-c", code], check=True)


def sim_digest(outcomes) -> str:
    """SHA-256 over every simulated statistic of the jobs, in job order."""
    blob = json.dumps(
        [o.sim for o in outcomes], sort_keys=True, default=lambda v: v.item()
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run_job_set(workload, ctx, seeds, repeats: int = 1):
    """Run the job set ``repeats`` times, a whole set after another.

    Returns one outcome per job with its best reference-speed time over the
    repeats, and whether every repeat reproduced the first one's simulated
    results.
    """
    best = [workload.run_job(ctx, s) for s in seeds]
    same = True
    for _ in range(repeats - 1):
        for first, again in zip(best, [workload.run_job(ctx, s) for s in seeds]):
            same = same and again.sim == first.sim
            if again.ref_s < first.ref_s:
                first.host_s, first.ref_s = again.host_s, again.ref_s
    return best, same


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten jobs beyond it: (value, pct, n)."""
    n = len(times)
    if n < 11:
        return None
    idx = n - 11
    return sorted(times)[idx], 100.0 * (idx + 1) / n, n


def is_incorrect(reason) -> bool:
    """A wrong output, as opposed to a job that raised or stalled."""
    return reason is not None and reason.split(":")[0] in ("verify", "count", "check")


def all_correct(workload, outcomes) -> bool:
    """No wrong output, and no failed job at all unless faults were injected."""
    return all(
        o.ok or (workload.injects_faults and not is_incorrect(o.reason)) for o in outcomes
    )


def end_to_end(outcomes, setup_s):
    done = [o.makespan for o in outcomes if o.makespan is not None]
    return {
        "setup_s": setup_s,
        "wall_s": sum(o.ref_s for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_makespan_s": statistics.median(done) if done else 0.0,
    }


def extras(workload, outcomes) -> list[str]:
    """Report lines for the workload-specific metrics and the failures."""
    ref_total = sum(o.ref_s for o in outcomes)
    failed = [o for o in outcomes if not o.ok]
    lines = [
        f"measured wall_s = {sum(o.host_s for o in outcomes):.6g} s "
        f"(reference speed: probe {1e3 * speed.PROBE_REF_S:g} ms)",
    ]
    if workload.name == "serve-sweep":
        arrivals = sum(o.extra["arrivals"] for o in outcomes)
        lines.append(f"jobs_per_s = {arrivals / ref_total:.6g} 1/s ({arrivals} arrivals simulated)")
    else:
        records = sum(o.records for o in outcomes)
        lines.append(f"records_per_s = {records / ref_total:.6g} records/s ({records} verified records)")
    times = [o.ref_s for o in outcomes]
    lines.append(f"job_wall_p50_s = {statistics.median(times):.6g} s ({len(times)} jobs)")
    t = tail(times)
    if workload.name != "fig9-sweep":
        lines.append(
            "job_wall_tail_s = n/a (fewer than 11 jobs)" if t is None
            else f"job_wall_tail_s = {t[0]:.6g} s (p{t[1]:.0f} of {t[2]} jobs, 10 beyond)"
        )
    lines.append(f"fail_ratio = {len(failed) / len(outcomes):.4g} ({len(failed)} of {len(outcomes)} jobs)")
    keys = sorted({k for o in outcomes for k in o.extra} - {"arrivals", "preempted", "rejected"})
    for k in keys:
        lines.append(f"{k} = {statistics.fmean(o.extra[k] for o in outcomes):.6g} ratio")
    reasons: dict[str, int] = {}
    for o in failed:
        reasons[o.reason] = reasons.get(o.reason, 0) + 1
    for r in sorted(reasons):
        lines.append(f"failed[{r}] = {reasons[r]}")
    return lines


def per_layer(trace, shares, outcomes, untraced_wall, traced_wall):
    spans = trace.span_summary()
    c = trace.counters
    comp = trace.compute_summary()
    emu = trace.emulator_counts()
    sim_s = spans["Simulator.run"]["total_s"]
    lookups = spans["ServiceOracle.makespan"]["calls"]
    payload = c["resilience.payload_bytes"]
    reasons = [o.reason or "" for o in outcomes]
    m = {
        "sim.events": c["sim.events"],
        "sim.events_per_s": c["sim.events"] / sim_s if sim_s else 0.0,
        "sim.run_s": sim_s,
        "emulator.cpu_segments": emu["cpu_segments"],
        "emulator.disk_ops": emu["disk_ops"],
        "emulator.messages": emu["messages"],
        "emulator.net_bytes": emu["net_bytes"],
        "dsmsort.runs": c["dsmsort.runs"],
        "dsmsort.events_per_run": (
            c["dsmsort.pass1_events"] / c["dsmsort.runs"] if c["dsmsort.runs"] else 0.0
        ),
        "dsmsort.pass1_s": spans["DsmSortJob.run_pass1"]["total_s"],
        "dsmsort.pass2_s": spans["DsmSortJob.run_pass2"]["total_s"],
        "dsmsort.verify_s": spans["DsmSortJob.verify"]["total_s"],
        "compute.sort_s": comp["sort_s"],
        "compute.distribute_s": comp["distribute_s"],
        "compute.merge_s": comp["merge_s"],
        "compute.records_sorted": comp["records_sorted"],
        "replica.placement_calls": spans["ReplicaPlacement.replicas"]["calls"],
        "replica.placement_s": spans["ReplicaPlacement.replicas"]["total_s"],
        "resilience.payload_bytes": payload,
        "resilience.amplification": (
            (payload + c["resilience.retrans_bytes"]) / payload if payload else 1.0
        ),
        "faults.failed_stall": sum(r == "stall" for r in reasons),
        "faults.failed_exception": sum(r.startswith("exception") for r in reasons),
        "faults.failed_verify": sum(is_incorrect(r) for r in reasons),
        "sched.oracle_lookups": lookups,
        "sched.oracle_emulations": c["sched.oracle_emulations"],
        "sched.oracle_hit_ratio": (
            1.0 - c["sched.oracle_emulations"] / lookups if lookups else 0.0
        ),
        "sched.run_self_s": spans["Scheduler.run"]["self_s"],
        "sched.preempted": sum(o.extra.get("preempted", 0) for o in outcomes),
        "sched.rejected": sum(o.extra.get("rejected", 0) for o in outcomes),
        "bench.emulations_per_sweep": trace.pass1_runs_per_sweep(),
        "bench.harness_self_s": spans["run_figure9"]["self_s"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for key in (
        "replica.promoted_runs", "replica.repaired_copies",
        "replica.underreplicated_end", "resilience.retransmits",
        "resilience.breaker_trips", "recovery.replayed_frags",
        "recovery.reemitted_runs", "recovery.takeover_blocks", "faults.injected",
        "membership.epoch_rejections", "membership.readmitted",
    ):
        m[key] = c[key]
    for name in SPAN_NAMES:
        m[f"calls.{name}"] = spans[name]["calls"]
        m[f"self_s.{name}"] = spans[name]["self_s"]
    for group, share in shares.items():
        m[f"host_share.{group}"] = share
    return m


def run_benchmark(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; return (report lines, result object for the last line).

    Set-up (imports in a fresh interpreter, config solve, input generation
    and the untimed warm-up job) is repeated and ``setup_s`` is the median.
    """
    _import_program()
    ctx = None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        with speed.Meter() as m:
            if not trace:
                import_fresh()
            ctx = workload.setup(seed)
        setup_times.append(m.ref_s)
    repeats = 1 if trace else max(1, round(seconds / workload.nominal_set_s))
    seeds = workload.job_seeds(seed)
    lines = [f"workload {workload.name} seed {seed}: {len(seeds)} job(s), "
             f"best host time of {repeats} repeat(s)"]
    outcomes, same = run_job_set(workload, ctx, seeds, repeats)
    digest = sim_digest(outcomes)
    if not trace:
        metrics = end_to_end(outcomes, statistics.median(setup_times))
        units = dict(END_TO_END)
        lines += [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
        lines += extras(workload, outcomes)
    else:
        # Reference-speed seconds: the speed probe itself is never traced.
        untraced_wall = sum(o.ref_s for o in outcomes)
        with layers.LayerTrace() as tr:
            traced, _ = run_job_set(workload, ctx, seeds)
        (profiled, _), shares = layers.profile_shares(
            lambda: run_job_set(workload, ctx, seeds), SRC
        )
        tr.write(ROOT / ".perfbench_out" / f"spans-{workload.name}-{seed}.jsonl")
        same = same and sim_digest(traced) == digest == sim_digest(profiled)
        traced_wall = sum(o.ref_s for o in traced)
        metrics = per_layer(tr, shares, traced, untraced_wall, traced_wall)
        units = dict(PER_LAYER)
        lines += [f"{k} = {metrics[k]:.6g} {units[k]}" for k, _u in PER_LAYER]
    if not same:
        lines.append("a repeated, traced or profiled job changed its simulated results")
    correct = same and all_correct(workload, outcomes)
    lines.append(f"sim_digest = {digest}")
    result = {
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    lines, result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
