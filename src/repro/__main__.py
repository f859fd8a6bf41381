"""Command-line entry point: regenerate the paper's figures and ablations.

Usage::

    python -m repro fig9    [--n LOG2] [--c RATIO]
    python -m repro fig10   [--n LOG2]
    python -m repro sweep-c | sweep-routing | sweep-gamma
    python -m repro trace   [--n LOG2] [--seed S] [--out trace.json]
    python -m repro metrics [--n LOG2] [--seed S] [--interval DT]
                            [--out metrics.json] [--prom metrics.prom]
    python -m repro chaos   [--n LOG2] [--seeds K] [--seed0 S] [--apps LIST]
                            [--amp-bound X] [--no-negative-control]
                            [--workers W] [--out chaos_report.json]
                            [--list-apps]
    python -m repro recover | replicate | partition
                            [--n LOG2] [--seeds K] [--seed S] [--workers W]
                            [--out <target>_report.json]
    python -m repro serve   [--jobs N] [--seed S] [--policies LIST]
                            [--loads LIST] [--out serve_report.json]
    python -m repro critpath [--n LOG2] [--seed S] [--out blame.json]
                            [--folded stacks.folded] [--what-if disk=2.0]
                            [--validate] [--serve]
    python -m repro all     [--n LOG2]
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Distributed Computing with "
        "Load-Managed Active Storage' (HPDC 2002).",
    )
    parser.add_argument(
        "target",
        choices=[
            "fig9", "fig10", "sweep-c", "sweep-routing", "sweep-gamma",
            "trace", "metrics", "chaos", "recover", "replicate", "partition",
            "serve", "critpath", "all",
        ],
        help="which experiment to run",
    )
    parser.add_argument(
        "--n", type=int, default=17, metavar="LOG2",
        help="log2 of the record count (default 17)",
    )
    parser.add_argument(
        "--c", type=float, default=8.0,
        help="host:ASU CPU power ratio for fig9 (default 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload/routing seed for trace/metrics/serve/critpath and "
        "the recover/replicate/partition grids (default 0)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path: trace writes Chrome trace JSON (default "
        "trace.json), metrics writes the metrics export (default metrics.json)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.01, metavar="DT",
        help="metrics: scrape interval in virtual seconds (default 0.01)",
    )
    parser.add_argument(
        "--prom", default=None, metavar="PATH",
        help="metrics: also write a Prometheus text exposition file",
    )
    parser.add_argument(
        "--seeds", type=int, default=12, metavar="K",
        help="chaos: number of fault-schedule seeds to sweep; recover/"
        "replicate: number of kill instants (default 12)",
    )
    parser.add_argument(
        "--seed0", type=int, default=0,
        help="chaos: first fault-schedule seed (default 0)",
    )
    parser.add_argument(
        "--apps", default="dsmsort,filterscan", metavar="LIST",
        help="chaos: comma-separated app list (default dsmsort,filterscan)",
    )
    parser.add_argument(
        "--amp-bound", type=float, default=3.5, metavar="X",
        help="chaos: max allowed retry amplification (default 3.5)",
    )
    parser.add_argument(
        "--no-negative-control", action="store_true",
        help="chaos: skip the retries-disabled loss demonstration",
    )
    parser.add_argument(
        "--list-apps", action="store_true",
        help="chaos: list the registered soak scenarios and exit",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="soak targets: worker processes for the cases (default "
        "REPRO_BENCH_WORKERS or the CPU count; results are merged in case "
        "order, so the report is identical for any worker count)",
    )
    parser.add_argument(
        "--jobs", type=int, default=80, metavar="N",
        help="serve: submissions per offered-load level (default 80)",
    )
    parser.add_argument(
        "--policies", default="fifo,fair,priority", metavar="LIST",
        help="serve: comma-separated queue policies (default fifo,fair,priority)",
    )
    parser.add_argument(
        "--loads", default="0.5,1.2,3.0", metavar="LIST",
        help="serve: offered load as multiples of fleet capacity "
        "(default 0.5,1.2,3.0)",
    )
    parser.add_argument(
        "--folded", default=None, metavar="PATH",
        help="critpath: also write the folded-stack flamegraph input file",
    )
    parser.add_argument(
        "--what-if", default=None, metavar="SPEC", dest="what_if",
        help="critpath: comma-separated bucket=factor speedups to replay "
        "through the graph (e.g. disk=2.0)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="critpath: re-run with scaled params and report the what-if "
        "prediction error (disk/cpu buckets only)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="critpath: profile a multi-tenant scheduler cell (with SLO "
        "burn-rate alerts) instead of a single sort",
    )
    args = parser.parse_args(argv)
    n = 1 << args.n

    if args.target == "chaos" or args.target in _GRID_TARGETS:
        return _run_soak(args, n)
    if args.target == "serve":
        return _run_serve(args)
    if args.target == "critpath":
        return _run_critpath(args, n)
    if args.target == "trace":
        return _run_trace(n, args.seed, args.out or "trace.json")
    if args.target == "metrics":
        return _run_metrics(
            n, args.seed, args.interval, args.out or "metrics.json", args.prom
        )

    from .bench import (
        run_figure9,
        run_figure10,
        sweep_c,
        sweep_gamma_split,
        sweep_routing,
    )

    def fig9():
        print(run_figure9(n_records=n, c=args.c).render())

    def fig10():
        print(run_figure10(n_records=n).render())

    runners = {
        "fig9": fig9,
        "fig10": fig10,
        "sweep-c": lambda: print(sweep_c(n_records=min(n, 1 << 17)).render()),
        "sweep-routing": lambda: print(sweep_routing(n_records=min(n, 1 << 17)).render()),
        "sweep-gamma": lambda: print(sweep_gamma_split(n_records=min(n, 1 << 16)).render()),
    }
    if args.target == "all":
        for name, fn in runners.items():
            print(f"=== {name} ===")
            fn()
    else:
        runners[args.target]()
    return 0


#: grid targets: (scenario, cap on --n — every grid case is a full sort)
_GRID_TARGETS = {
    "recover": ("recovery", 1 << 14),
    "replicate": ("replicate", 1 << 14),
    "partition": ("partition", 1 << 13),
}


def _run_soak(args, n: int) -> int:
    """Soak sweeps: seeded ``chaos`` apps or one scenario's fixed grid.

    Every target writes the canonical ChaosReport JSON artifact and exits
    nonzero if any invariant or sweep check failed, so CI gates on it
    directly.
    """
    from .resilience.chaos import SCENARIOS, run_chaos, run_soak

    if args.list_apps:
        for name, s in sorted(SCENARIOS.items()):
            sources = ",".join(k for k in ("seeded", "grid") if getattr(s, k))
            print(f"{name:12s} {sources:12s} {s.summary}")
        return 0
    if args.target == "chaos":
        report = run_chaos(
            seeds=args.seeds,
            apps=tuple(a.strip() for a in args.apps.split(",") if a.strip()),
            n_records=n,
            amp_bound=args.amp_bound,
            negative_control=not args.no_negative_control,
            seed0=args.seed0,
            progress=print,
            workers=args.workers,
        )
    else:
        scenario, cap = _GRID_TARGETS[args.target]
        report = run_soak(
            (scenario,), {"grid": max(1, args.seeds)}, min(n, cap),
            workload_seed=args.seed, amp_bound=args.amp_bound,
            progress=print, workers=args.workers,
        )
    out = args.out or f"{args.target}_report.json"
    report.write(out)
    print()
    print(report.render())
    print(f"wrote {args.target} report to {out}")
    return 0 if report.ok else 1


def _run_serve(args) -> int:
    """Multi-tenant serving sweep: queue policies across rising offered load.

    Runs the default 3-tenant, mixed-app scenario under each policy at each
    offered-load factor and writes the canonical ServeReport JSON (same
    seed -> byte-identical file).  Exits nonzero if any admitted job
    vanished (every submission must end rejected, failed, or done).
    """
    from .sched import run_serve

    policies = tuple(p for p in args.policies.split(",") if p)
    try:
        loads = tuple(float(x) for x in args.loads.split(",") if x)
    except ValueError:
        print(f"error: --loads must be comma-separated numbers, got "
              f"{args.loads!r}", file=sys.stderr)
        return 2
    try:
        report = run_serve(
            policies=policies, load_factors=loads,
            n_jobs=args.jobs, seed=args.seed,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(report.render())
    ok = all(
        c["n_jobs"] == c["n_rejected"] + c["n_failed"] + c["n_completed"]
        for c in report.cells
    )
    out = args.out or "serve_report.json"
    report.write(out)
    accounted = "all jobs accounted for" if ok else "JOBS LOST"
    print(f"{'PASS' if ok else 'FAIL'}: {len(report.cells)} cells, "
          f"{accounted} -> {out}")
    return 0 if ok else 1


def _run_critpath(args, n: int) -> int:
    """Causal critical-path profile: blame buckets, flamegraph, timeline.

    Sort mode traces a two-pass DSM-Sort on a small Figure-9 cell; serve
    mode profiles one multi-tenant scheduler cell with SLO burn-rate
    monitoring attached.  The blame JSON and folded-stack outputs are
    byte-deterministic for a given (n, seed).
    """
    from .obs import folded_stacks, render_timeline, run_critpath, run_critpath_serve

    what_if = None
    if args.what_if:
        what_if = {}
        try:
            for part in args.what_if.split(","):
                bucket, factor = part.split("=")
                what_if[bucket.strip()] = float(factor)
        except ValueError:
            print(f"error: --what-if expects bucket=factor[,...], got "
                  f"{args.what_if!r}", file=sys.stderr)
            return 2
    if args.validate and not what_if:
        what_if = {"disk": 2.0}

    if args.serve:
        report, graph, _serve = run_critpath_serve(
            n_jobs=args.jobs, seed=args.seed
        )
    else:
        n = min(n, 1 << 14)  # a traced cell, not a benchmark sweep
        report, graph = run_critpath(
            n, seed=args.seed, what_if=what_if, validate=args.validate
        )
    print(report.render())
    print(render_timeline(graph))
    out = args.out or "critpath_blame.json"
    report.write(out)
    print(f"wrote blame vector to {out}")
    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write(folded_stacks(graph))
        print(f"wrote folded stacks to {args.folded}")
    return 0


def _run_trace(n: int, seed: int, out: str) -> int:
    """Run a traced DSM-Sort (both passes) and export the observability data.

    A small 4-ASU / 2-host platform keeps the traced run fast; the trace is
    deterministic for a given (n, seed), so two identical invocations write
    byte-identical JSON.
    """
    from .bench import fig10_params
    from .core.config import ConfigSolver
    from .dsmsort import DsmSortJob
    from .trace import ProfileReport, Tracer, write_chrome_trace

    params = fig10_params(n_asus=4, n_hosts=2)
    config = ConfigSolver(params).config_for_alpha(n, 16)
    tracer = Tracer()
    job = DsmSortJob(params, config, policy="sr", seed=seed, tracer=tracer)
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    write_chrome_trace(tracer, out)
    makespan = r1.makespan + r2.makespan
    print(f"sorted {n} records in {makespan:.3f}s "
          f"(pass1 {r1.makespan:.3f}s, pass2 {r2.makespan:.3f}s)")
    print(f"wrote {tracer.n_events()} trace events to {out}")
    print()
    print(ProfileReport.from_tracer(tracer, makespan=makespan).render())
    return 0


def _run_metrics(n: int, seed: int, interval: float, out: str, prom) -> int:
    """Run a metered DSM-Sort (both passes) and summarise the registry.

    Same platform/workload as ``trace`` — a 4-ASU / 2-host skewed sort —
    but with the metrics registry attached: every queue depth, device
    utilization, and stage latency lands in instruments, scraped each
    ``interval`` virtual seconds.  Deterministic: same (n, seed, interval)
    writes a byte-identical metrics JSON.
    """
    import math

    from .bench import fig10_params
    from .bench.report import render_table
    from .core.config import ConfigSolver
    from .dsmsort import DsmSortJob
    from .metrics import MetricsRegistry, metrics_json, prometheus_text

    params = fig10_params(n_asus=4, n_hosts=2)
    config = ConfigSolver(params).config_for_alpha(n, 16)
    registry = MetricsRegistry()
    job = DsmSortJob(
        params, config, policy="sr", seed=seed,
        metrics=registry, scrape_interval=interval,
        workload="half_uniform_half_exponential",
    )
    r1 = job.run_pass1()
    r2 = job.run_pass2()
    job.verify()
    makespan = r1.makespan + r2.makespan
    collector = registry.collector
    with open(out, "w") as fh:
        fh.write(metrics_json(registry, collector))
        fh.write("\n")
    print(f"sorted {n} records in {makespan:.3f}s "
          f"(pass1 {r1.makespan:.3f}s, pass2 {r2.makespan:.3f}s)")
    print(f"{len(registry)} instruments, {collector.n_samples()} samples "
          f"at dt={collector.interval}s -> {out}")
    if prom:
        with open(prom, "w") as fh:
            fh.write(prometheus_text(registry, t=r2.makespan))
        print(f"wrote Prometheus text exposition to {prom}")

    # -- top queues by peak depth -----------------------------------------
    queues = [
        (inst.hwm, inst.labels.get("queue", inst.key))
        for inst in registry.instruments()
        if inst.kind == "gauge" and inst.name == "repro_queue_depth"
    ]
    queues.sort(key=lambda x: (-x[0], x[1]))
    print()
    print(render_table(
        ["queue", "peak depth"],
        [[name, f"{hwm:.0f}"] for hwm, name in queues[:8]],
        title="top queues by peak depth",
    ))

    # -- per-device mean utilization (over the scraped series) ------------
    def series_mean(key: str) -> float:
        pts = collector.series.get(key, [])
        vals = [v for _t, v in pts if not math.isnan(v)]
        return sum(vals) / len(vals) if vals else 0.0

    rows = []
    for inst in registry.instruments():
        if inst.name == "repro_cpu_utilization":
            rows.append([inst.labels["node"], "cpu", f"{series_mean(inst.key):.3f}"])
        elif inst.name == "repro_disk_utilization":
            rows.append([inst.labels["node"], "disk", f"{series_mean(inst.key):.3f}"])
    rows.sort()
    print()
    print(render_table(
        ["device", "kind", "mean util"], rows,
        title="per-device utilization (mean of scraped samples)",
    ))

    # -- per-stage record latency quantiles --------------------------------
    rows = []
    for inst in registry.instruments():
        if inst.kind == "histogram" and inst.name == "repro_stage_record_latency_seconds":
            rows.append([
                inst.labels.get("stage", "?"),
                inst.count,
                f"{inst.quantile(0.50) * 1e6:.2f}",
                f"{inst.quantile(0.95) * 1e6:.2f}",
                f"{inst.quantile(0.99) * 1e6:.2f}",
            ])
    rows.sort()
    print()
    print(render_table(
        ["stage", "records", "p50 (us)", "p95 (us)", "p99 (us)"], rows,
        title="per-stage record latency",
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
