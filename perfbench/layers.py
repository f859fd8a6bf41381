"""Per-layer measurement for the benchmark: spans, counters and a package profile.

Everything here lives outside the program.  :class:`LayerTrace` patches the
public plain-call entry points of each layer for the length of one ``with``
block, records one span per call (name, start, end, parent span) in memory,
and reads the program's public counters at the same boundaries.  Functions
are patched at every name a caller looks up them by: ``runtime.py`` binds
``sort_records`` and ``merge_sorted_batches`` into its own namespace, so the
patch rewrites each loaded ``repro`` module that holds the original object.

The generator-based layers (processes, ``Cpu.execute``, disk and network
operations) interleave inside ``Simulator.run``; a span around a generator
call would time only its creation.  Their cost is read from counters and from
:func:`profile_shares`, a sampling profile grouped by package.
"""

from __future__ import annotations

import itertools
import json
import signal
import sys
import time
import weakref
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

#: span name -> (module, attribute path) of every patched entry point
SPAN_TARGETS = {
    "run_figure9": ("repro.bench.fig9", "run_figure9"),
    "DsmSortJob.run_pass1": ("repro.dsmsort.runtime", "DsmSortJob.run_pass1"),
    "DsmSortJob.run_pass2": ("repro.dsmsort.runtime", "DsmSortJob.run_pass2"),
    "DsmSortJob.verify": ("repro.dsmsort.runtime", "DsmSortJob.verify"),
    "Simulator.run": ("repro.sim.core", "Simulator.run"),
    "DistributeFunctor.apply": ("repro.functors.distribute", "DistributeFunctor.apply"),
    "BlockSortFunctor.apply": ("repro.functors.blocksort", "BlockSortFunctor.apply"),
    "merge_sorted_batches": ("repro.functors.merge", "merge_sorted_batches"),
    "sort_records": ("repro.util.records", "sort_records"),
    "ReplicaPlacement.replicas": ("repro.replica.placement", "ReplicaPlacement.replicas"),
    "Scheduler.run": ("repro.sched.scheduler", "Scheduler.run"),
    "ServiceOracle.makespan": ("repro.sched.oracle", "ServiceOracle.makespan"),
}

#: compute category of each span that does real record work; a compute span
#: nested in another (the ``sort_records`` inside a merge) belongs to the
#: outermost one
COMPUTE_SPANS = {
    "sort_records": "sort",
    "BlockSortFunctor.apply": "sort",
    "DistributeFunctor.apply": "distribute",
    "merge_sorted_batches": "merge",
}

#: host_share groups: repro package -> group name; unlisted packages and
#: non-repro code go to "other", NumPy to "compute" (``util`` holds the
#: record kernels, input generation and the verify checks)
SHARE_GROUPS = {
    "sim": "sim",
    "emulator": "emulator",
    "dsmsort": "dsmsort",
    "functors": "compute",
    "core": "core",
    "replica": "replica",
    "resilience": "resilience",
    "faults": "faults",
    "membership": "faults",
    "sched": "sched",
    "metrics": "metrics",
    "trace": "metrics",
    "bench": "bench",
    "util": "compute",
}
SHARE_NAMES = (
    "sim", "emulator", "dsmsort", "compute", "core", "replica", "resilience",
    "faults", "sched", "metrics", "bench", "other",
)
#: process CPU seconds between two samples of :func:`profile_shares`
PROFILE_INTERVAL_S = 0.002


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class LayerTrace:
    """Spans and layer counters for the calls made inside one ``with`` block."""

    def __init__(self):
        #: [name, start, end, parent index, records] per call, in start order
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = ExitStack()
        self._platforms: dict[int, tuple] = {}
        #: latest emulator counter snapshot per platform serial
        self._platform_counts: dict[int, tuple] = {}

    # -- span recording ------------------------------------------------------
    def _wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sized = name in ("sort_records", "BlockSortFunctor.apply")
        enter, leave = hook if hook else (None, None)

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, len(args[-1]) if sized else 0]
            spans.append(rec)
            stack.append(idx)
            state = enter(args) if enter else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if leave:
                leave(state, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.enter_context(mock.patch.object(owner, attr, new))

    def __enter__(self) -> "LayerTrace":
        hooks = {
            "Simulator.run": (lambda a: a[0].n_events_processed, self._after_sim_run),
            "DsmSortJob.run_pass1": (None, self._after_pass1),
            "ServiceOracle.makespan": (lambda a: a[0].n_emulations, self._after_oracle),
        }
        for name, (module, path) in SPAN_TARGETS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # A module-level function: rebind it wherever a repro module
            # imported it by name, so every caller's lookup hits the span.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "repro" and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        from repro.emulator.platform import ActivePlatform

        self._patch(ActivePlatform, "__init__", self._registering(ActivePlatform.__init__))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    # -- counters read at span boundaries -----------------------------------
    def _registering(self, init):
        registry, serials = self._platforms, itertools.count()

        def register(plat, *args, **kwargs):
            init(plat, *args, **kwargs)
            registry[id(plat.sim)] = (next(serials), weakref.ref(plat))

        return register

    def _after_sim_run(self, before, args, _out) -> None:
        sim = args[0]
        self.counters["sim.events"] += sim.n_events_processed - before
        entry = self._platforms.get(id(sim))
        plat = entry[1]() if entry else None
        if plat is None or plat.sim is not sim:
            return
        nodes = [*plat.hosts, *plat.asus]
        self._platform_counts[entry[0]] = (
            sum(n.cpu.n_segments for n in nodes),
            sum(a.disk.stats.n_ops for a in plat.asus),
            plat.network.n_messages,
            plat.network.bytes_total,
        )

    def _after_pass1(self, _state, args, res) -> None:
        job, c = args[0], self.counters
        c["dsmsort.runs"] += res.n_runs
        c["dsmsort.pass1_events"] += job.platform.sim.n_events_processed
        cs = res.channel_stats or {}
        c["resilience.retransmits"] += cs.get("n_retransmits", 0)
        c["resilience.payload_bytes"] += cs.get("payload_bytes", 0)
        c["resilience.retrans_bytes"] += cs.get("retrans_bytes", 0)
        c["resilience.breaker_trips"] += res.n_breaker_trips
        c["replica.promoted_runs"] += res.n_promoted_runs
        c["replica.repaired_copies"] += res.n_repaired_copies
        c["replica.underreplicated_end"] += res.n_underreplicated
        c["recovery.replayed_frags"] += res.n_replayed_frags
        c["recovery.reemitted_runs"] += res.n_reemitted_runs
        c["recovery.takeover_blocks"] += res.n_takeover_blocks
        c["membership.epoch_rejections"] += res.n_epoch_rejections
        c["membership.readmitted"] += res.n_readmitted
        if res.fault_report is not None:
            c["faults.injected"] += len(res.fault_report.injected)

    def _after_oracle(self, before, args, _out) -> None:
        self.counters["sched.oracle_emulations"] += args[0].n_emulations - before

    # -- summaries -----------------------------------------------------------
    def span_summary(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _n in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_TARGETS}
        for i, (name, t0, t1, _parent, _n) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[i]
        return out

    def compute_summary(self) -> dict[str, float]:
        """Inclusive seconds of outermost compute spans, by category."""
        out = {"sort_s": 0.0, "distribute_s": 0.0, "merge_s": 0.0, "records_sorted": 0}
        for name, t0, t1, parent, n in self.spans:
            cat = COMPUTE_SPANS.get(name)
            if cat is None or (parent >= 0 and self.spans[parent][0] in COMPUTE_SPANS):
                continue
            out[f"{cat}_s"] += t1 - t0
            if cat == "sort":
                out["records_sorted"] += n
        return out

    def emulator_counts(self) -> dict[str, int]:
        keys = ("cpu_segments", "disk_ops", "messages", "net_bytes")
        totals = [sum(v[i] for v in self._platform_counts.values()) for i in range(4)]
        return dict(zip(keys, totals))

    def pass1_runs_per_sweep(self) -> float:
        """Pass-1 emulations per ``run_figure9`` call (0 when there is none)."""
        sweeps = [i for i, s in enumerate(self.spans) if s[0] == "run_figure9"]
        if not sweeps:
            return 0.0
        inside = 0
        for name, _t0, _t1, parent, _n in self.spans:
            if name != "DsmSortJob.run_pass1":
                continue
            while parent >= 0 and self.spans[parent][0] != "run_figure9":
                parent = self.spans[parent][3]
            inside += parent >= 0
        return inside / len(sweeps)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, _n in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def _group_of(filename: str, repro_root: str) -> str:
    """host_share group of the code in one source file."""
    if filename.startswith(repro_root):
        package = filename[len(repro_root):].split("/")
        return SHARE_GROUPS.get(package[0], "other") if len(package) > 1 else "other"
    return "compute" if "numpy" in filename else "other"


def profile_shares(fn, src_root: Path):
    """Run ``fn()`` under a sampling profiler; return its result and % per group.

    Every ``PROFILE_INTERVAL_S`` of process CPU time, ``SIGPROF`` samples the
    running Python frame and charges it the CPU time since the last sample;
    a long NumPy call is charged to the Python function that made it.  Time
    in the benchmark's own files (input generation, checks, the speed probe)
    is left out, so the shares are of the program's host time.
    Unlike ``cProfile``, sampling adds no cost per call, so Python-heavy
    layers are not inflated against native ones.
    """
    root = str((src_root / "repro").resolve()) + "/"
    own = str(Path(__file__).resolve().parent) + "/"
    cpu: dict[str, float] = dict.fromkeys(SHARE_NAMES, 0.0)
    groups: dict[str, str] = {}
    last = [time.process_time()]

    def sample(_signum, frame) -> None:
        now = time.process_time()
        name = frame.f_code.co_filename if frame is not None else ""
        if not name.startswith(own):
            group = groups.get(name) or groups.setdefault(name, _group_of(name, root))
            cpu[group] += now - last[0]
        last[0] = now

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, PROFILE_INTERVAL_S, PROFILE_INTERVAL_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    total = sum(cpu.values()) or 1.0
    return result, {k: 100.0 * v / total for k, v in cpu.items()}
