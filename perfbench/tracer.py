"""Traced campaign run: time the calls into each layer of ``repro``.

Usage (from the root of a checkout, with ``PYTHONPATH=src``)::

    python perfbench/tracer.py SPANS_DIR RUN_ID -- campaign --size ... --output ...

The script imports ``repro.cli`` under a span, puts timing wrappers on the
public functions listed in :data:`LAYERS` at every name a ``repro`` module
binds them to (several callers import them by name), and then calls
``repro.cli.main`` with the remaining arguments -- the same ones an untraced
``python -m repro`` run gets.  Nothing under ``src/`` is modified.  The
``PERFBENCH_LAUNCH`` environment variable holds the launching process's
``perf_counter`` stamp (``perfbench/run.py`` sets it).

Each span records ``(id, parent id, name, start, end)`` with
``time.perf_counter`` stamps, which on Linux read the system-wide monotonic
clock, so stamps from the benchmark process, the traced process and its
workers share one time line.  Spans stay in memory.  The traced process writes
them to ``SPANS_DIR/spans-<pid>.jsonl`` after ``main`` returns; fork-started
pool workers exit through ``os._exit`` and skip ``atexit``, so each worker
appends its spans as each shard finishes instead.

:func:`summarize` (run by the benchmark process, which never imports
``repro``) turns the span files into the per-layer metrics: self time (span
duration minus the time its child spans cover) and call counts per layer,
plus the counters taken at the same boundaries.
"""

from __future__ import annotations

import time

#: Stamped before anything else runs: ``python.start_s`` is the time from
#: the benchmark's launch stamp to here (interpreter start).
_T0 = time.perf_counter()

import functools  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List  # noqa: E402

#: Span name -> the public callables it times, as ``module:qualname``.  A
#: plain function is patched at every ``repro`` module attribute bound to it;
#: a method is patched on its class.
LAYERS = {
    "webpki.tranco": ["repro.webpki.tranco:generate_tranco_list"],
    # deployments_for_range(skeleton=True) is renamed to webpki.skeleton_pass
    # per call; the store runs the same RNG pass on a miss.
    "webpki.skeleton_pass": ["repro.webpki.population:_generate_shard_skeletons"],
    "webpki.generate": [
        "repro.webpki.population:deployments_for_range",
        "repro.webpki.population:generate_population",
    ],
    "webpki.materialize": ["repro.webpki.skeleton:DeploymentSkeleton.materialize"],
    "x509.issue": ["repro.x509.issuance:issue_leaf_fast"],
    "x509.rebuild": ["repro.x509.issuance:leaf_from_record"],
    "skeleton_store.save": ["repro.scanners.skeleton_store:SkeletonStore.save"],
    "skeleton_store.load": ["repro.scanners.skeleton_store:SkeletonStore.load"],
    # The store's range readers assemble deployments inline from the chain
    # cache, outside DeploymentSkeleton.materialize.
    "skeleton_store.range": [
        "repro.scanners.skeleton_store:deployments_for_range",
        "repro.scanners.skeleton_store:skeletons_for_range",
    ],
    "scenarios.transform": ["repro.scenarios.spec:ScenarioSpec.transform_skeletons"],
    "columnar.kernel": ["repro.scanners.columnar:summarize_shard_columnar"],
    "scanners.https": ["repro.scanners.https_scanner:HttpsScanner.scan"],
    "scanners.quicreach": ["repro.scanners.quicreach:QuicReach.scan_many"],
    "scanners.sweep": ["repro.scanners.quicreach:InitialSizeSweep.run"],
    "scanners.qscanner": [
        "repro.scanners.qscanner:QScanner.fetch_many",
        "repro.scanners.qscanner:QScanner.compare_with_https",
    ],
    "scanners.compression": ["repro.scanners.compression_scanner:CompressionScanner.scan_many"],
    "quic.handshake": ["repro.quic.handshake:simulate_handshake"],
    "streaming.reduce_add": ["repro.scanners.streaming:CampaignReducer.add"],
    "streaming.reduced_scan": ["repro.scanners.streaming:CampaignReducer.reduced_scan"],
    "sharding.dispatch": ["repro.scanners.sharding:dispatch_with_retry"],
    "sharding.worker": [
        "repro.scanners.streaming:_scan_and_summarize",
        "repro.scanners.streaming:_scan_and_summarize_grid",
    ],
    "checkpoint.save": ["repro.scanners.checkpoint:CheckpointStore.save"],
    "orchestrator.stage5": [
        "repro.scanners.orchestrator:MeasurementCampaign.finalize_streaming",
        "repro.scanners.orchestrator:MeasurementCampaign._run_incomplete_handshake_stage",
    ],
    "analysis.report": ["repro.analysis.report:build_report"],
}

#: Self-time metric of each span name.  Every span name has one, so the
#: self times of the traced process's spans partition its traced wall time
#: and only glue outside any span is left unattributed.
SELF_METRICS = {
    "python.start": "python.start_s",
    "cli.import": "cli.import_s",
    "trace.install": "trace.install_s",
    "trace.probe": "trace.probe_s",
    "webpki.tranco": "webpki.tranco_s",
    "webpki.skeleton_pass": "webpki.skeleton_pass_s",
    "webpki.generate": "webpki.generate_s",
    "webpki.materialize": "webpki.materialize_s",
    "x509.issue": "x509.issue_s",
    "x509.rebuild": "x509.rebuild_s",
    "skeleton_store.save": "skeleton_store.save_s",
    "skeleton_store.load": "skeleton_store.load_s",
    "skeleton_store.range": "skeleton_store.range_s",
    "scenarios.transform": "scenarios.transform_s",
    "columnar.kernel": "columnar.kernel_s",
    "scanners.https": "scanners.https_s",
    "scanners.quicreach": "scanners.quicreach_s",
    "scanners.sweep": "scanners.sweep_s",
    "scanners.qscanner": "scanners.qscanner_s",
    "scanners.compression": "scanners.compression_s",
    "quic.handshake": "quic.handshake_s",
    "streaming.reduce_add": "streaming.reduce_add_s",
    "streaming.reduced_scan": "streaming.reduced_scan_s",
    "sharding.dispatch": "sharding.dispatch_wait_s",
    "sharding.on_result": "sharding.on_result_s",
    "sharding.worker": "sharding.worker_self_s",
    "checkpoint.save": "checkpoint.save_s",
    "orchestrator.stage5": "orchestrator.stage5_s",
    "analysis.report": "analysis.report_s",
    "python.exit": "python.exit_s",
}

#: Call-count metric of the span names whose calls are a unit of work.
COUNT_METRICS = {
    "webpki.tranco": "webpki.tranco_calls",
    "webpki.materialize": "webpki.deployments_materialized",
    "x509.issue": "x509.leaves_issued",
    "x509.rebuild": "x509.leaves_rebuilt",
    "columnar.kernel": "columnar.shards",
    "quic.handshake": "quic.handshakes",
    "checkpoint.save": "checkpoint.files",
}

#: Metrics taken from counters and ratios rather than span sums.
DERIVED_METRICS = (
    "skeleton_store.hits",
    "skeleton_store.misses",
    "skeleton_store.hit_ratio",
    "skeleton_store.bytes",
    "quic.flight_cache_hit_ratio",
    "streaming.summary_bytes",
    "sharding.shards",
    "sharding.retries",
    "sharding.worker_busy_s",
    "sharding.parallel_efficiency",
    "checkpoint.bytes",
    "analysis.report_bytes",
    "trace.wall_s",
    "trace.unattributed_s",
    "trace.unattributed_share",
)


class Tracer:
    """In-memory spans and counters of one process of a traced run."""

    def __init__(self, spans_dir: str, run_id: str) -> None:
        self.spans_dir = spans_dir
        self.run_id = run_id
        self.root_pid = self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.next_id = 0
        self.counters: Dict[str, float] = defaultdict(float)

    def begin(self) -> int:
        span_id = self.next_id
        self.next_id += 1
        self.stack.append(span_id)
        return span_id

    def end(self, span_id: int, name: str, start: float, stop: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([span_id, parent, name, start, stop])

    def record(self, name: str, start: float, stop: float) -> None:
        """A top-level span measured outside any wrapper."""
        self.spans.append([self.next_id, -1, name, start, stop])
        self.next_id += 1

    def enter_child(self) -> bool:
        """Reset fork-inherited state in a pool worker; True there."""
        if os.getpid() == self.root_pid:
            return False
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans, self.stack = [], []
            self.counters = defaultdict(float)
        return True

    def flush(self, **extra) -> None:
        """Append this process's spans and counters to its span file."""
        record = {
            "pid": self.pid,
            "run": self.run_id,
            "root": self.pid == self.root_pid,
            "spans": self.spans,
            "counters": dict(self.counters),
            **extra,
        }
        path = os.path.join(self.spans_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = defaultdict(float)


TRACER: Tracer = None  # type: ignore[assignment]  # set by _trace_main


def _timed(name: str, fn, probe=None, namer=None):
    """Wrap ``fn`` in a span; ``probe(result, args, kwargs)`` then counts.

    The probe runs in a ``trace.probe`` span of its own, so its cost is not
    booked to the caller's self time.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        span_id = tracer.begin()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            stop = time.perf_counter()
            tracer.end(span_id, namer(args, kwargs) if namer else name, start, stop)
        if probe is not None:
            span_id = tracer.begin()
            start = time.perf_counter()
            probe(result, args, kwargs)
            tracer.end(span_id, "trace.probe", start, time.perf_counter())
        return result

    return wrapper


def _store_counters() -> Dict[str, int]:
    from repro.scanners.skeleton_store import cache_counters

    return cache_counters()


def _worker(fn):
    """The pool-worker entry: a span, plus a flush per shard in workers."""
    inner = _timed("sharding.worker", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        in_child = tracer.enter_child()
        before = _store_counters()
        try:
            return inner(*args, **kwargs)
        finally:
            if in_child:
                # The root process takes one whole-run delta of these
                # counters; a worker's would be lost at os._exit.
                after = _store_counters()
                for key in ("hits", "misses"):
                    tracer.counters[f"store_{key}"] += after[key] - before[key]
                tracer.flush()

    return wrapper


def _dispatch(fn):
    """dispatch_with_retry with on_result and retries made visible."""
    inner = _timed("sharding.dispatch", fn)

    @functools.wraps(fn)
    def wrapper(indices, make_payload, worker_fn, workers, policy, on_result, *rest, **kw):
        counters = TRACER.counters
        counters["shards"] += len(indices)
        counters["dispatch_workers"] = max(counters["dispatch_workers"], workers)

        def counted_payload(index, attempt):
            if attempt:
                counters["retries"] += 1
            return make_payload(index, attempt)

        timed_on_result = _timed("sharding.on_result", on_result)
        return inner(
            indices, counted_payload, worker_fn, workers, policy, timed_on_result, *rest, **kw
        )

    return wrapper


def _count_summary(result, args, kwargs) -> None:
    TRACER.counters["summary_bytes"] += len(pickle.dumps(args[1], pickle.HIGHEST_PROTOCOL))


def _count_checkpoint(path, args, kwargs) -> None:
    TRACER.counters["checkpoint_bytes"] += os.path.getsize(path)


def _count_report(report, args, kwargs) -> None:
    counters = TRACER.counters
    counters["report_bytes"] += len((report.text + "\n").encode("utf-8"))
    cache = getattr(args[0], "flight_cache", None)
    if cache is not None:
        counters["flight_hits"] += cache.hits
        counters["flight_misses"] += cache.misses


def _range_name(args, kwargs) -> str:
    return "webpki.skeleton_pass" if kwargs.get("skeleton") else "webpki.generate"


_SPECIAL = {
    "repro.scanners.streaming:CampaignReducer.add": dict(probe=_count_summary),
    "repro.scanners.checkpoint:CheckpointStore.save": dict(probe=_count_checkpoint),
    "repro.analysis.report:build_report": dict(probe=_count_report),
    "repro.webpki.population:deployments_for_range": dict(namer=_range_name),
}


def install() -> None:
    """Put the wrappers in place."""
    import importlib

    for name, targets in LAYERS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            if name == "sharding.worker":
                wrapper = _worker(original)
            elif name == "sharding.dispatch":
                wrapper = _dispatch(original)
            else:
                wrapper = _timed(name, original, **_SPECIAL.get(target, {}))
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, alias, wrapper)


def _argument(argv: List[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _trace_main(argv: List[str]) -> int:
    global TRACER
    spans_dir, run_id, separator, *campaign_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_DIR RUN_ID -- <repro arguments>")
    TRACER = Tracer(spans_dir, run_id)
    launch = float(os.environ["PERFBENCH_LAUNCH"])
    TRACER.record("python.start", launch, _T0)

    start = time.perf_counter()
    import repro.cli

    TRACER.record("cli.import", start, time.perf_counter())
    start = time.perf_counter()
    install()
    store_before = _store_counters()
    TRACER.record("trace.install", start, time.perf_counter())

    code = repro.cli.main(campaign_argv)

    main_end = time.perf_counter()
    store_after = _store_counters()
    counters = TRACER.counters
    for key in ("hits", "misses"):
        counters[f"store_{key}"] += store_after[key] - store_before[key]
    store_dir = _argument(campaign_argv, "--skeleton-cache")
    if store_dir is not None:
        from repro.scanners.skeleton_store import SkeletonStore

        counters["store_bytes"] = SkeletonStore(store_dir).stats()["bytes"]
    # python.exit_s runs from here to process exit: writing this file and
    # interpreter teardown (pool shutdown, atexit hooks).
    TRACER.flush(main_end=main_end, exit_code=code)
    return code


def summarize(spans_dir: str, wall_s: float, end_stamp: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run from its span files.

    ``wall_s`` is the traced process's launch-to-exit wall clock and
    ``end_stamp`` the benchmark's ``perf_counter`` reading at its exit.
    Every metric is present; a layer that was never called reads 0.
    """
    records = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    roots = [record for record in records if record["root"]]
    if len(roots) != 1:
        raise ValueError(f"expected one root span record in {spans_dir}, found {len(roots)}")
    root = roots[0]
    root["spans"].append([-2, -1, "python.exit", root["main_end"], end_stamp])

    self_s: Dict[str, float] = defaultdict(float)
    inclusive_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(float)
    root_top_level = 0.0
    spans_by_pid: Dict[int, list] = defaultdict(list)
    for record in records:
        spans_by_pid[record["pid"]].extend(record["spans"])
        for key, value in record["counters"].items():
            if key == "dispatch_workers":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    for pid, spans in spans_by_pid.items():
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, stop in spans:
            if parent >= 0:
                covered[parent] += stop - start
        for span_id, parent, name, start, stop in spans:
            duration = stop - start
            self_s[name] += duration - covered[span_id]
            inclusive_s[name] += duration
            calls[name] += 1
            if pid == root["pid"] and parent < 0:
                root_top_level += duration

    unknown = set(calls) - set(SELF_METRICS)
    if unknown:
        raise ValueError(f"spans without a self-time metric: {sorted(unknown)}")
    metrics: Dict[str, float] = {}
    for name, metric in SELF_METRICS.items():
        metrics[metric] = self_s[name]
    for name, metric in COUNT_METRICS.items():
        metrics[metric] = float(calls[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    hits, misses = counters["store_hits"], counters["store_misses"]
    workers = counters["dispatch_workers"]
    unattributed = wall_s - root_top_level
    metrics.update({
        "skeleton_store.hits": hits,
        "skeleton_store.misses": misses,
        "skeleton_store.hit_ratio": ratio(hits, hits + misses),
        "skeleton_store.bytes": counters["store_bytes"],
        "quic.flight_cache_hit_ratio": ratio(
            counters["flight_hits"], counters["flight_hits"] + counters["flight_misses"]
        ),
        "streaming.summary_bytes": counters["summary_bytes"],
        "sharding.shards": counters["shards"],
        "sharding.retries": counters["retries"],
        "sharding.worker_busy_s": inclusive_s["sharding.worker"],
        "sharding.parallel_efficiency": ratio(
            inclusive_s["sharding.worker"], workers * inclusive_s["sharding.dispatch"]
        ),
        "checkpoint.bytes": counters["checkpoint_bytes"],
        "analysis.report_bytes": counters["report_bytes"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": ratio(unattributed, wall_s),
    })
    return metrics


#: Every per-layer metric :func:`summarize` reports, in table order.
METRIC_NAMES = tuple(SELF_METRICS.values()) + tuple(COUNT_METRICS.values()) + DERIVED_METRICS


if __name__ == "__main__":
    sys.exit(_trace_main(sys.argv[1:]))
