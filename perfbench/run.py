"""Campaign benchmark: wall clock of ``python -m repro campaign`` per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S        # every workload, no JSON line
    python3 perfbench/run.py --smoke            # every workload, tiny sizes

Each timed run launches a fresh ``python -m repro campaign`` process with the
report written to a file, and compares the report byte for byte with a
reference built in set-up through a different code path.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, with each time scaled
by a host-speed probe timed next to it (see ``PROBE_REFERENCE_S``); ``--trace 1``
alternates untraced runs with runs of ``perfbench/tracer.py`` (the same
arguments, timing wrappers on) and reports the per-layer metrics.  With one
workload, the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every run was
correct.  Work files live under ``.perfbench_work/`` in the checkout; the
per-run directory is removed at exit and a results record with the samples
and the environment is kept under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: At least this many timed runs, however short ``--seconds`` is.
MIN_RUNS = 5
#: Fresh-interpreter imports and store pre-warms timed in set-up; setup_s is
#: their median.
IMPORT_REPEATS = 7
PREWARM_REPEATS = 3
#: Wall clock of ``probe.py`` on the host the benchmark was tuned on (a
#: 2-vCPU VM, Python 3.11.7).  The shared host's speed drifts by up to 1.6x
#: over minutes, so every timed process is preceded by a probe process, and
#: the time metrics are scaled by PROBE_REFERENCE_S / that probe's smoothed
#: wall clock (see :func:`host_scales`): they read as seconds at the
#: reference host speed.
PROBE_REFERENCE_S = 0.30
#: A traced run fails when more of its wall clock than this share lies
#: outside every span of the traced process.
UNATTRIBUTED_BOUND = 0.10

#: Pool size of the multi-worker workload: two, or fewer on a smaller box.
WORKERS = str(min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    """One set of ``repro campaign`` arguments and how to check its reports.

    ``fresh_dirs`` name flags that get a new empty directory for every run;
    ``prewarm`` gives ``--skeleton-cache`` a store warmed once in set-up;
    ``grid`` runs write one report per scenario-grid member into a directory.
    ``reference_flags`` select the different path the reference is built on.
    """

    name: str
    size: int
    smoke_size: int
    flags: Tuple[str, ...]
    reference_flags: Tuple[str, ...]
    fresh_dirs: Tuple[str, ...] = ()
    prewarm: bool = False
    grid: bool = False


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "cold-stream", 10_000, 600,
            ("--stream", "--scan-backend", "columnar", "--workers", "1"),
            ("--scan-backend", "columnar"),
            fresh_dirs=("--skeleton-cache", "--checkpoint-dir"),
        ),
        Workload(
            "warm-stream", 10_000, 4_500,
            ("--stream", "--scan-backend", "columnar", "--workers", WORKERS),
            ("--scan-backend", "columnar"),
            prewarm=True,
        ),
        Workload(
            "grid-whatifs", 3_000, 300,
            ("--scenario-grid", "what-ifs", "--scan-backend", "columnar", "--workers", "1"),
            ("--scan-backend", "columnar"),
            grid=True,
        ),
        Workload(
            "object-sweep", 2_000, 300,
            ("--sweep",),
            ("--stream", "--scan-backend", "columnar", "--sweep"),
        ),
    )
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def pinned_env() -> Dict[str, str]:
    """The environment of every launched process.

    ``REPRO_*`` knobs are dropped (``REPRO_SCAN_BACKEND`` silently switches
    the streamed backend), hashing is fixed, and no run writes bytecode:
    set-up compiles it once, so import times do not depend on whether
    ``__pycache__`` existed.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def launch(argv: List[str], log_path: str, env: Dict[str, str]) -> Tuple[float, float, int, float]:
    """Run one process to exit; returns (wall s, end stamp, exit code, peak RSS MB).

    ``os.wait4`` reports the largest resident set of the process and of the
    pool workers it reaped.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable] + argv,
            cwd=ROOT,
            env=dict(env, PERFBENCH_LAUNCH=repr(start)),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            process.kill()
            process.wait()
            raise
        end = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)
    return end - start, end, process.returncode, usage.ru_maxrss / 1024.0


def read_reports(directory: str) -> Dict[str, bytes]:
    reports = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            reports[name] = handle.read()
    return reports


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_scales(probes: List[float]) -> List[float]:
    """PROBE_REFERENCE_S over each probe time, smoothed over its neighbours.

    One probe jitters by about 15% from run to run, while the host's drift is
    slower than three runs: the median of a probe and its two neighbours
    keeps the drift and drops most of the jitter.
    """
    return [
        PROBE_REFERENCE_S / median(probes[max(0, index - 1) : index + 2])
        for index in range(len(probes))
    ]


class Bench:
    """Set-up, timed runs and checks of one workload at one seed."""

    #: Called with the report directory after each run, before the check.
    #: The benchmark's own tests use it to corrupt a report.
    after_run: Optional[Callable[[str], None]] = None

    def __init__(self, workload: Workload, seed: int, smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.size = workload.smoke_size if smoke else workload.size
        self.env = pinned_env()
        self.dir = os.path.join(WORK, f"{workload.name}-s{seed}-p{os.getpid()}")
        self.log = os.path.join(self.dir, "runs.log")
        self.reference: Dict[str, bytes] = {}
        self.store: Optional[str] = None
        self.runs = 0
        self.attempted = 0
        self.failed = 0

    # -- set-up ------------------------------------------------------------

    def _repro(self, *argv: str) -> Tuple[float, int]:
        wall, _, code, _ = launch(["-m", "repro", *argv], self.log, self.env)
        return wall, code

    def _require(self, code: int, what: str) -> None:
        if code != 0:
            raise RuntimeError(f"{what} failed with exit code {code}; see {self.log}")

    def time_import(self) -> float:
        """Wall clock of one fresh ``python -c "import repro.cli"``."""
        wall, _, code, _ = launch(["-c", "import repro.cli"], self.log, self.env)
        self._require(code, "import repro.cli")
        return wall

    def probe(self) -> float:
        """Wall clock of one fresh host-speed probe process."""
        wall, _, code, _ = launch([os.path.join(HERE, "probe.py")], self.log, self.env)
        self._require(code, "probe.py")
        return wall

    def setup(self) -> Tuple[float, float]:
        """Compile, time imports (and pre-warms), build the reference.

        Returns ``setup_s`` scaled to the reference host speed, and raw.  The
        reference is built last and is excluded from every metric.
        """
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        code = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC],
            env=dict(self.env, PYTHONDONTWRITEBYTECODE=""),
            stdout=subprocess.DEVNULL,
        ).returncode
        self._require(code, "compileall")
        probes: List[float] = []
        walls: List[float] = []
        if self.workload.prewarm:
            for index in range(1 if self.smoke else PREWARM_REPEATS):
                store = os.path.join(self.dir, f"store-{index}")
                probes.append(self.probe())
                wall, code = self._repro(
                    "skeletons", "warm", store, "--size", str(self.size), "--seed", str(self.seed)
                )
                self._require(code, "skeletons warm")
                walls.append(wall)
                if self.store is not None:
                    shutil.rmtree(self.store)
                self.store = store
        else:
            for _ in range(1 if self.smoke else IMPORT_REPEATS):
                probes.append(self.probe())
                walls.append(self.time_import())
        self.reference = self._build_reference()
        scaled = [wall * scale for wall, scale in zip(walls, host_scales(probes))]
        return median(scaled), median(walls)

    def _build_reference(self) -> Dict[str, bytes]:
        ref_dir = os.path.join(self.dir, "reference")
        os.makedirs(ref_dir)
        common = ("campaign", "--size", str(self.size), "--seed", str(self.seed))
        if self.workload.grid:
            listing = subprocess.run(
                [sys.executable, "-m", "repro", "scenarios", "--names"],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
            )
            self._require(listing.returncode, "repro scenarios --names")
            names = listing.stdout.split()
            for name in names:
                _, code = self._repro(
                    *common, "--scenario", name, *self.workload.reference_flags,
                    "--output", os.path.join(ref_dir, f"{name}.report.txt"),
                )
                self._require(code, f"reference run for scenario {name}")
        else:
            _, code = self._repro(
                *common, *self.workload.reference_flags,
                "--output", os.path.join(ref_dir, "report.txt"),
            )
            self._require(code, "reference run")
        return read_reports(ref_dir)

    # -- runs ----------------------------------------------------------------

    def _argv(self, run_dir: str, out_dir: str) -> List[str]:
        argv = ["campaign", "--size", str(self.size), "--seed", str(self.seed)]
        argv += self.workload.flags
        for flag in self.workload.fresh_dirs:
            path = os.path.join(run_dir, flag.strip("-"))
            os.makedirs(path)
            argv += [flag, path]
        if self.store is not None:
            argv += ["--skeleton-cache", self.store]
        output = out_dir if self.workload.grid else os.path.join(out_dir, "report.txt")
        return argv + ["--output", output]

    def run(self, traced: bool) -> Tuple[float, float, Optional[Dict[str, float]]]:
        """One checked campaign process: wall s, peak RSS MB and, traced, layer metrics."""
        self.runs += 1
        run_dir = os.path.join(self.dir, f"run-{self.runs}")
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(out_dir)
        argv = self._argv(run_dir, out_dir)
        if traced:
            spans_dir = os.path.join(run_dir, "spans")
            os.makedirs(spans_dir)
            argv = [os.path.join(HERE, "tracer.py"), spans_dir, str(self.runs), "--"] + argv
        else:
            argv = ["-m", "repro"] + argv
        wall, end, code, rss_mb = launch(argv, self.log, self.env)
        if self.after_run is not None:
            self.after_run(out_dir)
        ok = code == 0 and read_reports(out_dir) == self.reference
        if not ok:
            reason = f"exit code {code}" if code else "report differs from the reference"
            print(f"{self.workload.name}: run {self.runs} failed: {reason}; see {self.log}",
                  file=sys.stderr)
        layers = None
        if traced and code == 0:
            layers = tracer.summarize(spans_dir, wall, end)
            if layers["trace.unattributed_share"] > UNATTRIBUTED_BOUND:
                print(
                    f"{self.workload.name}: traced run {self.runs} left "
                    f"{layers['trace.unattributed_share']:.1%} of its wall clock "
                    f"unattributed (bound {UNATTRIBUTED_BOUND:.0%})",
                    file=sys.stderr,
                )
                ok = False
        self.attempted += 1
        self.failed += not ok
        shutil.rmtree(run_dir)
        return wall, rss_mb, layers

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(bench: Bench, seconds: float, trace: bool) -> Tuple[Dict[str, float], dict]:
    """Time runs for ``seconds`` (at least MIN_RUNS); returns metrics and samples."""
    setup_s, setup_raw_s = bench.setup()
    domains = bench.size * len(bench.reference)
    min_runs = 1 if bench.smoke else MIN_RUNS
    probes: List[float] = []
    imports: List[float] = []
    walls: List[float] = []
    rss_mb: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    # One untimed, checked run first: it lets the page cache and the disk
    # writeback left by set-up settle before the clock starts.
    bench.run(traced=False)
    deadline = time.perf_counter() + seconds
    while len(walls) < min_runs or time.perf_counter() < deadline:
        if not trace:
            # Timed next to its run, so all three see the same host speed.
            probes.append(bench.probe())
            imports.append(bench.time_import())
        wall, rss, _ = bench.run(traced=False)
        walls.append(wall)
        rss_mb.append(rss)
        if trace:
            wall, _, metrics = bench.run(traced=True)
            traced_walls.append(wall)
            if metrics is not None:
                layers.append(metrics)
    if trace:
        metrics = {
            name: median([run[name] for run in layers]) for name in tracer.METRIC_NAMES
        }
        metrics["trace.overhead_s"] = median(traced_walls) - median(walls)
    else:
        rates = [domains / (wall - import_s) for wall, import_s in zip(walls, imports)]
        scales = host_scales(probes)
        metrics = {
            "wall_s": median([wall * scale for wall, scale in zip(walls, scales)]),
            "domains_per_s": median([rate / scale for rate, scale in zip(rates, scales)]),
            "setup_s": setup_s,
            "peak_rss_mb": median(rss_mb),
            # Unscaled, printed beside the metrics for reference.
            "wall_s.raw": median(walls),
            "domains_per_s.raw": median(rates),
            "setup_s.raw": setup_raw_s,
            "probe_s": median(probes),
        }
    samples = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "import_s": imports,
        "probe_s": probes,
        "domains": domains,
        "untraced_wall_s": walls,
        "untraced_peak_rss_mb": rss_mb,
        "traced_wall_s": traced_walls,
        "layers": layers,
    }
    return metrics, samples


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


#: The unscaled figures printed after the end-to-end metrics.
UNSCALED_UNITS = {
    "wall_s.raw": "s", "domains_per_s.raw": "domains/s", "setup_s.raw": "s", "probe_s": "s",
}


def report(
    workload: str, metrics: Dict[str, float], entries: List[dict], bench: Bench
) -> bool:
    """Print each metric with its unit; returns False if one is missing."""
    complete = True
    for entry in entries:
        name = entry["name"]
        if name not in metrics:
            print(f"{workload}: metric {name} was not measured", file=sys.stderr)
            complete = False
            continue
        print(f"{workload:14s} {name:36s} {metrics[name]:16.6f} {entry['unit']}")
    for name, unit in UNSCALED_UNITS.items():
        if name in metrics:
            print(f"{workload:14s} {name:36s} {metrics[name]:16.6f} {unit}")
    share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{workload:14s} {'failed_share':36s} {share:16.6f} ratio "
          f"({bench.failed} of {bench.attempted} runs)")
    return complete


def run_workload(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """Measure one workload, print its metric lines; returns the JSON result."""
    bench = Bench(WORKLOADS[name], seed, smoke=smoke)
    try:
        metrics, samples = measure(bench, seconds, trace)
    finally:
        bench.close()
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    complete = report(name, metrics, entries, bench)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "size": bench.size, "environment": environment(),
        "attempted": bench.attempted, "failed": bench.failed,
        "metrics": metrics, "samples": samples,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        WORK, "results", f"{name}-s{seed}-t{int(trace)}-{stamp}-p{os.getpid()}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return {
        "correct": complete and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in entries
            if entry["name"] in metrics
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS),
        help="the workload to measure (default: every workload, without the JSON line)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload (or --workload) at a tiny size, untraced and "
             "traced, one run each; exit non-zero when any run failed",
    )
    args = parser.parse_args(argv)
    # A terminated benchmark still kills its campaign process and removes
    # its work directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    print("environment " + json.dumps(environment(), sort_keys=True))
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0 if args.smoke else args.seconds
    results = [
        run_workload(spec, name, args.seed, seconds, trace, args.smoke)
        for name in names
        for trace in traces
    ]
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
