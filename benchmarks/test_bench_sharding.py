"""Benchmark: 1-vs-N-worker wall time of the streamed campaign.

Measures the full per-domain pipeline (stages 1–4 plus the parent-side
telescope stage) over a 20k population — the ROADMAP's reference scale — once
single-process and once with ``REPRO_BENCH_SHARDING_WORKERS`` processes.  Both
run ``stream=True`` from a population config, the path users run at N
workers: workers regenerate their shards and ship back compact summaries.
Both variants produce byte-identical reports (tests/test_sharding.py and
tests/test_streaming_reduction.py assert it); this benchmark only compares
wall time.

On single-core machines the multi-process variant is expected to *lose*: the
per-domain compute serialises anyway and pool start-up is added overhead.
The win appears with real cores; see docs/PERFORMANCE.md for the methodology
and reference numbers.

Knobs (environment):
  REPRO_BENCH_SHARDING_SIZE     population size (default 20000)
  REPRO_BENCH_SHARDING_WORKERS  worker count of the N-worker variant (default 2)
"""

from __future__ import annotations

import os

import pytest

from repro.scanners.orchestrator import MeasurementCampaign
from repro.webpki.population import PopulationConfig

SHARDING_BENCH_SIZE = int(os.environ.get("REPRO_BENCH_SHARDING_SIZE", "20000"))
SHARDING_BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_SHARDING_WORKERS", "2"))
SHARDING_BENCH_CONFIG = PopulationConfig(size=SHARDING_BENCH_SIZE, seed=2022)


def _run_campaign(workers: int) -> None:
    MeasurementCampaign(
        population_config=SHARDING_BENCH_CONFIG,
        run_sweep=False,
        spoofed_targets_per_provider=40,
        workers=workers,
        stream=True,
    ).run()


@pytest.mark.benchmark(group="sharding")
def test_bench_campaign_one_worker(benchmark):
    benchmark.pedantic(_run_campaign, args=(1,), rounds=1, iterations=1)


@pytest.mark.benchmark(group="sharding")
def test_bench_campaign_n_workers(benchmark):
    benchmark.pedantic(
        _run_campaign, args=(SHARDING_BENCH_WORKERS,), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="sharding")
def test_bench_streaming_population_generation(benchmark):
    """Streaming generation throughput (the 100k–1M ingest path)."""
    from repro.webpki.population import iter_population_shards

    def consume() -> int:
        total = 0
        for shard in iter_population_shards(PopulationConfig(size=4096, seed=7)):
            total += len(shard)
        return total

    assert benchmark.pedantic(consume, rounds=1, iterations=1) == 4096
