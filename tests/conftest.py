"""Shared fixtures.

Expensive objects (the CA hierarchy, a synthetic population, a full campaign
run) are built once per session and shared; they are deterministic, so sharing
them does not couple tests.
"""

from __future__ import annotations

import pytest

from repro.quic.client import QuicClientConfig
from repro.scanners.orchestrator import MeasurementCampaign
from repro.scanners.sharding import ShardScanResult, build_shard_tasks, scan_shard
from repro.scanners.streaming import ReducedCampaignResults
from repro.webpki.population import InternetPopulation, PopulationConfig, generate_population
from repro.x509.ca import WebPkiHierarchy, default_hierarchy


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "memory_budget: slow peak-RSS budget tests (env-gated via "
        "REPRO_MEMORY_BUDGET_TESTS; CI deselects with -m 'not memory_budget')",
    )


@pytest.fixture(scope="session")
def hierarchy() -> WebPkiHierarchy:
    """The (cached, deterministic) Web PKI hierarchy."""
    return default_hierarchy()


@pytest.fixture(scope="session")
def small_population() -> InternetPopulation:
    """A small but statistically meaningful synthetic population."""
    return generate_population(PopulationConfig(size=1500, seed=42))


#: Sweep sample size of the fixture campaign (and of ``shard_scan``).
SWEEP_SAMPLE_SIZE = 120


@pytest.fixture(scope="session")
def campaign_results(small_population: InternetPopulation) -> ReducedCampaignResults:
    """A full campaign over the small population, with a sampled sweep."""
    campaign = MeasurementCampaign(
        population=small_population,
        run_sweep=True,
        sweep_sample_size=SWEEP_SAMPLE_SIZE,
        spoofed_targets_per_provider=25,
    )
    return campaign.run()


@pytest.fixture(scope="session")
def shard_scan(small_population: InternetPopulation) -> ShardScanResult:
    """Per-domain stages 1–4 over the whole small population as one shard.

    The object scan of a single by-value task with the campaign's sweep
    sample: the observations ``campaign_results`` reduces.
    """
    (task,) = build_shard_tasks(
        small_population.deployments,
        shard_size=len(small_population.deployments),
        run_sweep=True,
        sweep_sample_size=SWEEP_SAMPLE_SIZE,
    )
    return scan_shard(task)


@pytest.fixture(scope="session")
def browser_client() -> QuicClientConfig:
    """A Firefox-like client (the 1362-byte analysis size of the paper)."""
    return QuicClientConfig(initial_datagram_size=1362)


@pytest.fixture(scope="session")
def cloudflare_chain(hierarchy: WebPkiHierarchy):
    return hierarchy.profiles["Cloudflare ECC CA-3"].issue("fixture-cf.example")


@pytest.fixture(scope="session")
def lets_encrypt_long_chain(hierarchy: WebPkiHierarchy):
    return hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue("fixture-le.example")


@pytest.fixture(scope="session")
def lets_encrypt_short_chain(hierarchy: WebPkiHierarchy):
    return hierarchy.profiles["Let's Encrypt E1 (short)"].issue("fixture-e1.example")
