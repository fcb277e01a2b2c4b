"""Differential tests: streaming reduction vs. eager campaign results.

The streaming contract under test: a campaign reduced shard-by-shard in the
workers (``MeasurementCampaign(stream=True)``) produces byte-identical
report, figure and table output to the eager paths — for any seed, worker
count and shard size — while the parent only ever holds reduced summaries.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.analysis.export import export_evaluation
from repro.analysis.figures import (
    compression,
    figure02b,
    figure04,
    figure05,
    figure06,
    figure07,
    figure08,
    figure12,
    figure13,
    figure14,
    table01,
    table02,
)
from repro.analysis.report import build_report, class_shares
from repro.scanners import MeasurementCampaign
from repro.scanners.streaming import (
    SPOOF_PROVIDERS,
    ReducedCampaignResults,
    take_per_provider,
)
from repro.webpki.deployment import ServiceCategory
from repro.webpki.population import InternetPopulation, PopulationConfig, generate_population

#: Sized to span several scan shards at the shard sizes below while keeping
#: the full matrix fast.
POPULATION_SIZE = 900

CAMPAIGN_KWARGS = dict(
    run_sweep=True,
    sweep_sample_size=60,
    spoofed_targets_per_provider=12,
)


def _eager(config, **kwargs):
    population = generate_population(config)
    return MeasurementCampaign(population=population, **CAMPAIGN_KWARGS, **kwargs).run()


def _streamed(config, **kwargs):
    return MeasurementCampaign(
        population_config=config, stream=True, **CAMPAIGN_KWARGS, **kwargs
    ).run()


class TestStreamingMatchesEager:
    @pytest.mark.parametrize("seed", [2022, 7])
    def test_report_bytes_identical_to_serial(self, seed):
        config = PopulationConfig(size=POPULATION_SIZE, seed=seed)
        eager = _eager(config)
        streamed = _streamed(config, shard_size=256)
        assert isinstance(streamed, ReducedCampaignResults)
        assert build_report(eager).text == build_report(streamed).text

    def test_report_bytes_identical_to_sharded_with_matching_counters(self):
        """Same shard size => even the flight-cache counters line up."""
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        sharded = MeasurementCampaign(
            population=generate_population(config),
            workers=1,
            shard_size=200,
            **CAMPAIGN_KWARGS,
        ).run()
        streamed = _streamed(config, workers=1, shard_size=200)
        assert build_report(sharded).text == build_report(streamed).text
        assert sharded.flight_cache == streamed.flight_cache
        assert sharded.certificate_comparison == streamed.certificate_comparison
        assert class_shares(sharded) == class_shares(streamed)
        assert sharded.scan == streamed.scan

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_count_does_not_change_report(self, workers):
        config = PopulationConfig(size=POPULATION_SIZE, seed=5)
        reference = _streamed(config, workers=1, shard_size=256)
        other = _streamed(config, workers=workers, shard_size=256)
        assert build_report(reference).text == build_report(other).text
        assert reference.flight_cache == other.flight_cache

    @pytest.mark.parametrize("shard_size", [128, 512])
    def test_shard_size_does_not_change_report(self, shard_size):
        config = PopulationConfig(size=POPULATION_SIZE, seed=5)
        reference = _eager(config)
        streamed = _streamed(config, shard_size=shard_size)
        assert build_report(reference).text == build_report(streamed).text

    def test_without_sweep(self):
        config = PopulationConfig(size=POPULATION_SIZE, seed=9)
        eager = MeasurementCampaign(
            population=generate_population(config), spoofed_targets_per_provider=12
        ).run()
        streamed = MeasurementCampaign(
            population_config=config, stream=True, spoofed_targets_per_provider=12
        ).run()
        assert streamed.sweep is None
        assert build_report(eager).text == build_report(streamed).text


class TestStreamingExports:
    def test_csv_exports_byte_identical(self, tmp_path):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        eager = _eager(config)
        streamed = _streamed(config, shard_size=256)
        eager_dir = tmp_path / "eager"
        streamed_dir = tmp_path / "streamed"
        export_evaluation(eager, str(eager_dir))
        export_evaluation(streamed, str(streamed_dir))
        eager_files = sorted(os.listdir(eager_dir))
        assert eager_files == sorted(os.listdir(streamed_dir))
        for name in eager_files:
            assert (eager_dir / name).read_bytes() == (streamed_dir / name).read_bytes(), name


class TestReducedResultsShape:
    def test_counts_cover_population(self):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        streamed = _streamed(config, shard_size=256)
        scan = streamed.scan
        assert scan.deployment_count == config.size
        assert streamed.population_size == config.size
        assert scan.handshake_total == scan.quic_count
        assert scan.quic_certificate_count == scan.quic_count
        assert scan.wild_count == scan.quic_count
        assert scan.funnel.names_total == config.size
        assert len(streamed.meta_probe_before) == 256
        assert len(streamed.meta_probe_after) == 256

    def test_streaming_rejects_materialised_population(self):
        population = generate_population(PopulationConfig(size=400, seed=5))
        with pytest.raises(ValueError):
            MeasurementCampaign(population=population, stream=True)

    def test_spoof_selection_matches_eager_walk(self):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        population = generate_population(config)
        eager_domains = [
            d.domain
            for d in take_per_provider(population.quic_services(), 12, SPOOF_PROVIDERS)
        ]
        streamed = _streamed(config, shard_size=128)
        streamed_domains = [d.domain for d in streamed.scan.spoof_deployments]
        assert streamed_domains == eager_domains


def _certificates(population):
    return [
        certificate
        for deployment in population.deployments
        if deployment.delivered_chain is not None
        for certificate in deployment.delivered_chain.certificates
    ]


#: Report section -> the per-domain ``compute`` adapter over the fixture
#: population and its single-shard object scan.
ADAPTERS = {
    "figure02b": lambda population, scan: figure02b.compute(_certificates(population)),
    "table01": lambda population, scan: table01.compute(scan.compression),
    "figure04": lambda population, scan: figure04.compute(scan.handshakes),
    "figure05": lambda population, scan: figure05.compute(scan.handshakes),
    "figure06": lambda population, scan: figure06.compute(
        population.quic_services(), population.https_only_services()
    ),
    "figure07a": lambda population, scan: figure07.compute(
        population.quic_services(), "QUIC services"
    ),
    "figure07b": lambda population, scan: figure07.compute(
        population.https_only_services(), "HTTPS-only services"
    ),
    "figure08": lambda population, scan: figure08.compute(population.quic_services()),
    "table02": lambda population, scan: table02.compute(
        population.quic_services(), population.https_only_services()
    ),
    "compression": lambda population, scan: compression.compute(
        population.quic_services(), scan.compression
    ),
    "figure12": lambda population, scan: figure12.compute(population.deployments),
    "figure13": lambda population, scan: figure13.compute(scan.handshakes),
    "figure14": lambda population, scan: figure14.compute(population.quic_services()),
}


@pytest.fixture(scope="module")
def fixture_report(campaign_results):
    return build_report(campaign_results)


class TestAdaptersMatchReport:
    """Each figure's per-domain ``compute`` folds with the accumulator a shard
    worker runs and renders exactly the campaign report's section."""

    @pytest.mark.parametrize("section", list(ADAPTERS))
    def test_adapter_renders_the_report_section(
        self, section, fixture_report, small_population, shard_scan
    ):
        result = ADAPTERS[section](small_population, shard_scan)
        assert result.render_text() == fixture_report[section].render_text()

    def test_figure13_adapter_accepts_observations_in_any_order(
        self, fixture_report, shard_scan
    ):
        reversed_ranks = sorted(shard_scan.handshakes, key=lambda o: o.rank, reverse=True)
        result = figure13.compute(reversed_ranks)
        assert result.render_text() == fixture_report["figure13"].render_text()

    def test_figure12_adapter_on_ranks_with_gaps(self, small_population, shard_scan):
        """A hand-assembled population: every third rank dropped, the rest in
        two swapped halves.  The shares match a direct count per rank group
        and the sharded campaign over the same population, whose Figure 13
        (shard series joined out of rank order) matches the adapter too."""
        kept = [d for d in small_population.deployments if d.rank % 3]
        middle = len(kept) // 2
        shuffled = kept[middle:] + kept[:middle]
        result = figure12.compute(shuffled)

        group_size = math.ceil(max(d.rank for d in kept) / 10)
        expected = []
        for group in range(10):
            start, end = group * group_size + 1, (group + 1) * group_size + 1
            members = [d for d in shuffled if start <= d.rank < end]
            if members:
                expected.append(
                    (
                        f"[{start}, {end})",
                        len(members),
                        sum(d.category is ServiceCategory.QUIC for d in members) / len(members),
                        sum(d.category is ServiceCategory.HTTPS_ONLY for d in members)
                        / len(members),
                    )
                )
        assert list(
            zip(
                result.group_labels,
                result.group_sizes,
                result.quic_shares,
                result.https_only_shares,
            )
        ) == expected

        subset = InternetPopulation(
            config=small_population.config,
            tranco=small_population.tranco,
            deployments=shuffled,
        )
        sharded = MeasurementCampaign(
            population=subset, workers=1, shard_size=97, spoofed_targets_per_provider=5
        ).run()
        report = build_report(sharded)
        assert result.render_text() == report["figure12"].render_text()
        kept_observations = [o for o in shard_scan.handshakes if o.rank % 3]
        assert (
            report["figure13"].render_text()
            == figure13.compute(kept_observations).render_text()
        )
