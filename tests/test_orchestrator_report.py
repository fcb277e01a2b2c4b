"""Tests for the campaign orchestrator and the full evaluation report."""

import pytest

from repro.analysis.report import build_report, class_shares
from repro.quic.handshake import HandshakeClass
from repro.scanners import MeasurementCampaign
from repro.scanners.streaming import provider_of_domain
from repro.webpki import PopulationConfig, generate_population


class TestCampaignResults:
    def test_results_are_internally_consistent(self, campaign_results, small_population):
        results = campaign_results
        quic_count = len(small_population.quic_services())
        assert results.quic_count == quic_count
        assert results.scan.handshake_total == quic_count
        assert results.scan.quic_certificate_count == quic_count
        assert results.scan.wild_count == quic_count
        assert results.sweep is not None
        assert len(results.meta_probe_before) == 256
        assert len(results.meta_probe_after) == 256
        assert results.analysis_initial_size == 1362

    def test_all_quic_handshakes_reachable_at_default_size(self, campaign_results):
        # At 1362 bytes, only heavily tunnelled services could drop out; the
        # overwhelming majority must respond.
        scan = campaign_results.scan
        assert scan.reachable_count / scan.handshake_total > 0.95

    def test_provider_lookup(self, small_population):
        deployment = small_population.quic_services()[0]
        lookup = small_population.deployment
        assert provider_of_domain(deployment.domain, lookup) == deployment.provider
        assert provider_of_domain("definitely-not-scanned.example", lookup) is None
        assert provider_of_domain("instagram.com", lookup) == "meta"

    def test_class_shares_sum_to_one(self, campaign_results):
        shares = class_shares(campaign_results)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[HandshakeClass.AMPLIFICATION] > shares[HandshakeClass.ONE_RTT]

    def test_campaign_without_sweep(self):
        population = generate_population(PopulationConfig(size=400, seed=5))
        results = MeasurementCampaign(population=population, run_sweep=False).run()
        assert results.sweep is None
        assert results.scan.handshake_total == len(population.quic_services())


class TestEvaluationReport:
    def test_report_contains_every_experiment(self, campaign_results):
        report = build_report(campaign_results)
        expected_sections = {
            "funnel", "figure02b", "figure03", "table01", "figure04", "figure05",
            "figure06", "figure07a", "figure07b", "figure08", "table02", "compression",
            "figure09", "meta_prefix", "figure11", "figure12", "figure13", "figure14",
            "table03",
        }
        assert expected_sections <= set(report.keys())
        assert "## figure06" in report.text
        assert "## table03" in report.text
        assert len(report.text) > 4000

    def test_report_without_sweep_omits_figure03(self, campaign_results):
        report = build_report(campaign_results, include_sweep=False)
        assert "figure03" not in report.keys()

    def test_report_sections_accessible_by_key(self, campaign_results):
        report = build_report(campaign_results)
        assert report["figure06"].quic_median < report["figure06"].https_only_median
