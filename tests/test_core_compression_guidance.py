"""Unit tests for the compression study and the §5 guidance."""

import pytest

from repro.core import HandshakeClass, InitialSizeCache, run_compression_study
from repro.core.compression_study import run_all_algorithms
from repro.core.guidance import derive_guidance
from repro.core.limits import LARGER_COMMON_LIMIT, MIN_INITIAL_SIZE
from repro.tls.cert_compression import CertificateCompressionAlgorithm


class TestCompressionStudy:
    def test_empty_input(self):
        result = run_compression_study([])
        assert result.chain_count == 0
        assert result.median_compression_rate == 0.0

    def test_study_over_population_matches_paper(self, small_population):
        chains = [
            d.delivered_chain for d in small_population.quic_services() if d.delivered_chain
        ][:250]
        result = run_compression_study(chains)
        # Paper: ≈65 % median rate, ≈99 % of chains below the limit once compressed.
        assert 0.55 <= result.median_compression_rate <= 0.8
        assert result.share_below_limit_compressed >= 0.97
        assert result.share_below_limit_compressed >= result.share_below_limit_uncompressed
        assert result.share_rescued >= 0.0
        assert result.limit_bytes == LARGER_COMMON_LIMIT

    def test_as_dict_keys(self, small_population):
        chains = [
            d.delivered_chain for d in small_population.quic_services() if d.delivered_chain
        ][:20]
        result = run_compression_study(chains)
        assert result.as_dict()["algorithm"] == "brotli"

    def test_all_algorithms_study(self, small_population):
        chains = [
            d.delivered_chain for d in small_population.quic_services() if d.delivered_chain
        ][:40]
        results = run_all_algorithms(chains)
        assert set(results) == set(CertificateCompressionAlgorithm)
        for result in results.values():
            assert result.chain_count == len(chains)


class TestInitialSizeCache:
    def test_default_for_unknown_server(self):
        cache = InitialSizeCache(default_initial_size=1250)
        assert cache.initial_size_for("unknown.example") == 1250
        assert "unknown.example" not in cache

    def test_record_handshake_suggests_fitting_initial(self):
        cache = InitialSizeCache(default_initial_size=1250)
        entry = cache.record_handshake("big.example", server_first_flight_bytes=4300, achieved_one_rtt=False)
        assert entry.suggested_initial_size >= 4300 / 3
        assert cache.initial_size_for("big.example") == entry.suggested_initial_size
        assert len(cache) == 1

    def test_suggestion_respects_minimum_and_mtu(self):
        cache = InitialSizeCache(default_initial_size=1250)
        small = cache.record_handshake("tiny.example", 900, achieved_one_rtt=True)
        assert small.suggested_initial_size >= MIN_INITIAL_SIZE
        huge = cache.record_handshake("huge.example", 30_000, achieved_one_rtt=False)
        assert huge.suggested_initial_size <= 1472

    def test_record_chain_seeds_cache(self, lets_encrypt_short_chain):
        cache = InitialSizeCache()
        cache.record_chain("seeded.example", lets_encrypt_short_chain)
        assert "seeded.example" in cache
        assert cache.initial_size_for("seeded.example") >= MIN_INITIAL_SIZE

    def test_invalid_defaults_rejected(self):
        with pytest.raises(ValueError):
            InitialSizeCache(default_initial_size=1000)
        cache = InitialSizeCache()
        with pytest.raises(ValueError):
            cache.record_handshake("x.example", -1, True)


class TestGuidance:
    def test_guidance_covers_all_stakeholders(self):
        guidance = derive_guidance(
            class_shares={
                HandshakeClass.AMPLIFICATION: 0.61,
                HandshakeClass.MULTI_RTT: 0.38,
                HandshakeClass.ONE_RTT: 0.0075,
                HandshakeClass.RETRY: 0.0007,
            },
            median_compression_rate=0.65,
            share_compressed_below_limit=0.99,
            share_quic_leaf_ecdsa=0.789,
        )
        audiences = {g.audience for g in guidance}
        assert "IETF / protocol" in audiences
        assert "server implementations" in audiences
        assert "certificate authorities" in audiences
        assert len(guidance) >= 5
        server_guidance = next(g for g in guidance if g.audience == "server implementations")
        assert server_guidance.value == pytest.approx(0.61)
