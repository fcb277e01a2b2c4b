"""Warm replay recomputes nothing the skeleton store already determines.

A warm columnar campaign reads three things from the store instead of
recomputing them: the raw DEFLATE length of every chain a QUIC-category
skeleton delivers (the leaf annex's DEFLATE column), the ranked list (only a
miss generates, so only a miss builds it), and the leaf fields the kernel
reads (answered from the ``_deferred`` record, so no leaf is expanded).  Each
test pairs the "no recomputation" check with a byte-compare against a
cache-free run.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import zlib

import pytest

from repro.analysis.report import build_report
from repro.netsim.dns import DnsRcode
from repro.scanners import MeasurementCampaign, run_grid_campaign
from repro.scanners.skeleton_store import (
    SkeletonKey,
    SkeletonStore,
    cache_counters,
    reset_cache_counters,
    reset_stores,
    shard_count,
    warm,
)
from repro.scenarios import load_scenario
from repro.scenarios.grid import load_grid
from repro.tls import cert_compression
from repro.tls.cert_compression import chain_deflate_size, chain_payload, deflate_size
from repro.webpki import tranco
from repro.webpki.deployment import ServiceCategory
from repro.webpki.population import PopulationConfig
from repro.webpki.skeleton import DeploymentSkeleton
from repro.x509 import issuance
from repro.x509.ca import default_hierarchy

POPULATION_SIZE = 1500  # two generation shards, the second one partial
SHARD_SIZE = 300
SPOOFED = 12
CAMPAIGN_KWARGS = dict(
    shard_size=SHARD_SIZE, spoofed_targets_per_provider=SPOOFED, scan_backend="columnar"
)
#: Grid members that leave every chain spec untouched, so a warm grid visit
#: serves every chain (and its DEFLATE length) from the store.
CHAIN_PRESERVING_GRID = ("baseline-2022", "universal-compression", "large-initials")


@pytest.fixture(autouse=True)
def _isolate_process_state():
    reset_stores()
    reset_cache_counters()
    yield
    reset_stores()
    reset_cache_counters()


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=31)


@pytest.fixture(scope="module")
def warmed_dir(config, tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("skel-warm"))
    assert warm(directory, config) == (0, shard_count(POPULATION_SIZE))
    return directory


@pytest.fixture(scope="module")
def reference(config) -> str:
    """The cache-free streamed report every warm run must reproduce."""
    return build_report(
        MeasurementCampaign(population_config=config, stream=True, **CAMPAIGN_KWARGS).run()
    ).text


class CallLog:
    """Counts calls to the recomputations a warm run must skip.

    Calls are appended to a file, so calls made in fork-started pool workers
    (which inherit the patches) are counted too.  Each line names the
    recomputation and, for leaf expansion, the method that triggered it.
    """

    def __init__(self, path: str, monkeypatch) -> None:
        self.path = path
        self._patch(monkeypatch, cert_compression, "deflate_size", "deflate")
        # Every alias of generate_tranco_list funnels into the memoized builder.
        self._patch(monkeypatch, tranco, "_generate_tranco_list", "tranco")
        self._patch(monkeypatch, issuance, "expand_deferred_leaf_fields", "expand")

    def _patch(self, monkeypatch, module, name: str, label: str) -> None:
        original = getattr(module, name)
        path = self.path

        def counted(*args, **kwargs):
            # Frame 1 is Certificate.__getattr__ for expansions; frame 2 is
            # the method whose attribute read reached it.
            trigger = sys._getframe(2).f_code.co_name
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"{label} {trigger}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def lines(self):
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return handle.read().splitlines()

    def count(self, label: str) -> int:
        return sum(1 for line in self.lines() if line.split()[0] == label)


@pytest.fixture()
def call_log(tmp_path, monkeypatch) -> CallLog:
    return CallLog(str(tmp_path / "calls.log"), monkeypatch)


class TestNoRecomputationWhenWarm:
    def test_streamed_two_workers(self, config, warmed_dir, reference, call_log):
        text = build_report(
            MeasurementCampaign(
                population_config=config,
                stream=True,
                workers=2,
                skeleton_cache_dir=warmed_dir,
                **CAMPAIGN_KWARGS,
            ).run()
        ).text
        assert text == reference
        assert call_log.count("deflate") == 0
        assert call_log.count("tranco") == 0
        # The kernel expands no leaf.  The only expansions left are the
        # spoof-target leaves a worker pickles into its summary for the
        # parent: pickling sends the expanded fields.
        expansions = [line for line in call_log.lines() if line.startswith("expand")]
        assert all(line == "expand __getstate__" for line in expansions), expansions

    def test_eager_generate_population_cached(self, config, warmed_dir, call_log):
        plain = build_report(
            MeasurementCampaign(population_config=config, **CAMPAIGN_KWARGS).run()
        ).text
        before = call_log.lines()
        cached = build_report(
            MeasurementCampaign(
                population_config=config, skeleton_cache_dir=warmed_dir, **CAMPAIGN_KWARGS
            ).run()
        ).text
        assert cached == plain
        assert cache_counters()["misses"] == 0
        assert call_log.lines()[len(before):] == []

    def test_scenario_grid(self, config, warmed_dir, call_log):
        grid = load_grid(",".join(CHAIN_PRESERVING_GRID))
        plain = run_grid_campaign(grid, config=config, **CAMPAIGN_KWARGS)
        before = call_log.lines()
        cached = run_grid_campaign(
            grid, config=config, skeleton_cache_dir=warmed_dir, **CAMPAIGN_KWARGS
        )
        assert call_log.lines()[len(before):] == []
        assert cache_counters()["misses"] == 0
        for name in CHAIN_PRESERVING_GRID:
            assert build_report(cached[name]).text == build_report(plain[name]).text


class TestStoredDeflateLengths:
    def test_every_decoded_length_matches_zlib(self, config, warmed_dir):
        store = SkeletonStore(warmed_dir)
        measured = 0
        for index in range(shard_count(POPULATION_SIZE)):
            shard, cache = store.load(SkeletonKey.for_config(config, index))
            # The spec of each QUIC-category skeleton's delivered chain: the
            # rotated QUIC chain, or the HTTPS chain it shares.
            delivered = {
                skeleton.https_spec if skeleton.quic_shares_https else skeleton.quic_spec
                for skeleton in shard.skeletons
                if skeleton.category is ServiceCategory.QUIC
            }
            assert None not in delivered
            for spec, chain in cache.items():
                if spec not in delivered:
                    assert "_deflate_size" not in chain.__dict__
                    continue
                payload = chain_payload(cert.der for cert in chain.certificates)
                assert chain.__dict__["_deflate_size"] == deflate_size(payload)
                measured += 1
        assert measured > 0

    def test_trim_fallback_slice_carries_no_memo(self, config, warmed_dir):
        shard, cache = SkeletonStore(warmed_dir).load(SkeletonKey.for_config(config, 0))
        spec = next(
            spec
            for spec, chain in cache.items()
            if "_deflate_size" in chain.__dict__ and len(chain.certificates) > 1
        )
        full = cache[spec]
        probe = DeploymentSkeleton(
            domain=spec.domain,
            rank=1,
            category=ServiceCategory.HTTPS_ONLY,
            dns_rcode=DnsRcode.NOERROR,
            https_spec=dataclasses.replace(spec, trim_to=1),
        )
        chain_cache = dict(cache)
        sliced = probe.materialize(default_hierarchy(), chain_cache=chain_cache).https_chain
        assert sliced is not full
        assert sliced.certificates == full.certificates[:1]
        assert "_deflate_size" not in sliced.__dict__
        assert chain_deflate_size(sliced) == deflate_size(
            chain_payload(cert.der for cert in sliced.certificates)
        )

    def test_zlib_version_change_misses_every_shard(
        self, config, warmed_dir, reference, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "skel")
        shutil.copytree(warmed_dir, directory)
        before = SkeletonStore(directory).entries()
        monkeypatch.setattr(zlib, "ZLIB_RUNTIME_VERSION", "0.0.0-foreign-build")
        text = build_report(
            MeasurementCampaign(
                population_config=config,
                stream=True,
                skeleton_cache_dir=directory,
                **CAMPAIGN_KWARGS,
            ).run()
        ).text
        assert text == reference
        assert cache_counters()["misses"] == shard_count(POPULATION_SIZE)
        after = SkeletonStore(directory).entries()
        # Entries written under the other zlib build stay; new ones join them.
        assert set(before) < set(after)
        assert len(after) == 2 * len(before)


def test_scenario_transforms_keep_domains(config, warmed_dir):
    """``generate_population_cached`` rebuilds the ranked list from the
    deployments' domains, which holds because no scenario renames one."""
    from repro.scanners.skeleton_store import skeletons_for_range

    baseline = skeletons_for_range(warmed_dir, config, 0, POPULATION_SIZE)
    for name in ("trimmed-chains", "ecdsa-only", "universal-compression"):
        member = load_scenario(name).population_config(base=config)
        transformed = skeletons_for_range(warmed_dir, member, 0, POPULATION_SIZE)
        assert [s.domain for s in transformed] == [s.domain for s in baseline]
    assert [s.domain for s in baseline] == list(
        tranco.generate_tranco_list(POPULATION_SIZE, seed=config.seed).domains
    )
