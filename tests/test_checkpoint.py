"""Checkpoint-store integrity: every defect is detected, quarantined, re-scanned.

A checkpoint is an optimisation, never a source of truth: the store must
refuse to trust a torn, corrupted, stale-format or foreign file — each is
moved into ``quarantine/`` and its shard simply re-scanned, and the resumed
report stays byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from types import SimpleNamespace

import pytest

from repro.analysis.report import build_report
from repro.core.ioutil import atomic_write_bytes, atomic_write_text
from repro.scanners import MeasurementCampaign
from repro.scanners.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointKey,
    CheckpointStore,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.scanners.faults import corrupt_file, truncate_file
from repro.scanners.streaming import run_streaming_scan
from repro.scenarios import BUILTIN_SCENARIOS
from repro.scenarios.grid import ScenarioGrid
from repro.tls.cert_compression import CertificateCompressionAlgorithm
from repro.webpki.population import PopulationConfig

POPULATION_SIZE = 360
SHARD_SIZE = 120
CAMPAIGN_KWARGS = dict(stream=True, shard_size=SHARD_SIZE, spoofed_targets_per_provider=12)


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=2022)


@pytest.fixture(scope="module")
def checkpointed_run(config, tmp_path_factory):
    """One finished checkpointed campaign: (reference report text, directory)."""
    directory = tmp_path_factory.mktemp("ckpt-reference")
    results = MeasurementCampaign(
        population_config=config, checkpoint_dir=str(directory), **CAMPAIGN_KWARGS
    ).run()
    return build_report(results).text, directory


def _checkpoint_files(directory) -> list:
    return sorted(
        name for name in os.listdir(directory) if name.endswith(".ckpt")
    )


def _resume(config, directory):
    results = MeasurementCampaign(
        population_config=config,
        checkpoint_dir=str(directory),
        resume=True,
        **CAMPAIGN_KWARGS,
    ).run()
    return build_report(results).text


def _damaged_copy(checkpointed_run, tmp_path, damage) -> tuple:
    """Copy the reference checkpoint dir and apply ``damage`` to one file."""
    reference, source = checkpointed_run
    directory = tmp_path / "ckpt"
    shutil.copytree(source, directory)
    victim = os.path.join(directory, _checkpoint_files(directory)[1])
    damage(victim)
    return reference, directory, os.path.basename(victim)


class TestWireFormat:
    def test_round_trip(self):
        payload = {"shard": 7, "values": [1, 2, 3]}
        assert decode_checkpoint(encode_checkpoint(payload)) == payload

    def test_header_carries_version_and_digest(self):
        data = encode_checkpoint("x")
        header = data.split(b"\n", 1)[0].split(b" ")
        assert header[0] == CHECKPOINT_FORMAT
        assert len(header) == 3 and len(header[2]) == 64

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: data[: len(data) // 2],            # truncated
            lambda data: data.replace(CHECKPOINT_FORMAT, b"repro-ckpt/0", 1),  # stale version
            lambda data: b"",                               # empty file
            lambda data: b"not a checkpoint at all",        # garbage
        ],
    )
    def test_defective_bytes_raise(self, mangle):
        data = encode_checkpoint({"shard": 1})
        with pytest.raises(CheckpointError):
            decode_checkpoint(mangle(data))

    def test_flipped_payload_byte_raises(self):
        data = bytearray(encode_checkpoint({"shard": 1}))
        data[-3] ^= 0xFF
        with pytest.raises(CheckpointError, match="digest mismatch"):
            decode_checkpoint(bytes(data))


class TestContentAddressing:
    def test_filename_embeds_index_and_campaign_digest(self, config):
        key = CheckpointKey.for_campaign(config, SHARD_SIZE, 3)
        assert key.filename().startswith("shard-000003-")
        assert key.filename().endswith(".ckpt")

    def test_different_campaign_means_different_filename(self, config):
        base = CheckpointKey.for_campaign(config, SHARD_SIZE, 0)
        other_seed = CheckpointKey.for_campaign(
            PopulationConfig(size=POPULATION_SIZE, seed=7), SHARD_SIZE, 0
        )
        other_shards = CheckpointKey.for_campaign(config, 60, 0)
        scenario_config = BUILTIN_SCENARIOS["trimmed-chains"].population_config(
            base=config
        )
        other_scenario = CheckpointKey.for_campaign(scenario_config, SHARD_SIZE, 0)
        names = {
            base.filename(),
            other_seed.filename(),
            other_shards.filename(),
            other_scenario.filename(),
        }
        assert len(names) == 4


class TestQuarantine:
    def test_truncated_checkpoint_is_quarantined_and_rescanned(
        self, config, checkpointed_run, tmp_path
    ):
        reference, directory, victim = _damaged_copy(
            checkpointed_run, tmp_path, truncate_file
        )
        assert _resume(config, directory) == reference
        assert victim in os.listdir(directory / "quarantine")
        # The re-scanned shard was re-checkpointed with valid bytes.
        assert victim in _checkpoint_files(directory)

    def test_flipped_byte_is_quarantined_and_rescanned(
        self, config, checkpointed_run, tmp_path
    ):
        reference, directory, victim = _damaged_copy(
            checkpointed_run, tmp_path, corrupt_file
        )
        assert _resume(config, directory) == reference
        assert victim in os.listdir(directory / "quarantine")

    def test_stale_format_version_is_quarantined_and_rescanned(
        self, config, checkpointed_run, tmp_path
    ):
        def stale(path):
            with open(path, "rb") as handle:
                data = handle.read()
            atomic_write_bytes(path, data.replace(CHECKPOINT_FORMAT, b"repro-ckpt/0", 1))

        reference, directory, victim = _damaged_copy(checkpointed_run, tmp_path, stale)
        assert _resume(config, directory) == reference
        assert victim in os.listdir(directory / "quarantine")

    def test_foreign_summary_under_expected_name_is_quarantined(
        self, config, checkpointed_run, tmp_path
    ):
        """A file whose embedded summary belongs elsewhere is never trusted."""
        reference, source = checkpointed_run
        directory = tmp_path / "ckpt"
        shutil.copytree(source, directory)
        store = CheckpointStore(str(directory))
        key = CheckpointKey.for_campaign(config, SHARD_SIZE, 1)
        foreign = SimpleNamespace(index=1, scenario_fingerprint="0" * 64)
        store.save(key, foreign)
        assert store.load(key) is None
        assert os.listdir(directory / "quarantine")
        assert _resume(config, directory) == reference

    def test_quarantine_never_overwrites_evidence(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for _ in range(2):
            path = tmp_path / "shard-000000-aaaa.ckpt"
            path.write_bytes(b"garbage")
            store.quarantine(str(path))
        assert len(os.listdir(store.quarantine_directory)) == 2


class TestAttemptAwareSaves:
    """The late-writer guard: a timed-out attempt's result surfacing after its
    retry already checkpointed must never clobber the newer bytes."""

    def _key(self, config):
        return CheckpointKey.for_campaign(config, SHARD_SIZE, 0)

    def test_stale_attempt_write_is_suppressed(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        key = self._key(config)
        retry = SimpleNamespace(index=0, scenario_fingerprint="f" * 64, origin="retry")
        late = SimpleNamespace(index=0, scenario_fingerprint="f" * 64, origin="late")
        path = store.save(key, retry, attempt=1)
        persisted = open(path, "rb").read()
        # The stalled attempt-0 writer lands afterwards: skipped, same path.
        assert store.save(key, late, attempt=0) == path
        assert open(path, "rb").read() == persisted

    def test_equal_and_newer_attempts_overwrite(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        key = self._key(config)
        path = store.save(
            key, SimpleNamespace(index=0, scenario_fingerprint="a" * 64), attempt=0
        )
        first = open(path, "rb").read()
        store.save(
            key, SimpleNamespace(index=0, scenario_fingerprint="b" * 64), attempt=0
        )
        second = open(path, "rb").read()
        assert second != first  # same attempt: deterministic rewrite is fine
        store.save(
            key, SimpleNamespace(index=0, scenario_fingerprint="c" * 64), attempt=2
        )
        assert open(path, "rb").read() != second

    def test_suppression_is_per_file_not_per_store(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(self._key(config), SimpleNamespace(index=0), attempt=3)
        other = CheckpointKey.for_campaign(config, SHARD_SIZE, 1)
        payload = SimpleNamespace(index=1, scenario_fingerprint="d" * 64)
        path = store.save(other, payload, attempt=0)
        assert decode_checkpoint(open(path, "rb").read()).index == 1


class TestCampaignBinding:
    def test_mixed_campaign_directory_is_rejected(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_campaign(config, SHARD_SIZE)
        with pytest.raises(CheckpointError, match="different campaign"):
            store.bind_campaign(
                PopulationConfig(size=POPULATION_SIZE, seed=7), SHARD_SIZE
            )
        with pytest.raises(CheckpointError, match="shard_size"):
            store.bind_campaign(config, 60)

    def test_mixed_scenario_directory_is_rejected(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_campaign(config, SHARD_SIZE)
        scenario_config = BUILTIN_SCENARIOS["ecdsa-only"].population_config(base=config)
        with pytest.raises(CheckpointError, match="scenario"):
            store.bind_campaign(scenario_config, SHARD_SIZE)

    def test_rebinding_the_same_campaign_is_fine(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_campaign(config, SHARD_SIZE)
        store.bind_campaign(config, SHARD_SIZE)

    def test_unreadable_metadata_is_rejected(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        (tmp_path / "campaign.json").write_text("{torn", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.bind_campaign(config, SHARD_SIZE)


class TestResumeUnderChangedKnobs:
    """A directory is bound to every knob that shapes a summary's bytes, so a
    resume under a changed knob is rejected instead of folding in stale
    summaries (which rendered silently wrong reports before)."""

    def test_changed_population_knobs_are_rejected(self, config, checkpointed_run, tmp_path):
        _, source = checkpointed_run
        directory = tmp_path / "ckpt"
        shutil.copytree(source, directory)
        changed = dataclasses.replace(
            config, quic_fraction_of_resolved=0.30, https_only_fraction_of_resolved=0.60
        )
        with pytest.raises(CheckpointError, match="population_fingerprint"):
            _resume(changed, directory)

    def test_changed_spoof_cap_is_rejected(self, config, tmp_path):
        kwargs = dict(CAMPAIGN_KWARGS, spoofed_targets_per_provider=5)
        MeasurementCampaign(
            population_config=config, checkpoint_dir=str(tmp_path), **kwargs
        ).run()
        kwargs["spoofed_targets_per_provider"] = 60
        with pytest.raises(CheckpointError, match="spoof_limit_per_provider"):
            MeasurementCampaign(
                population_config=config, checkpoint_dir=str(tmp_path), resume=True, **kwargs
            ).run()

    def test_changed_analysis_knobs_are_rejected(self, config, tmp_path):
        """The API-only scan knobs are bound too: a resume at another analysis
        Initial size used to fold in the old summaries and return the old
        class counts."""
        run_streaming_scan(config, shard_size=SHARD_SIZE, checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="analysis_initial_size"):
            run_streaming_scan(
                config,
                shard_size=SHARD_SIZE,
                checkpoint_dir=str(tmp_path),
                resume=True,
                analysis_initial_size=1200,
            )
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointError, match="analysis_compression"):
            store.bind_campaign(
                config,
                SHARD_SIZE,
                spoof_limit_per_provider=60,
                analysis_compression=(CertificateCompressionAlgorithm.BROTLI,),
            )
        sweeping = CheckpointStore(str(tmp_path / "sweep"))
        sweeping.bind_campaign(config, SHARD_SIZE, run_sweep=True, sweep_sample_size=20)
        with pytest.raises(CheckpointError, match="sweep_initial_sizes"):
            sweeping.bind_campaign(
                config,
                SHARD_SIZE,
                run_sweep=True,
                sweep_sample_size=20,
                sweep_initial_sizes=(1200, 1472),
            )

    def test_metadata_without_the_new_fields_is_rejected(self, config, tmp_path):
        (tmp_path / "campaign.json").write_text(
            json.dumps(
                {
                    "format": CHECKPOINT_FORMAT.decode("ascii"),
                    "seed": config.seed,
                    "size": config.size,
                    "shard_size": SHARD_SIZE,
                    "scenario": "baseline-2022",
                    "scenario_fingerprint": BUILTIN_SCENARIOS["baseline-2022"].fingerprint(),
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(CheckpointError, match="population_fingerprint"):
            CheckpointStore(str(tmp_path)).bind_campaign(config, SHARD_SIZE)

    def test_grid_binding_covers_population_and_spoof_cap(self, config, tmp_path):
        grid = ScenarioGrid(name="g", scenarios=(BUILTIN_SCENARIOS["ecdsa-only"],))
        store = CheckpointStore(str(tmp_path))
        store.bind_grid(config, SHARD_SIZE, grid, spoof_limit_per_provider=5)
        with pytest.raises(CheckpointError, match="spoof_limit_per_provider"):
            store.bind_grid(config, SHARD_SIZE, grid, spoof_limit_per_provider=60)
        changed = dataclasses.replace(config, quic_fraction_of_resolved=0.30)
        with pytest.raises(CheckpointError, match="population_fingerprint"):
            store.bind_grid(changed, SHARD_SIZE, grid, spoof_limit_per_provider=5)


class TestManifests:
    def test_incomplete_manifest_names_missing_shards(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.write_incomplete_manifest(completed=[0, 2], incomplete=[3, 1])
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest == {"completed": [0, 2], "incomplete": [1, 3]}
        store.clear_incomplete_manifest()
        assert not os.path.exists(path)
        store.clear_incomplete_manifest()  # idempotent


class TestAtomicWrites:
    def test_no_tmp_files_survive(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(str(target), "first\n")
        atomic_write_text(str(target), "second\n")
        assert target.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_failed_write_leaves_destination_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.txt"
        atomic_write_text(str(target), "intact\n")
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            atomic_write_text(str(target), "torn\n")
        assert target.read_text() == "intact\n"
        assert os.listdir(tmp_path) == ["artifact.txt"]


def _boom(*_args):
    raise RuntimeError("injected replace failure")
