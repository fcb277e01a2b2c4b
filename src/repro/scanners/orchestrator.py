"""Measurement campaign orchestrator (toolchain step 5: merge and sanitize).

Runs the full pipeline of the paper against a synthetic population:

1. HTTPS certificate collection over the Tranco-like list,
2. QUIC handshake classification (single Initial size and/or full sweep),
3. certificates over QUIC and the QUIC-vs-HTTPS comparison,
4. certificate-compression support scan,
5. incomplete handshakes: spoofed-source campaign observed by a telescope plus
   the ZMap-style scan of the Meta point of presence.

Stages 1–4 run shard by shard and are reduced
(:mod:`repro.scanners.streaming`); stage 5 runs in the parent.  The result is
a :class:`~repro.scanners.streaming.ReducedCampaignResults`, the single input
the analysis layer (and therefore every figure and table) works from.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..netsim.address import IPv4Prefix
from ..netsim.network import UdpNetwork
from ..netsim.telescope import Telescope
from ..quic.server import FlightCacheInfo, FlightPlanCache
from ..scenarios import BASELINE, ScenarioSpec
from ..webpki.deployment import DomainDeployment
from ..webpki.population import (
    InternetPopulation,
    PopulationConfig,
    build_meta_point_of_presence,
    build_network_for,
    generate_population,
)
from .backscatter import BackscatterAnalyzer, simulate_spoofed_campaign
from .columnar import resolve_scan_backend
from .quicreach import DEFAULT_ANALYSIS_INITIAL_SIZE
from .sharding import (
    DEFAULT_SHARD_SIZE,
    build_shard_tasks,
    dispatch_with_retry,
    effective_analysis,
)
from .streaming import (
    CampaignReducer,
    META_SERVICE_DOMAINS,
    ReducedCampaignResults,
    ReductionSpec,
    _scan_and_summarize,
    provider_of_domain,
    run_streaming_grid_scan,
    run_streaming_scan,
)
from .zmap import ZmapProbeResult, ZmapScanner

#: Dark prefix used by the simulated telescope.
TELESCOPE_PREFIX = IPv4Prefix.parse("198.51.100.0/24")

#: The Meta point-of-presence prefix probed in §4.3.
META_POP_PREFIX = IPv4Prefix.parse("157.240.20.0/24")

# META_SERVICE_DOMAINS lives in .streaming next to provider_of_domain (the
# shared provider lookup); re-exported here for its historical import site.
__all__ = ["MeasurementCampaign", "META_SERVICE_DOMAINS"]


class MeasurementCampaign:
    """Configures and runs the full measurement pipeline.

    ``run()`` takes one of two paths; both return a
    :class:`~repro.scanners.streaming.ReducedCampaignResults` and render the
    same report bytes:

    * **eager** (the default): the materialised population is cut into
      rank-contiguous shards shipped by value to ``workers`` processes (one
      unless given, so the default runs in this process), and each shard is
      scanned on the ``object`` backend unless another is given and reduced
      to a :class:`~repro.scanners.streaming.ShardSummary`;
    * **streamed** (``stream=True``): the population is regenerated shard by
      shard inside the workers, as a one-member grid of the campaign's own
      scenario (:mod:`repro.scanners.streaming`), and reduced the same way —
      at bounded parent memory, which is what makes 1M-domain campaigns
      practical.  Streaming regenerates from ``population_config``; passing
      a materialised ``population`` would defeat the point and is rejected.

    The telescope/ZMap stage (5) always runs in the parent process, over the
    spoof targets the reducer selected: it is cheap and identical either
    way.

    ``scenario`` runs the campaign under a what-if
    :class:`~repro.scenarios.ScenarioSpec`: the population config is derived
    through :meth:`~repro.scenarios.ScenarioSpec.population_config`, the
    scenario's analysis Initial size replaces the 1362-byte default, and the
    spec is attached to the results (reports stamp any non-identity
    scenario).  Equivalently, pass a ``population``/``population_config``
    already derived from a scenario — the campaign picks the embedded spec
    up.  The identity ``baseline-2022`` scenario is byte-for-byte the plain
    pipeline.
    """

    def __init__(
        self,
        population: Optional[InternetPopulation] = None,
        population_config: Optional[PopulationConfig] = None,
        run_sweep: bool = False,
        sweep_sample_size: Optional[int] = 2000,
        spoofed_targets_per_provider: int = 60,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        stream: bool = False,
        scenario: Optional[ScenarioSpec] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        retry_policy=None,
        fault_plan=None,
        scan_backend: Optional[str] = None,
        skeleton_cache_dir: Optional[str] = None,
    ) -> None:
        self.stream = stream
        #: Shard-scan implementation (see :mod:`repro.scanners.columnar`).
        #: An explicit value is validated eagerly; ``None`` stays ``None`` so
        #: only streamed runs consult the ``REPRO_SCAN_BACKEND`` environment
        #: knob (eager runs default to the object backend).
        self.scan_backend = (
            resolve_scan_backend(scan_backend) if scan_backend is not None else None
        )
        if (checkpoint_dir is not None or resume) and not stream:
            raise ValueError(
                "checkpoint/resume rides the streaming pipeline; pass stream=True"
            )
        if scenario is not None:
            if population is not None:
                # A scenario-less population and the identity scenario denote
                # the same pipeline, so only reject genuine mismatches.
                embedded = population.config.scenario
                if embedded != scenario and not (embedded is None and scenario.is_identity):
                    raise ValueError(
                        "population was generated for a different scenario; "
                        "generate it from scenario.population_config() or pass "
                        "population_config instead"
                    )
            else:
                # Derive (or re-derive) the config under the scenario; any
                # caller-supplied fractions and size/seed are kept as the base.
                population_config = scenario.population_config(base=population_config)
        #: Persistent skeleton-shard cache directory (see
        #: :mod:`repro.scanners.skeleton_store`).  Works on every path:
        #: streamed workers read their ranges through the store, and eager
        #: campaigns generate the population itself through it.
        self.skeleton_cache_dir = skeleton_cache_dir
        if stream:
            if population is not None:
                raise ValueError(
                    "stream=True regenerates shards from population_config; "
                    "pass population_config (or neither), not a materialised population"
                )
            self.population = None
            self.population_config = population_config or PopulationConfig()
        else:
            if population is not None:
                self.population = population
            elif skeleton_cache_dir is not None:
                from .skeleton_store import generate_population_cached, store_for

                self.population = generate_population_cached(
                    store_for(skeleton_cache_dir), population_config
                )
            else:
                self.population = generate_population(population_config)
            self.population_config = self.population.config
        #: The campaign's scenario: explicit argument, or whatever the
        #: population config embeds (``None`` means plain baseline).
        self.scenario = scenario if scenario is not None else self.population_config.scenario
        #: Client Initial size of the single-size analysis scan and the RFC
        #: 8879 offer of the scanning client (empty at baseline, like the
        #: paper's scanner) — the scan-side knobs a scenario turns.
        self.analysis_initial_size, self.analysis_compression = effective_analysis(
            self.scenario or BASELINE, DEFAULT_ANALYSIS_INITIAL_SIZE, ()
        )
        self.run_sweep = run_sweep
        self.sweep_sample_size = sweep_sample_size
        self.spoofed_targets_per_provider = spoofed_targets_per_provider
        self.workers = workers
        self.shard_size = shard_size
        #: Durability knobs, streamed runs only (see run_streaming_scan).
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    # -- pipeline ---------------------------------------------------------------

    def run(self) -> ReducedCampaignResults:
        if self.stream:
            return self._run_streaming()
        return self._run_eager_sharded()

    def _run_eager_sharded(self) -> ReducedCampaignResults:
        """Eager pipeline over the already-materialised population.

        The population is cut into shards whose tasks carry the deployments
        by value, each shard is scanned and reduced by
        :func:`~repro.scanners.streaming._scan_and_summarize` on the chosen
        backend (``object`` unless one is given), and the summaries are
        folded and finalised exactly like a streamed run — so the report is
        byte-identical to every other path and the return type is
        :class:`~repro.scanners.streaming.ReducedCampaignResults`.  Tasks
        also carry the population config, so the scenario fingerprint
        stamped into each summary matches this campaign's.
        """
        population = self.population
        workers = self.workers if self.workers is not None else 1
        if workers <= 0:
            raise ValueError("workers must be positive")
        spec = ReductionSpec(spoof_limit_per_provider=self.spoofed_targets_per_provider)
        tasks = build_shard_tasks(
            population.deployments,
            # An explicit zero passes through so plan_shards rejects it.
            shard_size=self.shard_size if self.shard_size is not None else DEFAULT_SHARD_SIZE,
            analysis_initial_size=self.analysis_initial_size,
            analysis_compression=self.analysis_compression,
            run_sweep=self.run_sweep,
            sweep_sample_size=self.sweep_sample_size,
            scan_backend=self.scan_backend or "object",
            population_config=population.config,
        )
        tasks_by_index = {task.index: task for task in tasks}
        reducer = CampaignReducer(spec=spec, run_sweep=self.run_sweep)

        def make_payload(index: int, attempt: int):
            return (tasks_by_index[index], spec, attempt, self.fault_plan)

        def on_result(index: int, summary, attempt: int = 0) -> None:
            reducer.add(summary)

        dispatch_with_retry(
            sorted(tasks_by_index),
            make_payload,
            _scan_and_summarize,
            workers if len(tasks) > 1 else 1,
            self.retry_policy,
            on_result,
        )
        return self.finalize_streaming(reducer.reduced_scan())

    def _run_streaming(self) -> ReducedCampaignResults:
        """Streaming pipeline: scan + reduce per shard, stage 5 in the parent."""
        config = self.population_config
        spec = ReductionSpec(spoof_limit_per_provider=self.spoofed_targets_per_provider)
        scan = run_streaming_scan(
            config,
            workers=self.workers if self.workers is not None else 1,
            shard_size=self.shard_size if self.shard_size is not None else DEFAULT_SHARD_SIZE,
            run_sweep=self.run_sweep,
            sweep_sample_size=self.sweep_sample_size,
            analysis_initial_size=self.analysis_initial_size,
            analysis_compression=self.analysis_compression,
            spec=spec,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            retry_policy=self.retry_policy,
            fault_plan=self.fault_plan,
            scan_backend=self.scan_backend,
            skeleton_cache_dir=self.skeleton_cache_dir,
        )
        return self.finalize_streaming(scan)

    def finalize_streaming(self, scan) -> ReducedCampaignResults:
        """Stage 5 + result assembly over already-reduced stages 1–4.

        Public seam for callers that drive the shard loop themselves — the
        phase profiler (``scripts/profile_campaign.py --phases``) and, later,
        checkpoint/resume from persisted ``ShardSummary`` sets.  The
        reduction's scenario fingerprint must match this campaign's: a
        persisted what-if reduction finalised under the wrong (or no)
        scenario would render a silently mislabeled report.
        """
        config = self.population_config
        expected = (self.scenario or BASELINE).fingerprint()
        if scan.scenario_fingerprint != expected:
            raise ValueError(
                "reduction was scanned under a different scenario than this "
                f"campaign ({scan.scenario_fingerprint[:12]} vs {expected[:12]}); "
                "construct the campaign from the same scenario's population config"
            )

        # Stage 5 over a mini-fabric of just the reduced spoof-target
        # deployments: `probe_unvalidated` depends only on the probed host, so
        # the backscatter and cache counters equal a full-fabric run.
        stage5_cache = FlightPlanCache()
        network = build_network_for(scan.spoof_deployments, flight_cache=stage5_cache)
        spoof_by_domain = {d.domain: d for d in scan.spoof_deployments}

        def provider_of(domain: str) -> Optional[str]:
            return provider_of_domain(domain, spoof_by_domain.get)

        backscatter, meta_probe_before, meta_probe_after = (
            self._run_incomplete_handshake_stage(
                network,
                flight_cache=stage5_cache,
                spoof_deployments=scan.spoof_deployments,
                provider_of=provider_of,
            )
        )

        stage5_info = stage5_cache.cache_info()
        flight_cache = FlightCacheInfo(
            hits=scan.flight_cache.hits + stage5_info.hits,
            misses=scan.flight_cache.misses + stage5_info.misses,
            currsize=scan.flight_cache.currsize + stage5_info.currsize,
            maxsize=max(scan.flight_cache.maxsize, stage5_info.maxsize),
        )

        return ReducedCampaignResults(
            scan=scan,
            population_size=config.size,
            backscatter=backscatter,
            meta_probe_before=meta_probe_before,
            meta_probe_after=meta_probe_after,
            analysis_initial_size=self.analysis_initial_size,
            flight_cache=flight_cache,
            scenario=self.scenario,
        )

    def _run_incomplete_handshake_stage(
        self,
        network: UdpNetwork,
        flight_cache: FlightPlanCache,
        spoof_deployments: Sequence[DomainDeployment],
        provider_of: Callable[[str], Optional[str]],
    ):
        """Stage 5: spoofed-source campaign plus the Meta PoP probes."""
        # 5a. Spoofed handshakes observed at the telescope.
        telescope = Telescope()
        network.attach_telescope(TELESCOPE_PREFIX, telescope)
        spoof_targets = self._spoof_targets(network, spoof_deployments)
        simulate_spoofed_campaign(network, spoof_targets, TELESCOPE_PREFIX)
        analyzer = BackscatterAnalyzer(telescope, provider_of)
        backscatter = analyzer.analyze()

        # 5b. ZMap-style scan of the Meta point of presence, before and after
        # the responsible disclosure.
        meta_probe_before = self._probe_meta_pop(patched=False, flight_cache=flight_cache)
        meta_probe_after = self._probe_meta_pop(patched=True, flight_cache=flight_cache)
        return backscatter, meta_probe_before, meta_probe_after

    # -- helpers -----------------------------------------------------------------

    def _spoof_targets(
        self, network: UdpNetwork, spoof_deployments: Sequence[DomainDeployment]
    ) -> List:
        """Resolve spoof deployments to addresses and add the Meta PoP hosts.

        The Meta PoP hosts are always included so Meta backscatter is observed
        even when the sampled population contains few Meta-hosted domains.
        """
        targets = []
        for deployment in spoof_deployments:
            host = network.host_for_domain(deployment.domain)
            if host is not None:
                targets.append(host.address)
        for host in build_meta_point_of_presence(patched=False, prefix=META_POP_PREFIX):
            network.attach_host(host)
            targets.append(host.address)
        return targets

    def _probe_meta_pop(self, patched: bool, flight_cache=None) -> List[ZmapProbeResult]:
        network = UdpNetwork(flight_cache=flight_cache)
        for host in build_meta_point_of_presence(patched=patched, prefix=META_POP_PREFIX):
            network.attach_host(host)
        scanner = ZmapScanner(network)
        return scanner.probe_prefix(META_POP_PREFIX)


# ---------------------------------------------------------------------------
# Grid campaigns (cross-scenario shard reuse)
# ---------------------------------------------------------------------------

def run_grid_campaign(
    grid,
    config: Optional[PopulationConfig] = None,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    spoofed_targets_per_provider: int = 60,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retry_policy=None,
    fault_plan=None,
    scan_backend: Optional[str] = None,
    progress=None,
    skeleton_cache_dir: Optional[str] = None,
) -> Dict[str, ReducedCampaignResults]:
    """Run every scenario of a :class:`~repro.scenarios.grid.ScenarioGrid`
    over one shared generation pass and finalize each member.

    The amortized equivalent of N independent streamed
    :class:`MeasurementCampaign` runs: stages 1–4 go through
    :func:`~repro.scanners.streaming.run_streaming_grid_scan` (one skeleton
    pass per shard visit, N scans), then stage 5 finalizes per member under
    its own campaign — so every returned
    :class:`~repro.scanners.streaming.ReducedCampaignResults` is
    byte-identical to the one its independent ``--scenario`` run produces.
    Results are keyed by member name, in grid order.
    """
    config = config or PopulationConfig()
    if config.scenario is not None:
        raise ValueError(
            "grid campaigns take a scenario-free base config; member "
            "scenarios derive their own configs from it"
        )
    spec = ReductionSpec(spoof_limit_per_provider=spoofed_targets_per_provider)
    scans = run_streaming_grid_scan(
        config,
        grid,
        workers=workers if workers is not None else 1,
        shard_size=shard_size if shard_size is not None else DEFAULT_SHARD_SIZE,
        spec=spec,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        scan_backend=scan_backend,
        progress=progress,
        skeleton_cache_dir=skeleton_cache_dir,
    )
    results: Dict[str, ReducedCampaignResults] = {}
    for scenario in grid:
        campaign = MeasurementCampaign(
            population_config=scenario.population_config(base=config),
            stream=True,
            spoofed_targets_per_provider=spoofed_targets_per_provider,
        )
        results[scenario.name] = campaign.finalize_streaming(scans[scenario.name])
    return results
