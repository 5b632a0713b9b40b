"""Cluster assembly and program execution.

:class:`ClusterRuntime` is the one-stop entry point used by examples,
tests, and benchmarks::

    rt = ClusterRuntime.build(engine="pioman")      # paper testbed shape
    rt.spawn(0, sender_body)                         # Marcel thread on n0
    rt.spawn(1, receiver_body)
    rt.run()                                         # to completion

Thread bodies receive a :class:`repro.marcel.thread.ThreadContext` whose
``env`` carries ``nm`` (the node's :class:`repro.nmad.interface.NmInterface`)
and ``node`` (the node index).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..config import (
    DEFAULT_TIMING,
    EngineKind,
    NicModel,
    RdvConfig,
    TimingModel,
    ib_nic_model,
    tcp_nic_model,
)
from ..errors import HarnessError
from ..faults import FaultInjector, FaultPlan
from ..marcel.scheduler import MarcelScheduler
from ..marcel.thread import MarcelThread, Priority, ThreadContext
from ..network.fabric import Fabric
from ..network.nic import Nic
from ..network.shm import ShmChannel
from ..nmad.core import NmSession
from ..nmad.drivers import Driver, NicDriver, ShmDriver, TcpDriver
from ..nmad.interface import NmInterface
from ..nmad.progress import SequentialEngine
from ..nmad.rdv import RDV_STAT_KEYS
from ..nmad.reliability import ReliabilityLayer
from ..nmad.strategies import make_strategy
from ..obs import MetricsRegistry, TimeSeriesSampler
from ..pioman.engine import PiomanEngine
from ..sim.kernel import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import Tracer
from ..topology.builder import build_cluster
from ..topology.machine import Cluster
from ..topology.numa import NumaModel

__all__ = ["NodeRuntime", "ClusterRuntime"]

#: interconnect name -> (driver class, preset NIC model). MX (no preset)
#: runs on the caller's ``timing.nic``, whose defaults are MX's.
_INTERCONNECTS: dict[str, tuple[type[NicDriver], Optional[Callable[[], NicModel]]]] = {
    "mx": (NicDriver, None),
    "ib": (NicDriver, ib_nic_model),
    "tcp": (TcpDriver, tcp_nic_model),
}


@dataclass
class NodeRuntime:
    """Everything attached to one node."""

    index: int
    scheduler: MarcelScheduler
    session: NmSession
    engine: Any
    nm: NmInterface
    nics: list[Nic] = field(default_factory=list)
    shm: Optional[ShmChannel] = None
    #: every driver attached to this node's gates (rails first, shm last)
    drivers: list[Any] = field(default_factory=list)


class ClusterRuntime:
    """A fully wired simulated platform."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        nodes: list[NodeRuntime],
        timing: TimingModel,
        tracer: Optional[Tracer],
        rng: RngStreams,
        engine_kind: str,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.nodes = nodes
        self.timing = timing
        self.tracer = tracer
        self.rng = rng
        self.engine_kind = engine_kind
        #: every fabric (one per rail)
        self.fabrics: list[Fabric] = []
        #: shared fault injector when the platform was built with a plan
        self.fault_injector: Optional[FaultInjector] = None
        #: unified metrics (see ``repro.obs``); ``build`` replaces this with
        #: an enabled registry unless metrics are switched off
        self.metrics_registry = MetricsRegistry(enabled=False)
        #: sim-clock sampler, attached when ``timing.obs.sample_interval_us > 0``
        self.sampler: Optional[TimeSeriesSampler] = None
        #: (session, callback) pairs to detach in :meth:`close`
        self._metric_hooks: list[tuple[NmSession, Any]] = []

    # ------------------------------------------------------------------- build

    @classmethod
    def build(
        cls,
        engine: str = EngineKind.PIOMAN,
        nodes: int = 2,
        sockets: int = 2,
        cores_per_socket: int = 4,
        timing: Optional[TimingModel] = None,
        strategy: str = "default",
        strategy_kwargs: Optional[dict[str, Any]] = None,
        rails: int = 1,
        interconnect: str = "mx",
        numa: Optional[NumaModel] = None,
        tracer: Optional[Tracer] = None,
        seed: int = 0,
        offload_policy: Optional[str] = None,
        ingress_contention: bool = False,
        faults: Optional[FaultPlan] = None,
        recover: bool = True,
        metrics: Optional[bool] = None,
        rdv: Optional[RdvConfig] = None,
    ) -> "ClusterRuntime":
        """Assemble a cluster.

        Parameters mirror the paper's setup: the defaults are the §4
        testbed (2 nodes × 8 cores, MX-like interconnect). ``engine``
        selects the progression engine; ``rails > 1`` attaches several
        NICs per node (multirail); ``interconnect`` is ``"mx"``, ``"ib"``
        or ``"tcp"``, and its NIC model prices the wire, buffer
        registration and PIOMan's blocking-detection interrupt. MX runs
        on ``timing.nic``; IB and TCP run on their presets
        (:func:`repro.config.ib_nic_model`, :func:`repro.config.tcp_nic_model`)
        and refuse any other ``timing.nic`` than the default.

        ``faults`` installs a :class:`repro.faults.FaultPlan` on every
        fabric (one shared injector, so ``every_nth`` counts cluster-wide
        packets). With ``recover=True`` (default) the sessions' ack/
        retransmit layer is switched on alongside; ``recover=False`` leaves
        the protocols lossless-naive — messages hit by the plan are simply
        lost, which is exactly what the degradation benchmarks compare
        against.

        ``metrics`` overrides ``timing.obs.enabled`` (None = follow the
        config, default on). Metrics never consume simulated time, so
        enabling them cannot change a run's trace signature; sampling
        starts when ``timing.obs.sample_interval_us > 0``.

        ``rdv`` overrides ``timing.rdv`` — shorthand for enabling the
        chunked/striped rendezvous data phase (see
        :class:`repro.config.RdvConfig` and ``docs/rdv.md``).

        ``ingress_contention=True`` serializes arrivals per destination
        node at wire rate on every fabric (the switch egress-port rule, see
        :class:`repro.network.fabric.Fabric`); off, the wire is the paper's
        contention-free point-to-point link.
        """
        EngineKind.validate(engine)
        if rails < 1:
            raise HarnessError(f"rails must be >= 1, got {rails}")
        if interconnect not in _INTERCONNECTS:
            raise HarnessError(f"interconnect must be mx, ib or tcp, got {interconnect!r}")
        if offload_policy is not None:
            if engine != EngineKind.PIOMAN:
                raise HarnessError("offload_policy only applies to the pioman engine")
            modes = ("adaptive", "always", "never")
            if offload_policy not in modes:
                raise HarnessError(
                    f"unknown offload policy {offload_policy!r}; expected one of {list(modes)}"
                )
        timing = timing or TimingModel()
        if rdv is not None:
            timing = timing.replace(rdv=rdv)
        if faults is not None and recover and not timing.faults.enabled:
            timing = dataclasses.replace(
                timing, faults=dataclasses.replace(timing.faults, enabled=True)
            )
        driver_cls, preset = _INTERCONNECTS[interconnect]
        if preset is not None:
            nic_model = preset()
            if timing.nic not in (DEFAULT_TIMING.nic, nic_model):
                raise HarnessError(
                    f"interconnect {interconnect!r} runs on {preset.__name__}(); "
                    f"timing.nic must be that preset or the default MX model, got {timing.nic!r}"
                )
            timing = timing.replace(nic=nic_model)
        sim = Simulator(trace=tracer)
        rng = RngStreams(seed)
        cluster = build_cluster(
            nodes=nodes,
            sockets=sockets,
            cores_per_socket=cores_per_socket,
            interconnect=interconnect,
        )
        # fabrics: one per rail
        fabrics = [
            Fabric(
                sim,
                name=f"{interconnect}{r}",
                ingress_contention=ingress_contention,
            )
            for r in range(rails)
        ]
        injector: Optional[FaultInjector] = None
        if faults is not None:
            injector = FaultInjector(faults)
            for fabric in fabrics:
                fabric.set_injector(injector)
        node_rts: list[NodeRuntime] = []
        per_node_nics: list[list[Nic]] = []
        for node in cluster.nodes:
            nics = [Nic(sim, node.index, timing.nic, fabrics[r]) for r in range(rails)]
            for r, nic in enumerate(nics):
                fabrics[r].attach(nic)
            per_node_nics.append(nics)
        for node in cluster.nodes:
            scheduler = MarcelScheduler(sim, node, timing, tracer)
            session = NmSession(sim, scheduler, node, timing, numa, tracer)
            nics = per_node_nics[node.index]
            drivers: list[Driver] = [driver_cls(nic, timing.host) for nic in nics]
            shm = ShmChannel(sim, node.index, timing.shm)
            shm_driver = ShmDriver(shm, timing.host)
            if engine == EngineKind.PIOMAN:
                eng: Any = PiomanEngine(session, offload_policy or "always")
            else:
                eng = SequentialEngine(session)
            skw = dict(strategy_kwargs or {})
            for peer in range(nodes):
                if peer == node.index:
                    session.add_gate(peer, [shm_driver], make_strategy("default"))
                else:
                    session.add_gate(peer, list(drivers), make_strategy(strategy, **skw))
            nm = NmInterface(session, eng)
            node_rts.append(
                NodeRuntime(
                    index=node.index,
                    scheduler=scheduler,
                    session=session,
                    engine=eng,
                    nm=nm,
                    nics=nics,
                    shm=shm,
                    drivers=[*drivers, shm_driver],
                )
            )
        rt = cls(sim, cluster, node_rts, timing, tracer, rng, engine)
        rt.fabrics = fabrics
        rt.fault_injector = injector
        obs = timing.obs
        enabled = obs.enabled if metrics is None else metrics
        rt.metrics_registry = MetricsRegistry(enabled=enabled)
        if enabled and obs.sample_interval_us > 0:
            rt.sampler = TimeSeriesSampler(
                sim, rt.metrics_registry, obs.sample_interval_us, obs.max_samples
            )
        rt._wire_metrics()
        return rt

    # ------------------------------------------------------------------- metrics

    def _wire_metrics(self) -> None:
        """Route every pre-existing ad-hoc statistic through the registry.

        Pull model: collectors read the live counters at snapshot/sample
        time, so no increment site is rewritten and a disabled registry
        costs nothing. The only push-style instruments are the per-node
        request-latency histograms, fed by ``on_request_complete`` hooks
        (pure Python mutation — zero simulated time).
        """
        reg = self.metrics_registry
        if not reg.enabled:
            return
        sim = self.sim
        reg.register_collector(
            "sim",
            lambda: {
                "time_us": sim.now,
                "events_fired": sim.events_fired,
                "chain_boundaries": sim.chain_boundaries,
                "chain_batches": sim.chain_batches,
                "run_aheads": sim.run_aheads,
            },
        )
        if self.fault_injector is not None:
            reg.register_collector("faults", self.fault_injector.stats)
        # per-fabric lane: carried totals plus the per-port link sub-lane
        # (fabric.<name>.link.fabric>h<node>.{frames,bytes,queued_us,busy_us,util})
        for fabric in self.fabrics:
            reg.register_collector(f"fabric.{fabric.name}", fabric.metrics)
        rel_keys = frozenset(ReliabilityLayer.STAT_KEYS)
        rdv_keys = frozenset(RDV_STAT_KEYS)
        for nrt in self.nodes:
            n = f"n{nrt.index}"
            session = nrt.session
            reg.register_collector(
                f"{n}.session",
                lambda s=session: {
                    k: v for k, v in s.stats.items() if k not in rel_keys and k not in rdv_keys
                },
            )
            reg.register_collector(
                f"{n}.reliability",
                lambda s=session: {k: s.stats.get(k, 0) for k in rel_keys},
            )
            # rendezvous data-phase lane: n{i}.rdv.chunks_sent etc. (the
            # rdv_ prefix is redundant under the rdv collector name)
            reg.register_collector(
                f"{n}.rdv",
                lambda s=session: {
                    k.removeprefix("rdv_"): s.stats.get(k, 0)
                    for k in RDV_STAT_KEYS
                },
            )
            reg.register_collector(
                f"{n}.scheduler",
                lambda sch=nrt.scheduler: ClusterRuntime._scheduler_metrics(sch),
            )
            if isinstance(nrt.engine, PiomanEngine):
                reg.register_collector(
                    f"{n}.pioman",
                    lambda e=nrt.engine: {
                        "idle_activations": e.idle_activations,
                        "tick_activations": e.tick_activations,
                        "switch_activations": e.switch_activations,
                        "kicks": e.kicks,
                        "offloaded_ops": e.offloaded_ops,
                    },
                )
            # aggregation-optimizer lane, summed over this node's gates
            # running the aggreg strategy (n{i}.aggreg.*)
            reg.register_collector(
                f"{n}.aggreg", lambda s=session: ClusterRuntime._aggreg_metrics(s)
            )
            seen_names: dict[str, int] = {}
            for drv in nrt.drivers:
                k = seen_names.get(drv.name, 0)
                seen_names[drv.name] = k + 1
                reg.register_collector(f"{n}.driver.{drv.name}{k}", drv.stats)
            send_h = reg.histogram(f"{n}.latency.send_us")
            recv_h = reg.histogram(f"{n}.latency.recv_us")

            def _observe_latency(req, sh=send_h, rh=recv_h):
                (sh if req.kind == "send" else rh).observe(req.latency())

            session.on_request_complete.append(_observe_latency)
            self._metric_hooks.append((session, _observe_latency))

    @staticmethod
    def _aggreg_metrics(session: NmSession) -> dict[str, int]:
        """Aggregation-strategy counters summed across a session's gates."""
        out = {
            "aggregated_requests": 0,
            "flushes": 0,
            "packets_formed": 0,
            "windows_opened": 0,
            "window_timer_flushes": 0,
            "pending": 0,
        }
        for gate in session.gates.values():
            st = gate.strategy
            if st.name != "aggreg":
                continue
            out["aggregated_requests"] += st.aggregated_requests  # type: ignore[attr-defined]
            out["flushes"] += st.flushes
            out["packets_formed"] += st.packets_formed
            out["windows_opened"] += st.windows_opened  # type: ignore[attr-defined]
            out["window_timer_flushes"] += st.window_timer_flushes  # type: ignore[attr-defined]
            out["pending"] += st.pending_count()
        out["windows_open"] = len(session.windowed_gates)
        return out

    @staticmethod
    def _scheduler_metrics(scheduler: MarcelScheduler) -> dict[str, Any]:
        out: dict[str, Any] = dict(scheduler.stats())
        for core in scheduler.cores:
            tl = core.timeline
            out[f"c{core.index}.busy_us"] = tl.busy_us
            out[f"c{core.index}.service_us"] = tl.service_us
            out[f"c{core.index}.idle_us"] = tl.idle_us
        return out

    def metrics(self) -> dict[str, Any]:
        """Flat, key-sorted snapshot of the unified metrics registry
        (empty when metrics are disabled)."""
        return self.metrics_registry.snapshot()

    # ------------------------------------------------------------------- running

    def spawn(
        self,
        node: int,
        body: Callable[[ThreadContext], Generator[Any, Any, Any]],
        name: str = "",
        core_index: Optional[int] = None,
        priority: int = Priority.NORMAL,
        migratable: bool = True,
        env: Optional[dict[str, Any]] = None,
    ) -> MarcelThread:
        """Spawn a Marcel thread on ``node``; its ctx.env gets ``nm``/``node``."""
        nrt = self.node(node)
        merged = {"nm": nrt.nm, "node": node, "runtime": self}
        if env:
            merged.update(env)
        return nrt.scheduler.spawn(
            body,
            name=name,
            core_index=core_index,
            priority=priority,
            migratable=migratable,
            env=merged,
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation; returns final virtual time (µs)."""
        return self.sim.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------ access

    def node(self, index: int) -> NodeRuntime:
        try:
            return self.nodes[index]
        except IndexError:
            raise HarnessError(f"no node {index} (cluster has {len(self.nodes)})") from None

    def interface(self, node: int) -> NmInterface:
        return self.node(node).nm

    def total_stats(self) -> dict[str, Any]:
        """Cluster-wide statistics for reports."""
        out: dict[str, Any] = {"engine": self.engine_kind, "time_us": self.sim.now}
        for nrt in self.nodes:
            out[f"n{nrt.index}.sched"] = nrt.scheduler.stats()
            out[f"n{nrt.index}.session"] = dict(nrt.session.stats)
        if self.fault_injector is not None:
            out["faults"] = self.fault_injector.stats()
        return out

    def recovery_stats(self) -> dict[str, int]:
        """Cluster-wide ack/retransmit counters (zeros when recovery off)."""
        totals = {key: 0 for key in ReliabilityLayer.STAT_KEYS}
        for nrt in self.nodes:
            for key in totals:
                totals[key] += nrt.session.stats.get(key, 0)
        return totals

    def close(self) -> None:
        """Tear down engines and metrics hooks: deregister every scheduler
        trigger and completion listener. Call when a runtime is discarded
        but its sessions, scheduler, or simulator objects stay reachable
        (engine-comparison harnesses); idempotent.

        It also breaks the reference cycles between the layers (device
        listeners, the NIC-fabric link, the session's protocol engines and
        queued ops, the simulator's pending callbacks and probes), so a
        dropped runtime is freed by reference counting, not by the cycle
        collector; statistics and metrics stay readable. A closed runtime
        does not run again."""
        for nrt in self.nodes:
            nrt.engine.close()
            nrt.session.close()
            for nic in nrt.nics:
                nic.detach()
            nrt.shm.detach()
        for session, cb in self._metric_hooks:
            try:
                session.on_request_complete.remove(cb)
            except ValueError:
                pass
        self._metric_hooks.clear()
        if self.sampler is not None:
            self.sampler.detach()
        self.sim.close()
