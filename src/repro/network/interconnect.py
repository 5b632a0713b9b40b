"""Pluggable interconnect models: topology, routing, per-link contention.

The fabric used to hard-wire delivery timing — a contention-free
point-to-point wire, which is fine for the paper's 2-node Myri-10G testbed
where the switch is never the bottleneck. This module extracts that timing
decision into an **interconnect model**: a :class:`Topology` maps a
``(src, dst)`` node pair to an ordered path of directed :class:`Link`\\ s,
and the generic traversal engine charges per-hop latency and
store-and-forward drain along that path. With ``contention=True`` every
link additionally owns a *busy-until cursor*: a frame's drain on a link
cannot start before the previous frame finished draining, so frames queue
at the bottleneck hop — the generalization of the old per-destination
``ingress_contention`` egress-port special case.

Three topologies ship:

* :class:`Direct` — the seed model: one logical egress port per
  destination node, latency/bandwidth taken from the injecting NIC. With
  contention off it reproduces the pre-refactor ``Fabric.transmit``
  arithmetic **byte-for-byte** (the trace-compat golden guard pins this);
  with contention on it is exactly the old ``ingress_contention`` rule.
* :class:`FatTree` — a ``k``-ary fat-tree (k pods of k/2 edge + k/2 agg
  switches, (k/2)² cores, k³/4 hosts) with deterministic D-mod-k style
  routing.
* :class:`Dragonfly` — the canonical ``(a, p, h)`` dragonfly (groups of
  ``a`` routers × ``p`` hosts × ``h`` global links each, ``a·h + 1``
  fully-connected groups) with minimal routing.

Naming note: this module is ``repro.network.interconnect`` — *not*
"topology" — because :mod:`repro.topology` already names the intra-node
NUMA machine model (sockets, cores, memory domains). "Interconnect" is
the inter-node wire structure; the two are orthogonal layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import ConfigError, RouteError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import InterconnectConfig
    from .fabric import Fabric
    from .message import Packet
    from .nic import Nic

__all__ = [
    "Link",
    "Topology",
    "Direct",
    "FatTree",
    "Dragonfly",
    "make_topology",
    "topology_from_config",
    "TOPOLOGY_KINDS",
]

TOPOLOGY_KINDS = ("direct", "fattree", "dragonfly")


class Link:
    """One directed link of an interconnect model.

    ``latency_us``/``bw`` of ``None`` mean "inherit from the injecting
    NIC's model" — used by injection links so every frame still pays at
    least the NIC wire latency, and by :class:`Direct` to reproduce the
    seed timing with heterogeneous NIC models on one fabric.

    ``free_at`` is the contention cursor: the virtual time until which the
    link is still draining an earlier frame. The traversal engine only
    consults and advances it when the owning topology runs with
    ``contention=True``.
    """

    __slots__ = (
        "name",
        "u",
        "v",
        "latency_us",
        "bw",
        "free_at",
        "frames",
        "bytes",
        "queued_us",
        "busy_us",
    )

    def __init__(
        self,
        name: str,
        u: str,
        v: str,
        latency_us: Optional[float] = None,
        bw: Optional[float] = None,
    ) -> None:
        self.name = name
        self.u = u
        self.v = v
        self.latency_us = latency_us
        self.bw = bw
        self.free_at = 0.0
        self.frames = 0
        self.bytes = 0
        self.queued_us = 0.0
        self.busy_us = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} frames={self.frames} queued={self.queued_us:.1f}µs>"


class Topology:
    """Base interconnect model: routing plus the generic traversal engine.

    Subclasses implement :meth:`_build_path` (and optionally override
    :meth:`delivery_delay` — :class:`Direct` does, to keep the seed
    floating-point arithmetic bit-exact). One topology instance belongs to
    exactly one fabric: link cursors are per-fabric state, so multirail
    runs build one instance per rail.
    """

    kind: str = "abstract"

    def __init__(self, contention: bool = False) -> None:
        self.contention = bool(contention)
        self._links: dict[str, Link] = {}
        self._paths: dict[tuple[int, int], tuple[Link, ...]] = {}

    # -- structure ---------------------------------------------------------------

    def capacity(self) -> Optional[int]:
        """Maximum number of attachable hosts (None = unbounded)."""
        return None

    def validate_node(self, node_index: int) -> None:
        """Reject attachment of a node the topology cannot place."""
        cap = self.capacity()
        if node_index < 0:
            raise RouteError(f"negative node index {node_index}")
        if cap is not None and node_index >= cap:
            raise RouteError(
                f"node n{node_index} exceeds {self.kind} capacity of {cap} hosts"
            )

    def _link(
        self,
        u: str,
        v: str,
        latency_us: Optional[float],
        bw: Optional[float],
    ) -> Link:
        """Get-or-create the directed link ``u -> v``."""
        name = f"{u}>{v}"
        link = self._links.get(name)
        if link is None:
            link = Link(name, u, v, latency_us, bw)
            self._links[name] = link
        return link

    def path(self, src: int, dst: int) -> tuple[Link, ...]:
        """Ordered links a frame traverses from host ``src`` to ``dst``."""
        if src == dst:
            raise RouteError(f"{self.kind} loopback h{src}; use the shm channel")
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is None:
            cached = self._build_path(src, dst)
            self._paths[key] = cached
        return cached

    def _build_path(self, src: int, dst: int) -> tuple[Link, ...]:
        raise NotImplementedError

    def links(self) -> list[Link]:
        """Every link created so far, sorted by name (stable for reports)."""
        return [self._links[name] for name in sorted(self._links)]

    # -- timing ------------------------------------------------------------------

    def delivery_delay(
        self,
        fabric: "Fabric",
        src_nic: "Nic",
        packet: "Packet",
        tx_time: float,
        extra_delay_us: float,
        trail: int = 0,
    ) -> float:
        """Delay (relative to ``fabric.sim.now``) until ``packet`` arrives.

        ``tx_time`` is when the first byte leaves the source NIC (relative
        to now); ``extra_delay_us`` is fault-injected latency. ``trail``
        marks fault-injected duplicates: duplicate ``i`` enters the wire
        ``i`` injection-drain times behind the original, and traverses the
        same serialization path (consulting and advancing every cursor),
        so a duplicate can never overlap another frame on a contended
        link.

        Store-and-forward per hop: the head of the frame pays the link
        latency, then the drain may start only once the link is free (when
        contention is on); the link is busy until the drain completes.
        """
        model = src_nic.model
        size = packet.wire_size()
        sim = fabric.sim
        inj_drain = size / model.wire_bw
        t = sim.now + tx_time + extra_delay_us + trail * inj_drain
        contention = self.contention
        for link in self.path(packet.src_node, packet.dst_node):
            lat = model.wire_latency_us if link.latency_us is None else link.latency_us
            bw = model.wire_bw if link.bw is None else link.bw
            drain = size / bw
            ready = t + lat
            if contention and link.free_at > ready:
                link.queued_us += link.free_at - ready
                start = link.free_at
            else:
                start = ready
            done = start + drain
            if contention:
                link.free_at = done
            link.frames += 1
            link.bytes += size
            link.busy_us += drain
            t = done
        return t - sim.now

    # -- observability -----------------------------------------------------------

    def queued_us(self) -> float:
        """Total time frames spent queued behind busy links."""
        return sum(link.queued_us for link in self._links.values())

    def link_stats(self, now: float) -> dict[str, float]:
        """Flat per-link lane for the metrics registry (``link.<name>.*``).

        ``util`` is cumulative drain time over elapsed virtual time — the
        classic offered-load utilization of the link.
        """
        out: dict[str, float] = {}
        for link in self.links():
            prefix = f"link.{link.name}"
            out[f"{prefix}.frames"] = float(link.frames)
            out[f"{prefix}.bytes"] = float(link.bytes)
            out[f"{prefix}.queued_us"] = link.queued_us
            out[f"{prefix}.busy_us"] = link.busy_us
            out[f"{prefix}.util"] = link.busy_us / now if now > 0 else 0.0
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} contention={self.contention} links={len(self._links)}>"


class Direct(Topology):
    """The seed fabric model: one egress port per destination node.

    Timing is exactly the pre-refactor ``Fabric.transmit``:

    * contention off (default) — arrival at
      ``tx_time + nic.wire_latency_us + size/nic.wire_bw`` (+ fault
      delay), computed with the identical floating-point operation order
      so existing traces stay byte-for-byte identical;
    * contention on — the old ``ingress_contention`` rule: arrivals
      serialize per destination node at wire rate (the egress-port model),
      with duplicates now routed through the same cursor (the overlap
      bugfix this refactor ships).
    """

    kind = "direct"

    def _egress(self, dst: int) -> Link:
        return self._link("fabric", f"h{dst}", None, None)

    def _build_path(self, src: int, dst: int) -> tuple[Link, ...]:
        return (self._egress(dst),)

    def delivery_delay(
        self,
        fabric: "Fabric",
        src_nic: "Nic",
        packet: "Packet",
        tx_time: float,
        extra_delay_us: float,
        trail: int = 0,
    ) -> float:
        model = src_nic.model
        size = packet.wire_size()
        drain = size / model.wire_bw
        delay = tx_time + model.wire_latency_us + drain
        delay += extra_delay_us
        if trail:
            delay += trail * drain
        link = self._egress(packet.dst_node)
        if self.contention:
            sim = fabric.sim
            arrival = sim.now + delay
            if link.free_at > arrival - drain:
                # the egress port is still transmitting an earlier frame:
                # this one queues behind it
                queued = link.free_at - (arrival - drain)
                link.queued_us += queued
                arrival += queued
            link.free_at = arrival
            delay = arrival - sim.now
        link.frames += 1
        link.bytes += size
        link.busy_us += drain
        return delay


class FatTree(Topology):
    """``k``-ary fat-tree (Al-Fares et al.): k³/4 hosts.

    Structure: ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation
    switches; ``(k/2)²`` core switches; every edge switch serves ``k/2``
    hosts. Host indices are assigned pod-major.

    Routing is deterministic (required for reproducible traces): the
    up-path aggregation switch is ``dst % (k/2)`` and the core switch is
    ``agg·(k/2) + (src + dst) % (k/2)`` — a D-mod-k flavour that spreads
    flows while keeping the route a pure function of the pair.

    Injection links (host→edge) inherit the NIC latency/bandwidth; every
    switch hop pays ``hop_latency_us`` and drains at ``link_bw`` (None =
    NIC wire bandwidth).
    """

    kind = "fattree"

    def __init__(
        self,
        k: int = 4,
        *,
        hop_latency_us: float = 0.3,
        link_bw: Optional[float] = None,
        contention: bool = False,
    ) -> None:
        super().__init__(contention=contention)
        if k < 2 or k % 2:
            raise ConfigError(f"fat-tree arity k must be even and >= 2, got {k}")
        if hop_latency_us < 0:
            raise ConfigError(f"hop_latency_us must be >= 0, got {hop_latency_us}")
        if link_bw is not None and link_bw <= 0:
            raise ConfigError(f"link_bw must be > 0, got {link_bw}")
        self.k = k
        self.hop_latency_us = hop_latency_us
        self.link_bw = link_bw

    def capacity(self) -> int:
        return (self.k**3) // 4

    def _hop(self, u: str, v: str) -> Link:
        return self._link(u, v, self.hop_latency_us, self.link_bw)

    def _build_path(self, src: int, dst: int) -> tuple[Link, ...]:
        if src == dst:
            raise RouteError(f"fat-tree loopback h{src}")
        for h in (src, dst):
            self.validate_node(h)
        half = self.k // 2
        hosts_per_pod = half * half
        pod_s, pod_d = src // hosts_per_pod, dst // hosts_per_pod
        e_s = (src % hosts_per_pod) // half
        e_d = (dst % hosts_per_pod) // half
        edge_s = f"p{pod_s}e{e_s}"
        edge_d = f"p{pod_d}e{e_d}"
        hops = [self._link(f"h{src}", edge_s, None, None)]  # injection
        if (pod_s, e_s) != (pod_d, e_d):
            a = dst % half
            if pod_s == pod_d:
                agg = f"p{pod_s}a{a}"
                hops.append(self._hop(edge_s, agg))
                hops.append(self._hop(agg, edge_d))
            else:
                core = a * half + (src + dst) % half
                hops.append(self._hop(edge_s, f"p{pod_s}a{a}"))
                hops.append(self._hop(f"p{pod_s}a{a}", f"c{core}"))
                hops.append(self._hop(f"c{core}", f"p{pod_d}a{a}"))
                hops.append(self._hop(f"p{pod_d}a{a}", edge_d))
        hops.append(self._hop(edge_d, f"h{dst}"))
        return tuple(hops)


class Dragonfly(Topology):
    """Canonical dragonfly ``(a, p, h)``: ``(a·h + 1)·a·p`` hosts.

    ``a`` routers per group, ``p`` hosts per router, ``h`` global links
    per router; ``a·h + 1`` groups give all-to-all group connectivity over
    exactly one global link per group pair. Minimal routing: local hop to
    the router owning the global link, the global hop, local hop to the
    destination router.

    Injection links inherit the NIC latency/bandwidth; intra-group hops
    pay ``local_latency_us``; the global hop pays ``global_latency_us``
    (optical long links are the expensive ones in the modern-interconnect
    cost structures this model calibrates against).
    """

    kind = "dragonfly"

    def __init__(
        self,
        a: int = 4,
        p: int = 2,
        h: int = 2,
        *,
        local_latency_us: float = 0.3,
        global_latency_us: float = 1.2,
        link_bw: Optional[float] = None,
        contention: bool = False,
    ) -> None:
        super().__init__(contention=contention)
        if a < 1 or p < 1 or h < 1:
            raise ConfigError(f"dragonfly a/p/h must all be >= 1, got ({a}, {p}, {h})")
        if local_latency_us < 0 or global_latency_us < 0:
            raise ConfigError("dragonfly hop latencies must be >= 0")
        if link_bw is not None and link_bw <= 0:
            raise ConfigError(f"link_bw must be > 0, got {link_bw}")
        self.a = a
        self.p = p
        self.h = h
        self.local_latency_us = local_latency_us
        self.global_latency_us = global_latency_us
        self.link_bw = link_bw

    @property
    def groups(self) -> int:
        return self.a * self.h + 1

    def capacity(self) -> int:
        return self.groups * self.a * self.p

    def _local(self, u: str, v: str) -> Link:
        return self._link(u, v, self.local_latency_us, self.link_bw)

    def _global_router(self, here: int, there: int) -> int:
        """Router index (within group ``here``) owning the link to ``there``."""
        idx = there if there < here else there - 1
        return idx // self.h

    def _build_path(self, src: int, dst: int) -> tuple[Link, ...]:
        if src == dst:
            raise RouteError(f"dragonfly loopback h{src}")
        for node in (src, dst):
            self.validate_node(node)
        per_group = self.a * self.p
        g_s, g_d = src // per_group, dst // per_group
        r_s = (src % per_group) // self.p
        r_d = (dst % per_group) // self.p
        rtr_s = f"g{g_s}r{r_s}"
        rtr_d = f"g{g_d}r{r_d}"
        hops = [self._link(f"h{src}", rtr_s, None, None)]  # injection
        if g_s == g_d:
            if r_s != r_d:
                hops.append(self._local(rtr_s, rtr_d))
        else:
            r_out = self._global_router(g_s, g_d)
            r_in = self._global_router(g_d, g_s)
            out_name = f"g{g_s}r{r_out}"
            in_name = f"g{g_d}r{r_in}"
            if r_s != r_out:
                hops.append(self._local(rtr_s, out_name))
            hops.append(
                self._link(out_name, in_name, self.global_latency_us, self.link_bw)
            )
            if r_in != r_d:
                hops.append(self._local(in_name, rtr_d))
        hops.append(self._local(rtr_d, f"h{dst}"))
        return tuple(hops)


def make_topology(
    spec: "str | Topology | None",
    *,
    contention: bool = False,
    fattree_k: int = 4,
    dragonfly_a: int = 4,
    dragonfly_p: int = 2,
    dragonfly_h: int = 2,
    hop_latency_us: float = 0.3,
    global_latency_us: float = 1.2,
    link_bw: Optional[float] = None,
) -> Topology:
    """Build a fresh :class:`Topology` from a spec.

    ``spec`` may be an existing instance (returned as-is — remember one
    instance carries per-fabric cursor state), ``None``/``"direct"``,
    ``"fattree"``, or ``"dragonfly"``. Arity parameters may ride inline:
    ``"fattree:8"`` and ``"dragonfly:4,2,2"`` override the keyword
    defaults.
    """
    if isinstance(spec, Topology):
        if contention:
            spec.contention = True
        return spec
    name, _, args = (spec or "direct").partition(":")
    name = name.strip().lower()
    if name == "direct":
        if args:
            raise ConfigError(f"direct topology takes no parameters, got {args!r}")
        return Direct(contention=contention)
    if name == "fattree":
        k = fattree_k
        if args:
            try:
                k = int(args)
            except ValueError:
                raise ConfigError(f"bad fat-tree arity {args!r} (want 'fattree:<k>')") from None
        return FatTree(
            k,
            hop_latency_us=hop_latency_us,
            link_bw=link_bw,
            contention=contention,
        )
    if name == "dragonfly":
        a, p, h = dragonfly_a, dragonfly_p, dragonfly_h
        if args:
            try:
                a, p, h = (int(part) for part in args.split(","))
            except ValueError:
                raise ConfigError(
                    f"bad dragonfly shape {args!r} (want 'dragonfly:<a>,<p>,<h>')"
                ) from None
        return Dragonfly(
            a,
            p,
            h,
            local_latency_us=hop_latency_us,
            global_latency_us=global_latency_us,
            link_bw=link_bw,
            contention=contention,
        )
    raise ConfigError(
        f"unknown interconnect topology {spec!r}; expected one of {TOPOLOGY_KINDS}"
    )


def topology_from_config(
    config: "InterconnectConfig", *, force_contention: bool = False
) -> Topology:
    """Fresh :class:`Topology` from a :class:`repro.config.InterconnectConfig`.

    Call once per fabric (rail): cursor state must not be shared. The
    harness's legacy ``ingress_contention=True`` flag arrives here as
    ``force_contention``.
    """
    return make_topology(
        config.topology,
        contention=config.contention or force_contention,
        fattree_k=config.fattree_k,
        dragonfly_a=config.dragonfly_a,
        dragonfly_p=config.dragonfly_p,
        dragonfly_h=config.dragonfly_h,
        hop_latency_us=config.hop_latency_us,
        global_latency_us=config.global_latency_us,
        link_bw=config.link_bw or None,
    )
