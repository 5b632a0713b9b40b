"""Configuration dataclasses for the simulated platform and engines.

All timing constants of the reproduction live here, in one place, so that
every benchmark/ablation can sweep them. Times are virtual microseconds,
sizes are bytes, bandwidths are bytes per microsecond (see :mod:`repro.units`
for converters).

The defaults are calibrated so that the three experiments of the paper
(§4.1 Fig. 5, §4.2 Fig. 6, §4.3 Table 1) reproduce the published *shapes*:
``sum(comm, compute)`` for the sequential baseline vs. ``max(comm, compute)``
for the PIOMan engine, a ≈2 µs offload overhead at the crossover, and a
13–14 % speedup for the convolution meta-application.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError
from .units import GiB_per_s, KiB

__all__ = [
    "HostModel",
    "NicModel",
    "ShmModel",
    "PiomanConfig",
    "MarcelConfig",
    "FaultConfig",
    "RdvConfig",
    "ObsConfig",
    "KernelConfig",
    "InterconnectConfig",
    "TimingModel",
    "EngineKind",
]


class EngineKind:
    """Progress-engine selector constants (string enum).

    ``SEQUENTIAL``
        The original, non-multithreaded NewMadeleine: communication
        progresses only on the application thread, inside library calls.
    ``PIOMAN``
        The paper's contribution: event-driven progression on idle cores via
        Marcel tasklets, with polling or blocking completion detection.
    """

    SEQUENTIAL = "sequential"
    PIOMAN = "pioman"

    ALL = (SEQUENTIAL, PIOMAN)

    @staticmethod
    def validate(kind: str) -> str:
        if kind not in EngineKind.ALL:
            raise ConfigError(
                f"unknown engine kind {kind!r}; expected one of {EngineKind.ALL}"
            )
        return kind


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class HostModel:
    """Per-core host CPU cost model.

    Attributes
    ----------
    memcpy_setup_us:
        Fixed cost of starting a memory copy (function call, cache warmup).
    memcpy_bw:
        Host memory copy bandwidth in bytes/µs (copies into the registered
        region on the eager send path are charged at this rate).
    context_switch_us:
        Cost of a Marcel context switch between user threads.
    thread_spawn_us:
        Cost of creating a Marcel thread.
    spinlock_us:
        Cost of one uncontended spinlock acquire+release pair; contended
        acquisitions additionally spin in virtual time.
    tasklet_local_us:
        Cost to schedule and dispatch a tasklet on the current core.
    tasklet_remote_us:
        Cost to schedule a tasklet on *another* core (inter-CPU signalling +
        cache-line transfer). §4.1 of the paper measures this as ≈2 µs.
    syscall_us:
        Cost of entering/leaving the kernel (used by the blocking detection
        method).
    wakeup_us:
        Cost of waking a blocked thread (scheduler requeue + migration).
    """

    memcpy_setup_us: float = 0.35
    #: 2008-era FSB Xeon copy into an uncached registered region — this is
    #: why §2.2 calls small-message submission "CPU-hungry": copying 32 KiB
    #: costs ≈ 40 µs ("up to several dozens of microseconds")
    memcpy_bw: float = GiB_per_s(0.75)
    context_switch_us: float = 0.6
    thread_spawn_us: float = 1.5
    spinlock_us: float = 0.04
    tasklet_local_us: float = 0.35
    tasklet_remote_us: float = 2.0
    syscall_us: float = 1.2
    wakeup_us: float = 0.8
    #: cost of registering a communication request (bookkeeping in isend/irecv)
    request_post_us: float = 0.2

    def __post_init__(self) -> None:
        _positive("memcpy_bw", self.memcpy_bw)
        for name in (
            "memcpy_setup_us",
            "context_switch_us",
            "thread_spawn_us",
            "spinlock_us",
            "tasklet_local_us",
            "tasklet_remote_us",
            "syscall_us",
            "wakeup_us",
            "request_post_us",
        ):
            _non_negative(name, getattr(self, name))

    def memcpy_us(self, nbytes: int) -> float:
        """Virtual time to copy ``nbytes`` on the host CPU."""
        if nbytes < 0:
            raise ConfigError(f"negative copy size: {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.memcpy_setup_us + nbytes / self.memcpy_bw


@dataclass(frozen=True)
class NicModel:
    """MX/Myri-10G-like NIC and wire cost model.

    The MX driver behaviour described in §2.2/§2.3 of the paper:

    * messages ≤ ``pio_threshold`` go through PIO (CPU writes the payload to
      the NIC — expensive per byte for the host CPU);
    * messages ≤ ``rdv_threshold`` are *eager*: the host copies the payload
      into a registered region (host memcpy) and the NIC DMAs it out;
    * larger messages use the zero-copy *rendezvous* protocol (RTS/CTS
      handshake, then DMA directly from the application buffer).
    """

    name: str = "mx"
    #: PIO cutover (bytes). MX uses ≈128 B.
    pio_threshold: int = 128
    #: Eager/rendezvous cutover (bytes). MX uses 32 KiB.
    rdv_threshold: int = KiB(32)
    #: One-way wire latency (first byte) in µs.
    wire_latency_us: float = 2.0
    #: Wire bandwidth in bytes/µs.
    wire_bw: float = GiB_per_s(1.0)
    #: Per-byte *CPU* cost of a PIO write, µs/byte (PIO is slow for the CPU).
    pio_byte_us: float = 0.008
    #: Fixed CPU cost of preparing any TX descriptor.
    tx_setup_us: float = 0.5
    #: Fixed CPU cost of initiating a DMA (ring doorbell, build descriptor).
    dma_setup_us: float = 0.4
    #: Fixed CPU cost on the receive side to consume a completion.
    rx_consume_us: float = 0.5
    #: CPU cost of one NIC poll (read event queue head).
    poll_us: float = 0.25
    #: Extra latency when completion is detected by the *blocking* method
    #: (interrupt + kernel thread wakeup), per §2.3 "significant overhead".
    interrupt_us: float = 6.0
    #: Cost to register (pin) memory for zero-copy, fixed + per-byte.
    reg_setup_us: float = 1.0
    reg_byte_us: float = 0.0002

    def __post_init__(self) -> None:
        _positive("wire_bw", self.wire_bw)
        if self.pio_threshold < 0 or self.rdv_threshold < 0:
            raise ConfigError("thresholds must be >= 0")
        if self.pio_threshold > self.rdv_threshold:
            raise ConfigError(
                f"pio_threshold ({self.pio_threshold}) must not exceed "
                f"rdv_threshold ({self.rdv_threshold})"
            )
        for name in (
            "wire_latency_us",
            "pio_byte_us",
            "tx_setup_us",
            "dma_setup_us",
            "rx_consume_us",
            "poll_us",
            "interrupt_us",
            "reg_setup_us",
            "reg_byte_us",
        ):
            _non_negative(name, getattr(self, name))

    def wire_us(self, nbytes: int) -> float:
        """One-way wire time for a packet of ``nbytes``."""
        if nbytes < 0:
            raise ConfigError(f"negative packet size: {nbytes}")
        return self.wire_latency_us + nbytes / self.wire_bw

    def registration_us(self, nbytes: int) -> float:
        """CPU time to pin ``nbytes`` of memory for zero-copy DMA."""
        if nbytes < 0:
            raise ConfigError(f"negative registration size: {nbytes}")
        return self.reg_setup_us + nbytes * self.reg_byte_us


@dataclass(frozen=True)
class ShmModel:
    """Intra-node shared-memory channel cost model (§4.3 meta-application)."""

    name: str = "shm"
    latency_us: float = 0.4
    bw: float = GiB_per_s(3.0)
    #: CPU cost to enqueue/dequeue a descriptor in the shared ring.
    ring_op_us: float = 0.15

    def __post_init__(self) -> None:
        _positive("bw", self.bw)
        _non_negative("latency_us", self.latency_us)
        _non_negative("ring_op_us", self.ring_op_us)

    def copy_us(self, nbytes: int) -> float:
        """CPU time to copy ``nbytes`` through the shared segment."""
        if nbytes < 0:
            raise ConfigError(f"negative copy size: {nbytes}")
        return self.latency_us + nbytes / self.bw


@dataclass(frozen=True)
class MarcelConfig:
    """Marcel scheduler configuration."""

    #: Preemption timer period (µs); tasklets also run at tick boundaries.
    timer_tick_us: float = 10.0
    #: Scheduling quantum for round-robin within a priority level.
    quantum_us: float = 20.0
    #: Idle loop: virtual time consumed per idle iteration when polling work.
    idle_poll_us: float = 0.25

    def __post_init__(self) -> None:
        _positive("timer_tick_us", self.timer_tick_us)
        _positive("quantum_us", self.quantum_us)
        _positive("idle_poll_us", self.idle_poll_us)


@dataclass(frozen=True)
class PiomanConfig:
    """PIOMan event-manager configuration."""

    #: Period at which busy cores still give PIOMan a chance (via the Marcel
    #: timer trigger).
    timer_trigger: bool = True
    #: Run PIOMan at context-switch points.
    ctx_switch_trigger: bool = True
    #: Use the blocking (kernel-thread) detection method when no core idles.
    allow_blocking_calls: bool = True
    #: Below this many idle cores the blocking method is preferred for
    #: long-lived waits (rendezvous data).
    blocking_idle_core_threshold: int = 1
    #: Maximum number of events processed per tasklet activation (bounds the
    #: time spent at one safe point).
    max_events_per_activation: int = 8

    def __post_init__(self) -> None:
        if self.blocking_idle_core_threshold < 0:
            raise ConfigError("blocking_idle_core_threshold must be >= 0")
        if self.max_events_per_activation <= 0:
            raise ConfigError("max_events_per_activation must be > 0")


@dataclass(frozen=True)
class FaultConfig:
    """Reliability/recovery configuration of the NewMadeleine layer.

    The paper assumes a lossless NIC (MX handles link-level reliability in
    firmware); this reproduction can instead run over a faulty fabric (see
    :mod:`repro.faults`), in which case the session layer provides recovery:
    per-packet sequence numbers, acknowledgements, retransmission with
    exponential backoff for the eager path, RTS retry for the rendezvous
    handshake, and degraded-link rerouting over alternate rails.
    ``docs/faults.md`` describes the model and how it departs from the
    paper's lossless assumption.
    """

    #: master switch: when False the session layer is exactly the paper's
    #: lossless protocol (no sequence numbers, no ACK traffic).
    enabled: bool = False
    #: time after submission without an ACK before the first retransmit.
    ack_timeout_us: float = 120.0
    #: retransmits per packet before the sender gives up on it.
    max_retries: int = 8
    #: exponential backoff factor applied to ``ack_timeout_us`` per retry.
    backoff_factor: float = 2.0
    #: time after an RTS without a CTS answer before the RTS is re-sent.
    rts_timeout_us: float = 300.0
    #: consecutive timeouts on one rail before it is marked degraded
    #: (rerouting to an alternate rail when the gate has one).
    degraded_threshold: int = 3
    #: how long a degraded rail is avoided before being probed again.
    degraded_restore_us: float = 2000.0
    #: quiet window (in multiples of ``ack_timeout_us``) after which the
    #: consecutive-timeout count of a rail decays to zero — sporadic
    #: timeouts spread over a long run then no longer trip
    #: ``degraded_threshold``. Must span the exponential-backoff gaps of a
    #: genuinely dead link (≥ ``backoff_factor ** degraded_threshold``).
    degraded_decay_factor: float = 8.0

    def __post_init__(self) -> None:
        _positive("ack_timeout_us", self.ack_timeout_us)
        _positive("rts_timeout_us", self.rts_timeout_us)
        _positive("degraded_restore_us", self.degraded_restore_us)
        _positive("degraded_decay_factor", self.degraded_decay_factor)
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )
        if self.degraded_threshold < 1:
            raise ConfigError(
                f"degraded_threshold must be >= 1, got {self.degraded_threshold}"
            )


@dataclass(frozen=True)
class RdvConfig:
    """Rendezvous data-phase pipelining/striping configuration.

    The paper's §2.3 sends the rendezvous payload as one zero-copy DATA
    transfer once the CTS arrives. This section optionally splits the data
    phase into pipeline *chunks* — registration of chunk *k+1* overlaps the
    DMA drain of chunk *k* — and *stripes* chunks across every healthy rail
    of the gate proportionally to rail bandwidth (the multirail trick the
    split strategy applies to eager traffic). Each chunk is tracked
    individually by the reliability layer, so a lost chunk retransmits
    alone. ``docs/rdv.md`` walks through the full pipeline.

    Defaults keep the seed behaviour byte-identical: ``chunk_bytes == 0``
    and ``adaptive == False`` mean a single DATA packet on one rail.
    """

    #: fixed pipeline chunk size in bytes; 0 = no chunking (single DATA
    #: packet on one rail, the paper's behaviour).
    chunk_bytes: int = 0
    #: size chunks from each rail's ``wire_bandwidth()`` instead of
    #: ``chunk_bytes``: a chunk is whatever the rail drains in
    #: ``adaptive_chunk_us`` (or the driver's own hint when it gives one).
    adaptive: bool = False
    #: target per-chunk DMA drain time for the adaptive mode.
    adaptive_chunk_us: float = 60.0
    #: floor under any computed chunk size (avoids silly tiny chunks whose
    #: per-packet setup would dominate).
    min_chunk_bytes: int = 1024
    #: cap on chunks per rail per message (bounds op-queue growth).
    max_chunks_per_rail: int = 64
    #: stripe chunks across every healthy rail of the gate; False pins the
    #: whole data phase to one rail even when chunking is on.
    multirail: bool = True

    def __post_init__(self) -> None:
        if self.chunk_bytes < 0:
            raise ConfigError(f"chunk_bytes must be >= 0, got {self.chunk_bytes}")
        _positive("adaptive_chunk_us", self.adaptive_chunk_us)
        _positive("min_chunk_bytes", self.min_chunk_bytes)
        if self.max_chunks_per_rail < 1:
            raise ConfigError(
                f"max_chunks_per_rail must be >= 1, got {self.max_chunks_per_rail}"
            )

    @property
    def enabled(self) -> bool:
        """True when the data phase is chunked (fixed or adaptive)."""
        return self.chunk_bytes > 0 or self.adaptive


@dataclass(frozen=True)
class ObsConfig:
    """Metrics/observability configuration (see ``docs/metrics.md``).

    Metrics are free of simulated time — enabling them cannot change a
    run's trace signature — so they default to on. Sampling is opt-in
    because a time series only makes sense at a workload-chosen interval.
    """

    #: master switch: when False the runtime hands out no-op instruments
    #: and registers no collectors.
    enabled: bool = True
    #: registry sampling period for the time series; 0 disables sampling.
    sample_interval_us: float = 0.0
    #: ring-buffer cap on retained samples (None = unlimited).
    max_samples: int | None = None

    def __post_init__(self) -> None:
        _non_negative("sample_interval_us", self.sample_interval_us)
        if self.max_samples is not None and self.max_samples < 1:
            raise ConfigError(f"max_samples must be >= 1, got {self.max_samples}")


@dataclass(frozen=True)
class InterconnectConfig:
    """Interconnect-model configuration (see ``docs/topology.md``).

    Selects the :mod:`repro.network.interconnect` model each fabric uses
    to time deliveries. The default — a contention-free ``direct``
    point-to-point wire — is the paper's 2-node testbed and reproduces the
    seed traces byte-for-byte; ``fattree``/``dragonfly`` route frames over
    a modeled switch hierarchy, and ``contention=True`` adds per-link
    busy-until serialization so concurrent flows queue at bottleneck hops
    (the multi-job interference studies).

    Not to be confused with :mod:`repro.topology`, the *intra-node* NUMA
    machine model: this section describes the inter-node wire structure.
    """

    #: "direct", "fattree", or "dragonfly" (optionally with inline arity,
    #: e.g. "fattree:8" or "dragonfly:4,2,2").
    topology: str = "direct"
    #: per-link busy-until serialization (frames queue at bottleneck hops).
    contention: bool = False
    #: fat-tree arity (k pods, k³/4 hosts); must be even.
    fattree_k: int = 4
    #: dragonfly routers per group / hosts per router / global links per router.
    dragonfly_a: int = 4
    dragonfly_p: int = 2
    dragonfly_h: int = 2
    #: per-switch-hop latency (intra-group hops for the dragonfly).
    hop_latency_us: float = 0.3
    #: dragonfly inter-group (optical) hop latency.
    global_latency_us: float = 1.2
    #: switch-link bandwidth in bytes/µs; 0 inherits the NIC wire bandwidth.
    link_bw: float = 0.0

    def __post_init__(self) -> None:
        base = self.topology.partition(":")[0].strip().lower()
        if base not in ("direct", "fattree", "dragonfly"):
            raise ConfigError(
                f"interconnect topology must be direct, fattree or dragonfly, "
                f"got {self.topology!r}"
            )
        if self.fattree_k < 2 or self.fattree_k % 2:
            raise ConfigError(
                f"fattree_k must be even and >= 2, got {self.fattree_k}"
            )
        for name in ("dragonfly_a", "dragonfly_p", "dragonfly_h"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        _non_negative("hop_latency_us", self.hop_latency_us)
        _non_negative("global_latency_us", self.global_latency_us)
        _non_negative("link_bw", self.link_bw)


@dataclass(frozen=True)
class KernelConfig:
    """Discrete-event kernel configuration (see ``repro.sim.queues``).

    ``queue`` selects the event-queue implementation: ``"calendar"``
    (default — O(1) amortized calendar queue with batch firing and
    cancelled-entry compaction) or ``"heap"`` (the classic binary heap,
    kept as the conservative fallback). Fire order — and therefore every
    trace signature — is identical for both; only wall-clock speed
    differs (``docs/performance.md``).
    """

    queue: str = "calendar"

    def __post_init__(self) -> None:
        if self.queue not in ("heap", "calendar"):
            raise ConfigError(
                f"kernel queue must be 'heap' or 'calendar', got {self.queue!r}"
            )


@dataclass(frozen=True)
class TimingModel:
    """Aggregate of every cost model used by a simulation run."""

    host: HostModel = field(default_factory=HostModel)
    nic: NicModel = field(default_factory=NicModel)
    shm: ShmModel = field(default_factory=ShmModel)
    marcel: MarcelConfig = field(default_factory=MarcelConfig)
    pioman: PiomanConfig = field(default_factory=PiomanConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    rdv: RdvConfig = field(default_factory=RdvConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    def replace(self, **kwargs: object) -> "TimingModel":
        """Return a copy with top-level sections replaced.

        ``timing.replace(nic=dataclasses.replace(timing.nic, wire_latency_us=3))``
        """
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]


DEFAULT_TIMING = TimingModel()
