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
    "ib_nic_model",
    "tcp_nic_model",
    "ShmModel",
    "PiomanConfig",
    "MarcelConfig",
    "FaultConfig",
    "RdvConfig",
    "ObsConfig",
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
        Marcel's scheduling triggers, with polling or blocking completion
        detection.
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
    spinlock_us:
        Cost of one uncontended spinlock acquire+release pair; contended
        acquisitions additionally spin in virtual time.
    tasklet_local_us:
        Cost to schedule and dispatch a tasklet on the current core (each
        run of PIOMan's kernel detection pays it).
    tasklet_remote_us:
        Cost to schedule a tasklet on *another* core (inter-CPU signalling +
        cache-line transfer). §4.1 of the paper measures this as ≈2 µs.
    syscall_us:
        Cost of entering/leaving the kernel (used by the blocking detection
        method).
    """

    memcpy_setup_us: float = 0.35
    #: 2008-era FSB Xeon copy into an uncached registered region — this is
    #: why §2.2 calls small-message submission "CPU-hungry": copying 32 KiB
    #: costs ≈ 40 µs ("up to several dozens of microseconds")
    memcpy_bw: float = GiB_per_s(0.75)
    context_switch_us: float = 0.6
    spinlock_us: float = 0.04
    tasklet_local_us: float = 0.35
    tasklet_remote_us: float = 2.0
    syscall_us: float = 1.2
    #: cost of registering a communication request (bookkeeping in isend/irecv)
    request_post_us: float = 0.2

    def __post_init__(self) -> None:
        _positive("memcpy_bw", self.memcpy_bw)
        for name in (
            "memcpy_setup_us",
            "context_switch_us",
            "spinlock_us",
            "tasklet_local_us",
            "tasklet_remote_us",
            "syscall_us",
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
    """MX/Myri-10G-like NIC and wire cost model (the defaults;
    :func:`ib_nic_model` and :func:`tcp_nic_model` price the other
    interconnects).

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


def ib_nic_model() -> NicModel:
    """A DDR InfiniBand/Verbs-flavoured :class:`NicModel` (§3.1 lists
    "Verbs/InfiniBand" among NewMadeleine's networks).

    Payloads up to 64 B travel inline in the work-queue entry (the PIO
    path); eager traffic goes through pre-registered bounce buffers; the
    rendezvous is an RDMA write. Verbs stacks switch to it earlier than MX
    (16 KiB) because registration-cache hits make the zero-copy path
    cheap. ≈1.3 µs one-way, ≈1.4 GiB/s.
    """
    return NicModel(
        name="ib",
        pio_threshold=64,  # max inline data
        rdv_threshold=KiB(16),
        wire_latency_us=1.3,
        wire_bw=GiB_per_s(1.4),
        pio_byte_us=0.004,  # inline WQE writes
        tx_setup_us=0.3,  # post_send() is cheap
        dma_setup_us=0.3,
        rx_consume_us=0.4,
        poll_us=0.2,  # CQ polling is a cheap memory read
        interrupt_us=8.0,  # event-channel wakeups are pricier than MX
        reg_setup_us=1.5,  # ibv_reg_mr is heavier than MX registration
        reg_byte_us=0.0003,
    )


def tcp_nic_model() -> NicModel:
    """A gigabit-Ethernet-flavoured :class:`NicModel`: no PIO path, no
    registration, 25 µs one-way, ≈1 Gb/s. The socket-call costs live in
    :class:`repro.nmad.drivers.TcpDriver`."""
    return NicModel(
        name="tcp",
        pio_threshold=0,
        rdv_threshold=KiB(64),
        wire_latency_us=25.0,
        wire_bw=117.0,  # ≈ 1 Gb/s
        pio_byte_us=0.0,
        tx_setup_us=1.0,
        dma_setup_us=0.5,
        rx_consume_us=1.2,
        poll_us=0.4,
        interrupt_us=12.0,
        reg_setup_us=0.0,
        reg_byte_us=0.0,
    )


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

    #: Preemption timer period (µs); PIOMan's due kernel detection also runs
    #: at tick boundaries.
    timer_tick_us: float = 10.0
    #: Scheduling quantum for round-robin within a priority level.
    quantum_us: float = 20.0

    def __post_init__(self) -> None:
        _positive("timer_tick_us", self.timer_tick_us)
        _positive("quantum_us", self.quantum_us)


@dataclass(frozen=True)
class PiomanConfig:
    """PIOMan event-manager configuration."""

    #: Use the blocking (kernel-thread) detection method when no core will
    #: idle once the waiting thread blocks (§3.2).
    allow_blocking_calls: bool = True
    #: Maximum number of events processed per engine activation (bounds the
    #: time spent at one safe point).
    max_events_per_activation: int = 8

    def __post_init__(self) -> None:
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
    #: size chunks from each rail's ``wire_bw`` instead of
    #: ``chunk_bytes``: a chunk is whatever the rail drains in
    #: ``adaptive_chunk_us``.
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

    def replace(self, **kwargs: object) -> "TimingModel":
        """Return a copy with top-level sections replaced.

        ``timing.replace(nic=dataclasses.replace(timing.nic, wire_latency_us=3))``
        """
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]


DEFAULT_TIMING = TimingModel()
