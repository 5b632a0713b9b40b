"""Unit tests for configuration validation and cost formulas."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    DEFAULT_TIMING,
    EngineKind,
    HostModel,
    MarcelConfig,
    NicModel,
    PiomanConfig,
    ShmModel,
    TimingModel,
)
from repro.errors import ConfigError
from repro.units import KiB


class TestEngineKind:
    def test_valid(self):
        assert EngineKind.validate("pioman") == "pioman"
        assert EngineKind.validate("sequential") == "sequential"

    def test_invalid(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            EngineKind.validate("turbo")


class TestHostModel:
    def test_memcpy_cost_monotone(self):
        h = HostModel()
        costs = [h.memcpy_us(n) for n in (0, 1024, 32768, 1 << 20)]
        assert costs[0] == 0.0
        assert costs == sorted(costs)

    def test_memcpy_includes_setup(self):
        h = HostModel()
        assert h.memcpy_us(1) > h.memcpy_setup_us

    def test_memcpy_32k_is_dozens_of_us(self):
        """§2.2: submission of ≤32K messages costs 'up to several dozens
        of microseconds' — the calibration must reflect that."""
        h = HostModel()
        assert 20.0 <= h.memcpy_us(KiB(32)) <= 80.0

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            HostModel().memcpy_us(-1)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            HostModel(memcpy_bw=0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            HostModel(context_switch_us=-1)


class TestNicModel:
    def test_paper_thresholds(self):
        n = NicModel()
        assert n.pio_threshold == 128  # MX PIO cutover
        assert n.rdv_threshold == KiB(32)  # MX rendezvous threshold

    def test_wire_time(self):
        n = NicModel()
        assert n.wire_us(0) == n.wire_latency_us
        assert n.wire_us(KiB(64)) > n.wire_us(KiB(32))

    def test_registration_cost(self):
        n = NicModel()
        assert n.registration_us(0) == n.reg_setup_us
        assert n.registration_us(1 << 20) > n.reg_setup_us

    def test_thresholds_ordering_enforced(self):
        with pytest.raises(ConfigError):
            NicModel(pio_threshold=1 << 20, rdv_threshold=1024)

    def test_negative_sizes_rejected(self):
        n = NicModel()
        with pytest.raises(ConfigError):
            n.wire_us(-1)
        with pytest.raises(ConfigError):
            n.registration_us(-1)


class TestShmModel:
    def test_copy_cost(self):
        s = ShmModel()
        assert s.copy_us(0) == s.latency_us
        assert s.copy_us(KiB(8)) > s.copy_us(KiB(1))

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            ShmModel().copy_us(-5)


class TestMarcelConfig:
    def test_defaults_positive(self):
        c = MarcelConfig()
        assert c.timer_tick_us > 0 and c.quantum_us > 0

    def test_zero_tick_rejected(self):
        with pytest.raises(ConfigError):
            MarcelConfig(timer_tick_us=0)


class TestPiomanConfig:
    def test_defaults(self):
        c = PiomanConfig()
        assert c.allow_blocking_calls and c.max_events_per_activation == 8

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigError):
            PiomanConfig(max_events_per_activation=0)

class TestTimingModel:
    def test_default_sections(self):
        t = TimingModel()
        assert isinstance(t.host, HostModel)
        assert isinstance(t.nic, NicModel)

    def test_replace_section(self):
        t = TimingModel()
        t2 = t.replace(nic=dataclasses.replace(t.nic, wire_latency_us=9.0))
        assert t2.nic.wire_latency_us == 9.0
        assert t.nic.wire_latency_us == 2.0  # original untouched

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TimingModel().host.memcpy_bw = 1.0  # type: ignore[misc]

    def test_default_singleton_usable(self):
        assert DEFAULT_TIMING.nic.rdv_threshold == KiB(32)

    def test_tasklet_remote_is_papers_2us(self):
        """§4.1 attributes the measured overhead to inter-CPU tasklet
        dispatch — the default must be the paper's 2 µs."""
        assert TimingModel().host.tasklet_remote_us == 2.0
