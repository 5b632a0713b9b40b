"""Tests for synthetic workload generators."""

from __future__ import annotations

import pytest

from repro.apps.workloads import Phase, irregular_phases, master_worker_plan, uniform_phases
from repro.errors import HarnessError


def test_uniform_phases():
    phases = uniform_phases(5, compute_us=10.0, msg_size=2048)
    assert len(phases) == 5
    assert all(p.compute_us == 10.0 and p.msg_size == 2048 for p in phases)


def test_uniform_validation():
    with pytest.raises(HarnessError):
        uniform_phases(0, 1.0, 1)


def test_phase_validation():
    with pytest.raises(HarnessError):
        Phase(compute_us=-1.0, msg_size=1)
    with pytest.raises(HarnessError):
        Phase(compute_us=1.0, msg_size=-1)


def test_irregular_deterministic_per_seed():
    a = irregular_phases(20, seed=3)
    b = irregular_phases(20, seed=3)
    c = irregular_phases(20, seed=4)
    assert [(p.compute_us, p.msg_size) for p in a] == [(p.compute_us, p.msg_size) for p in b]
    assert a[0].compute_us != c[0].compute_us


#: ``irregular_phases(20, seed=3)`` as numpy's Generator drew it when the
#: plan still took its stream from ``RngStreams.stream``
IRREGULAR_SEED3 = [
    (33.450315471548855, 14092), (47.11805805495064, 2315), (17.590441095334885, 15081),
    (29.741383313192905, 11390), (37.180162890714804, 12822), (55.875064830918745, 480),
    (98.37481601231033, 9483), (28.14544332645949, 11021), (34.29091178216583, 3340),
    (58.86042532186272, 898), (40.27468568010344, 14602), (276.84322997070717, 15604),
    (8.710891873521092, 5214), (42.079631255660104, 5340), (33.33543979146028, 15869),
    (12.032419892149997, 2209), (25.221336717394294, 15915), (27.126509802578887, 13753),
    (19.613337695148925, 10099), (23.861978234779293, 1248),
]


def test_irregular_values_pinned():
    assert [(p.compute_us, p.msg_size) for p in irregular_phases(20, seed=3)] == IRREGULAR_SEED3


def test_irregular_bounds_respected():
    phases = irregular_phases(100, min_msg=512, max_msg=1024, seed=1)
    assert all(512 <= p.msg_size <= 1024 for p in phases)
    assert all(p.compute_us > 0 for p in phases)


def test_irregular_mean_roughly_respected():
    phases = irregular_phases(2000, mean_compute_us=50.0, seed=0)
    mean = sum(p.compute_us for p in phases) / len(phases)
    assert 40.0 < mean < 60.0


def test_irregular_validation():
    with pytest.raises(HarnessError):
        irregular_phases(0)
    with pytest.raises(HarnessError):
        irregular_phases(5, min_msg=100, max_msg=50)


def test_master_worker_plan():
    plan = master_worker_plan(workers=3, tasks=12)
    assert plan["workers"] == 3 and plan["tasks"] == 12
    with pytest.raises(HarnessError):
        master_worker_plan(0, 1)
