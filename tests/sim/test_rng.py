"""Unit tests for seeded RNG substreams."""

from __future__ import annotations

import pytest

from repro.sim.rng import Pcg64Stream, RngStreams, substream_draws


def _draws(stream, n: int) -> list[float]:
    return [stream.random() for _ in range(n)]


def test_same_seed_same_stream():
    a = _draws(RngStreams(7).stream("x"), 5)
    b = _draws(RngStreams(7).stream("x"), 5)
    assert a == b


def test_different_names_independent():
    streams = RngStreams(7)
    a = _draws(streams.stream("a"), 5)
    b = _draws(streams.stream("b"), 5)
    assert a != b


def test_different_seeds_differ():
    a = _draws(RngStreams(1).stream("x"), 5)
    b = _draws(RngStreams(2).stream("x"), 5)
    assert a != b


def test_stream_is_cached():
    streams = RngStreams(0)
    assert streams.stream("x") is streams.stream("x")


def test_adding_consumer_does_not_perturb_existing():
    s1 = RngStreams(3)
    first = _draws(s1.stream("main"), 4)
    s2 = RngStreams(3)
    s2.stream("newcomer")  # extra stream created first
    second = _draws(s2.stream("main"), 4)
    assert first == second


def test_fork_deterministic_and_distinct():
    root = RngStreams(5)
    f1 = root.fork("node0")
    f2 = root.fork("node1")
    again = RngStreams(5).fork("node0")
    assert f1.root_seed == again.root_seed
    assert f1.root_seed != f2.root_seed
    assert f1.root_seed != root.root_seed


def test_derive_seed_stable():
    assert RngStreams(9).derive_seed("abc") == RngStreams(9).derive_seed("abc")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)
    with pytest.raises(ValueError):
        Pcg64Stream(-1)


def test_draws_are_unit_interval_floats():
    draws = _draws(RngStreams(11).stream("u"), 2000)
    assert all(type(x) is float and 0.0 <= x < 1.0 for x in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


#: numpy's edge and typical seeds, plus a BLAKE2-derived substream seed
EQUIVALENCE_SEEDS = [0, 1, 12345, 2**63 - 25, 2**64 - 1, RngStreams(0).derive_seed("rule0")]


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_stream_equals_numpy_default_rng(seed):
    np = pytest.importorskip("numpy")
    expected = np.random.default_rng(seed).random(10_000).tolist()
    assert _draws(Pcg64Stream(seed), 10_000) == expected


def test_substream_equals_numpy_on_derived_seed():
    np = pytest.importorskip("numpy")
    streams = RngStreams(42)
    expected = np.random.default_rng(streams.derive_seed("rule3")).random(1000).tolist()
    assert _draws(streams.stream("rule3"), 1000) == expected


def test_substream_draws_bind_each_named_stream():
    draws = substream_draws(9, ["rule0", "rule1"])
    streams = RngStreams(9)
    assert [draws[1]() for _ in range(3)] == _draws(streams.stream("rule1"), 3)
    assert [draws[0]() for _ in range(3)] == _draws(streams.stream("rule0"), 3)
