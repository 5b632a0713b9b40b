"""Seeded, named random substreams.

Determinism is a core property of the reproduction (see DESIGN.md §5): any
stochastic choice — workload jitter, strategy tie-breaking — must draw from
a named substream derived from the run's root seed, never from a global RNG.
Two runs with identical configuration then produce identical event
timelines, which the property tests assert.

A substream is a :class:`Pcg64Stream`: numpy's ``SeedSequence`` → ``PCG64``
seeding and ``Generator.random()`` in pure Python, so
``RngStreams(s).stream(n).random()`` returns exactly what
``numpy.random.default_rng(RngStreams(s).derive_seed(n)).random()`` would,
draw for draw, without importing numpy.
"""

from __future__ import annotations

import hashlib
from typing import Callable

__all__ = ["Pcg64Stream", "RngStreams", "substream_draws"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_M53 = (1 << 53) - 1
#: PCG's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
#: ``Generator.random()`` scale: 53 high bits of a draw → [0, 1)
_TO_UNIT = 1.0 / 9007199254740992.0


def _seed_sequence_state(seed: int) -> list[int]:
    """The four 64-bit words numpy's ``SeedSequence(seed).generate_state(4,
    uint64)`` yields (pool size 4, no spawn key), in 32-bit arithmetic. The
    constants are numpy's ``INIT_A``, ``MULT_A``, ``MIX_MULT_L``/``_R``
    (mixing the entropy into the pool) and ``INIT_B``, ``MULT_B`` (drawing
    the state out of it)."""
    entropy: list[int] = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words: list[int] = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> 16))
    return [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]


class Pcg64Stream:
    """numpy's ``default_rng(seed)`` (PCG64, XSL-RR 128/64) offering
    ``random()`` only: one float in [0, 1) per call, bit-identical to
    ``Generator.random()``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        s0, s1, i0, i1 = _seed_sequence_state(seed)
        self._inc = inc = (((i0 << 64) | i1) << 1 | 1) & _M128
        state = (inc + ((s0 << 64) | s1)) & _M128  # one step from state 0 is inc
        self._state = (state * _PCG_MULT + inc) & _M128

    def random(self) -> float:
        """Advance the LCG, output XSL-RR (the 64-bit rotation), keep its
        53 high bits."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((x >> rot | x << (64 - rot)) >> 11 & _M53) * _TO_UNIT


class RngStreams:
    """A family of independent :class:`Pcg64Stream` substreams.

    Each distinct ``name`` yields an independent, reproducible stream:
    the substream seed is derived from ``(root_seed, name)`` with BLAKE2, so
    adding a new consumer never perturbs existing streams.
    """

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError(f"root seed must be >= 0, got {root_seed}")
        self.root_seed = int(root_seed)
        self._streams: dict[str, Pcg64Stream] = {}

    def derive_seed(self, name: str) -> int:
        """Stable 64-bit seed for substream ``name``."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.root_seed.to_bytes(16, "little", signed=False))
        h.update(name.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")

    def stream(self, name: str) -> Pcg64Stream:
        """Return (creating on first use) the substream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = Pcg64Stream(self.derive_seed(name))
            self._streams[name] = gen
        return gen

    def fork(self, salt: str) -> "RngStreams":
        """A new family whose root is derived from this one plus ``salt``.

        Used to give each simulated node an independent but reproducible
        stream family.
        """
        return RngStreams(self.derive_seed(f"fork:{salt}") % (2**63))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RngStreams root={self.root_seed} streams={sorted(self._streams)}>"


def substream_draws(root_seed: int, names: list[str]) -> list[Callable[[], float]]:
    """The bound ``random`` of each named substream of ``RngStreams(root_seed)``,
    in ``names`` order: a hot caller draws with one call and no lookup."""
    streams = RngStreams(root_seed)
    return [streams.stream(name).random for name in names]
