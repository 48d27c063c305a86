"""Deterministic enumeration and sampling for the verification suites.

Randomised choices all flow from a single 64-bit seed through SplitMix64,
a tiny, well-known, fully specified generator — so every report is exactly
reproducible from ``(suite, seed, window)`` alone, independent of Python
version, hash randomisation and thread count.  Each call site derives its own
stream from the master seed and a string tag, so adding a new check never
perturbs the draws of existing ones.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

_MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator (Steele–Lea–Flood update constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from {0, ..., n-1} (modulo bias is irrelevant for the
        tiny n used here, and determinism matters more than perfection)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]


def _mix_tag(seed: int, tag: str) -> int:
    """Derive a per-stream seed: FNV-1a over the tag, folded into the seed."""
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return (seed ^ h) & _MASK


class EnumSpec(NamedTuple):
    """How a suite enumerates cases: master seed, integer window, case cap.

    ``window`` bounds the labels of an infinite group (``Group.ball``);
    ``max_cases`` caps sampled case counts where exhaustion is impossible.
    """

    seed: int = 0
    window: int = 3
    max_cases: int = 200

    def rng(self, tag: str) -> SplitMix64:
        return SplitMix64(_mix_tag(self.seed, tag))
