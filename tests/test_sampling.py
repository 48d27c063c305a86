"""Deterministic PRNG: known-answer vectors and stream-derivation rules."""

from mhag import EnumSpec, IntGroup, SplitMix64

# Reference streams computed from the published SplitMix64 update
# (state += 0x9E3779B97F4A7C15; two xor-multiply finalization rounds)
# with an independent implementation; frozen here as the oracle.
REF_SEED0 = [
    16294208416658607535, 7960286522194355700, 487617019471545679,
    17909611376780542444, 1961750202426094747,
]
REF_SEED_1234567 = [
    6457827717110365317, 3203168211198807973, 9817491932198370423,
    4593380528125082431, 16408922859458223821,
]


def test_known_answer_seed0():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == REF_SEED0


def test_known_answer_seed_1234567():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == REF_SEED_1234567


def test_same_seed_same_stream():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(20)] == [
        b.next_u64() for _ in range(20)]


def test_below_range_and_determinism():
    rng = SplitMix64(9)
    draws = [rng.below(7) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    rng2 = SplitMix64(9)
    assert draws == [rng2.below(7) for _ in range(200)]


def test_enum_spec_tagged_streams_are_independent():
    e = EnumSpec(seed=17, window=4)
    s1 = [e.rng("alpha").next_u64() for _ in range(3)]
    s2 = [e.rng("beta").next_u64() for _ in range(3)]
    assert s1 != s2
    assert s1 == [e.rng("alpha").next_u64() for _ in range(3)]


def test_enum_spec_int_labels_window():
    assert IntGroup().ball(2) == [-2, -1, 0, 1, 2]
