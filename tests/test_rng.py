"""The documented random derivations against reference copies of them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat.rng import make_rng, rand_below, sample_without_replacement


def list_fisher_yates(rng, n, k):
    """Partial Fisher-Yates over the full list 1..n, the reference the
    package's draw must match value for value."""
    pool = list(range(1, n + 1))
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 300), st.data(), st.integers(0, 2**64 - 1))
def test_sample_without_replacement_matches_list_fisher_yates(n, data, seed):
    k = data.draw(st.integers(0, n))
    got_rng, want_rng = make_rng(seed), make_rng(seed)
    assert sample_without_replacement(got_rng, n, k) == list_fisher_yates(want_rng, n, k)
    # both consumed the same bits
    assert got_rng.getrandbits(64) == want_rng.getrandbits(64)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 700),
    st.lists(st.integers(1, 32), max_size=40),
)
def test_bulk_words_replay_getrandbits(seed, w, widths):
    """The two stream facts the lockstep sampler reads words by: a bulk
    getrandbits(32 * w), as little-endian bytes, is the next w words in
    order, and getrandbits(k <= 32) is the top k bits of the next word."""
    bulk, single = make_rng(seed), make_rng(seed)
    words = np.frombuffer(bulk.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4")
    assert words.tolist() == [single.getrandbits(32) for _ in range(w)]
    got = [bulk.getrandbits(k) for k in widths]
    assert got == [single.getrandbits(32) >> (32 - k) for k in widths]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 40))
def test_53_bit_draw_reads_two_words(seed, draws):
    """The stream fact the coupling's reveal draws by: getrandbits(53) reads
    two words, the first as its low 32 bits and the second's top 21 bits
    (w1 >> 11) as its bits 32-52."""
    wide, words = make_rng(seed), make_rng(seed)
    for _ in range(draws):
        w0, w1 = words.getrandbits(32), words.getrandbits(32)
        assert wide.getrandbits(53) == w0 | (w1 >> 11) << 32
