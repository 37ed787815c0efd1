"""The documented random derivations against reference copies of them."""

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
