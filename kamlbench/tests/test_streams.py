"""Seeded op streams: exact mixes, determinism, and the zipfian shape."""

import random
from collections import Counter

from kamlbench import streams


def test_same_seed_same_stream_other_seed_other_stream():
    a = streams.ycsb_b(random.Random(7), 2_000, 500, 0.99)
    b = streams.ycsb_b(random.Random(7), 2_000, 500, 0.99)
    c = streams.ycsb_b(random.Random(8), 2_000, 500, 0.99)
    assert a == b
    assert a != c


def test_mixes_are_exact():
    ops = streams.ycsb_b(random.Random(1), 10_000, 100, 0.0)
    assert Counter(kind for kind, _key in ops) == {streams.READ: 9_500, streams.UPDATE: 500}
    ops = streams.cluster_mix(random.Random(1), 10_000, 1_000)
    assert Counter(kind for kind, _keys in ops) == {
        streams.GET: 5_000, streams.PUT1: 2_000, streams.PUT3: 3_000,
    }
    assert all(len(set(keys)) == (3 if kind == streams.PUT3 else 1) for kind, keys in ops)


def test_put_batches_hold_one_to_four_distinct_keys():
    batches = streams.put_batches(random.Random(3), 5_000, 300)
    assert {len(batch) for batch in batches} == {1, 2, 3, 4}
    assert all(len(set(batch)) == len(batch) for batch in batches)
    assert all(0 <= key < 300 for batch in batches for key in batch)


def test_zipfian_matches_its_distribution_chi_squared():
    items, theta, draws = 100, 0.99, 200_000
    rng = random.Random(99)
    zipf = streams.Zipfian(items, theta)
    observed = Counter(zipf.rank(rng.random()) for _ in range(draws))
    weights = [1.0 / (rank + 1) ** theta for rank in range(items)]
    total = sum(weights)
    chi2 = sum(
        (observed[rank] - draws * w / total) ** 2 / (draws * w / total)
        for rank, w in enumerate(weights)
    )
    # 99 degrees of freedom: the 99.9th percentile of chi-squared is 148.2.
    assert chi2 < 148.2
    assert observed.most_common(1)[0][0] == 0
    # Ranks map onto keys one to one, so the hot set is scattered, not lost.
    assert {zipf.key(rng.random()) for _ in range(20_000)} == set(range(items))
