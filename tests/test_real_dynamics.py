"""Real-dynamics oracle: the Hubbard tree is an arc exactly for the
Milnor-Thurston kneading sequences, and the arc carries the critical orbit
in their order.

A real centre has an interval for its Hubbard tree (Milnor & Thurston, "On
iterated maps of the interval", LNM 1342, 1988).  The laws here come from
the real theory, not from this package's reading of the paper: they share
only the parser, the enumeration, the builder and the tree's endpoints and
paths, and order the itineraries themselves.  They read the session's tree
corpus (conftest.py).
"""

from __future__ import annotations

from collections import Counter

import pytest

RANK = {"0": 0, "*": 1, "1": 2}


def shifted(word: str, k: int) -> str:
    """The k-th shift of the stream word word word ..., as a window of
    2n symbols: two shifts of a star-periodic word differ within n."""
    n = len(word)
    return (word * 3)[k % n:k % n + 2 * n]


def signed_compare(a: str, b: str) -> int:
    """-1, 0 or 1 as a <, = or > b in the signed order: at the first
    difference 0 < * < 1 when the common prefix has an even number of 1s,
    and the reverse when it has an odd number."""
    ones = 0
    for x, y in zip(a, b):
        if x != y:
            return (1 if RANK[x] > RANK[y] else -1) * (-1 if ones % 2 else 1)
        ones += x == "1"
    return 0


def moebius(d: int) -> int:
    result, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    return -result if d > 1 else result


def real_centres(n: int) -> int:
    """(1/2n) * sum over odd d | n of mu(d) 2^(n/d): the real centres of period n."""
    total = sum(moebius(d) * 2 ** (n // d) for d in range(1, n + 1, 2) if n % d == 0)
    assert total % (2 * n) == 0
    return total // (2 * n)


@pytest.fixture(scope="module")
def shapes(corpus):
    """Per sequence text: its endpoint count, and on an arc the path from
    c1 to c2 (c0, the critical point, when the period is 2)."""
    found = []
    for tree in corpus.trees:
        endpoints = len(tree.endpoints())
        path = tree.path("c1", f"c{2 % tree.sequence.period}") if endpoints == 2 else None
        found.append((str(tree.sequence), endpoints, path))
    return found


def test_formula_is_the_known_count():
    # OEIS A000048 at n = 2..13
    assert [real_centres(n) for n in range(2, 14)] == [1, 1, 2, 3, 5, 9, 16, 28, 51, 93, 170, 315]


def test_arc_exactly_for_milnor_thurston_sequences(shapes):
    assert len(shapes) == 4095
    for word, endpoints, _ in shapes:
        maximal = all(signed_compare(shifted(word, k), word * 2) < 0 for k in range(1, len(word)))
        assert (endpoints == 2) == maximal, word


def test_arc_lists_the_critical_orbit_in_decreasing_order(shapes):
    arcs = [(word, path) for word, _, path in shapes if path is not None]
    for word, path in arcs:
        n = len(word)
        assert sorted(path) == sorted(f"c{k}" for k in range(n)), word
        # c_k has the itinerary of the (k-1)-th shift of the sequence
        streams = [shifted(word, int(vid[1:]) - 1) for vid in path]
        assert all(signed_compare(a, b) > 0 for a, b in zip(streams, streams[1:])), word


def test_arc_count_per_period(corpus, shapes):
    counts = Counter(len(word) for word, _, path in shapes if path is not None)
    assert counts == {n: real_centres(n) for n in range(2, corpus.period + 1)}
    assert sum(counts.values()) == 694


def test_signed_order_on_figure_one():
    # 10110* is not real: its third shift 10*10... first differs from it at
    # the third symbol, * against 1, after one 1, so the shift is the larger
    # (its tree has five endpoints)
    word = "10110*"
    assert [signed_compare(shifted(word, k), word * 2) for k in range(1, 6)] == [-1, -1, 1, -1, -1]
