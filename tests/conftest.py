"""One corpus of built trees per test session.

The ``corpus`` fixture builds the tree of every star-periodic sequence of
period <= ``CORPUS_PERIOD`` once, in ``star_periodic_sequences`` order, and
every test that reads trees of those periods without changing how they are
made shares it.  Sharing is safe: a ``HubbardTree`` changes after
construction only by filling in its arm maps and its branch cycles.

Some tests must keep building their own trees and not read the corpus:

* tests that count builds, triod queries or shifts (``TestOnce``,
  ``TestTriodBudget``): the corpus was built before their counters;
* tests that clear ``_facts``: they test a cold build;
* tests that monkeypatch the package: a shared tree was built before the
  patch, so it would hide it.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import pytest

from hubbardtree import HubbardTree, build_tree
from hubbardtree.atlas import star_periodic_sequences
from hubbardtree.sequences import _facts

CORPUS_PERIOD = 13


class Corpus(NamedTuple):
    period: int  # every sequence of period <= this one
    trees: tuple[HubbardTree, ...]  # in star_periodic_sequences order
    build_s: float  # wall time of the builds

    def up_to(self, period: int) -> list[HubbardTree]:
        """The trees of period <= ``period``, in the corpus's order, which is
        that of ``star_periodic_sequences(period)``."""
        return [tree for tree in self.trees if tree.sequence.period <= period]


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    _facts.cache_clear()  # no state left by an earlier test reaches the builds
    started = time.perf_counter()
    trees = tuple(build_tree(seq) for seq in star_periodic_sequences(CORPUS_PERIOD))
    return Corpus(CORPUS_PERIOD, trees, time.perf_counter() - started)
