"""Triod calculus on symbol streams.

Given three distinct points of the tree by their itineraries, decide the
shape of the smallest subtree spanning them: either one of the three lies on
the arc between the other two (MIDDLE), or the three arcs meet at a genuine
interior branch point whose itinerary is returned (BRANCH).

The decision iterates the triple of streams and does a case split on the
three head symbols:

* all heads equal: the spanning tree sits inside one side of the critical
  point and maps forward injectively; record the common symbol (it is the
  center's symbol) and shift all three streams.
* one head is STAR, the other two equal: the stream at the critical point
  hangs off the arc between the other two, so it is not the middle this
  round (EXCLUDED); record the majority symbol and shift all three.
* one head is STAR, the other two differ: the critical point separates the
  other two, so the STAR stream's point is the center: MIDDLE.
* one head differs from the other two (no STAR): the odd point sits across
  the critical point from the rest; the center is unchanged if the odd point
  is replaced by the critical point itself, so CHOP it: record the majority
  symbol, restart the odd stream at the critical value, shift the other two.

Streams are eventually periodic, so the triple of stream states lives in a
finite space; once a state repeats, the events of one full cycle decide the
answer.  An index chopped or excluded during the cycle cannot be the middle;
exactly one untouched index means MIDDLE, none means the center is a fourth
point whose itinerary is the recorded symbols (preamble + cycle).  Two or
more untouched indices can only happen when two input streams were equal,
which violates the precondition.

The streams are read from tapes laid out once per sequence (see _Tapes).
A run of all-equal heads only records and shifts, so it is taken in one
step: the run ends at the first difference of the three windows (the top
bit of their XOR) or at the first STAR.  States are then keyed only at
events (exclude, chop, middle); the answer is unchanged, because a repeated
state still closes whole periods of the state sequence, so the same streams
stay untouched during it, and Itinerary normalization absorbs the later
cycle start.
"""

from __future__ import annotations

import functools
import math
from _thread import allocate_lock  # threading's own import would cost a cold start
from typing import NamedTuple

from .sequences import Itinerary, KneadingSequence, itinerary_consistent_with

_STAR = ord("*")
_UNSEPARATED = "two streams never separated; inputs are not itineraries of distinct tree points"


class TriodError(RuntimeError):
    """Inconsistent triod query: equal points, or a structural contradiction."""


class UnrealizedPointError(TriodError):
    """The iteration reached contradictory conclusions about the middle.

    For three itineraries of genuine tree points this cannot happen (the
    spanning subtree maps injectively step by step), so it means at least one
    input stream is not the itinerary of any point of the tree.  The usual
    culprits are symbolic precritical itineraries: a word like
    ``v1..v_{k-1} * v`` need not be realized when k is off the internal
    address.
    """


class Middle(NamedTuple):
    """One of the three queried points lies between the other two."""

    position: int  # 1-based argument position


class Branch(NamedTuple):
    """The three points span a genuine interior branch point."""

    itinerary: Itinerary


TriodResult = Middle | Branch


class _Tapes:
    """Every itinerary queried for one sequence, laid end to end on one tape.

    An itinerary's region is its preperiod and enough copies of its period
    that ``reach`` symbols can be sliced from each of its states (its first
    preperiod + period positions); ``canon`` maps every position of a region
    back to the state it reads, so a stream is one position.  ``reach`` is
    three times the longest itinerary laid out: streams that agree over that
    many symbols agree forever (Fine and Wilf).  A longer itinerary starts a
    fresh layout.
    """

    def __init__(self, seq: KneadingSequence):
        self.value = Itinerary.periodic(seq.word)
        self.lock = allocate_lock()
        self.layout = (bytearray(), [], 0, {})  # tape, canon, reach, region starts

    def locate(self, points: tuple[Itinerary, ...]) -> tuple[tuple, list[int]]:
        """The layout and the region starts of the points and the critical value."""
        itineraries = (*points, self.value)
        layout = self.layout
        starts = [layout[3].get(p) for p in itineraries]
        if None in starts:
            with self.lock:
                longest = max(len(p.preperiod) + len(p.period) for p in itineraries)
                if 3 * longest > self.layout[2]:
                    self.layout = (bytearray(), [], 3 * longest, {})
                layout = self.layout
                for p in itineraries:
                    if p not in layout[3]:
                        _lay(layout, p)
                starts = [layout[3][p] for p in itineraries]
        return layout, starts


def _lay(layout: tuple, itin: Itinerary) -> None:
    """Append the region of ``itin`` to the layout."""
    tape, canon, reach, start = layout
    (pre, per), at = itin, len(tape)
    size = len(pre) + len(per)
    region = pre + per * ((size + reach) // len(per) + 1)
    cycle = list(range(at + len(pre), at + size))  # the states of the period
    tape += region
    canon += range(at, at + size)
    canon += (cycle * (len(region) // len(per)))[:len(region) - size]
    start[itin] = at


_tapes = functools.lru_cache(maxsize=1)(_Tapes)  # the layout of the last sequence asked for


def classify_triod(
    t1: Itinerary,
    t2: Itinerary,
    t3: Itinerary,
    seq: KneadingSequence,
    *,
    validate: bool = True,
) -> TriodResult:
    """Classify the triod spanned by three distinct itineraries.

    Raises TriodError when the inputs cannot belong to three distinct points
    of the tree for ``seq`` (equal streams, or two simultaneous STAR heads).
    ``validate=False`` skips the STAR-consistency scan for callers that have
    already vetted their itineraries.
    """
    points = (t1, t2, t3)
    if len(set(points)) != 3:
        raise TriodError("triod points must be pairwise distinct")
    if validate:
        for p in points:
            if not itinerary_consistent_with(p, seq):
                raise TriodError(f"itinerary {p} does not follow {seq} after its STAR")

    (tape, canon, reach, _), (*pos, value) = _tapes(seq).locate(points)
    # generous safety net; genuine queries cycle long before this
    lcm = math.lcm(len(seq.word), len(t1.period), len(t2.period), len(t3.period))
    cap = len(t1.preperiod + t2.preperiod + t3.preperiod) + 4 * len(seq.word) * lcm + 16

    seen: dict[tuple, int] = {}
    recorded = bytearray()
    last = [-1, -1, -1]  # step at which each stream was last chopped or excluded

    a, b, c = pos
    step = 0
    while True:
        if step > cap:
            raise TriodError("triod iteration exceeded its cycle bound (structural bug)")
        heads = x, y, z = tape[a], tape[b], tape[c]
        if x == y == z != _STAR:
            # take the whole run: up to the first difference or STAR
            window = tape[a:a + reach]
            first = int.from_bytes(window, "big")
            diff = ((first ^ int.from_bytes(tape[b:b + reach], "big"))
                    | (first ^ int.from_bytes(tape[c:c + reach], "big")))
            run = reach - (diff.bit_length() + 7) // 8
            star = window.find(_STAR, 0, run)
            if star >= 0:
                run = star
            elif run == reach:
                raise TriodError(_UNSEPARATED)
            recorded += window[:run]
            a, b, c = canon[a + run], canon[b + run], canon[c + run]
            step += run
            continue

        start = seen.setdefault((a, b, c), step)
        if start != step:
            untouched = [i for i in range(3) if last[i] < start]  # during the cycle
            if len(untouched) == 1:
                index = untouched[0]
                if last[index] >= 0:
                    raise UnrealizedPointError(
                        "cycle survivor was discarded earlier; an input stream "
                        "is not the itinerary of a tree point")
                return Middle(index + 1)
            if not untouched:
                symbols = bytes(recorded)
                return Branch(Itinerary(symbols[:start], symbols[start:]))
            raise TriodError(_UNSEPARATED)

        if _STAR in heads:
            if heads.count(_STAR) > 1:
                raise TriodError("two streams hit the critical point simultaneously")
            i = heads.index(_STAR)
            others = heads[:i] + heads[i + 1:]
            if others[0] != others[1]:
                if last[i] >= 0:
                    raise UnrealizedPointError(
                        "middle candidate was discarded earlier; an input stream "
                        "is not the itinerary of a tree point")
                return Middle(i + 1)
            recorded.append(others[0])
            last[i] = step
            a, b, c = canon[a + 1], canon[b + 1], canon[c + 1]
        # exactly one head disagrees (two symbols available, no STAR): chop it,
        # restarting its stream at the critical value
        elif x == y:
            recorded.append(x)
            last[2] = step
            a, b, c = canon[a + 1], canon[b + 1], value
        elif x == z:
            recorded.append(x)
            last[1] = step
            a, b, c = canon[a + 1], value, canon[c + 1]
        else:
            recorded.append(y)
            last[0] = step
            a, b, c = value, canon[b + 1], canon[c + 1]
        step += 1
