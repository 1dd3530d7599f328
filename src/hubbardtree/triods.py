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
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .sequences import Itinerary, KneadingSequence, itinerary_consistent_with

_STAR = ord("*")


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

    # a tape is preperiod + period, read at positions that wrap back to the
    # start of the period; tape 3 is the replacement stream of a chop
    value = Itinerary.periodic(seq.word)
    itineraries = (*points, value)
    tapes = [p.preperiod + p.period for p in itineraries]
    loops = [len(p.preperiod) for p in itineraries]
    streams = [(0, 0), (1, 0), (2, 0)]  # (tape index, position)

    def advance(t: int, pos: int) -> tuple[int, int]:
        pos += 1
        return (t, pos if pos < len(tapes[t]) else loops[t])

    # generous safety net; genuine queries cycle long before this
    lcm = math.lcm(*(len(p.period) for p in itineraries))
    cap = sum(loops) + 4 * max(seq.period, 1) * lcm + 16

    seen: dict[tuple, int] = {}
    recorded: list[int] = []
    last = [-1, -1, -1]  # step at which each stream was last chopped or excluded

    step = 0
    while True:
        state = (streams[0], streams[1], streams[2])
        if state in seen:
            start = seen[state]
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
            raise TriodError("two streams never separated; inputs are not "
                             "itineraries of distinct tree points")
        seen[state] = step

        heads = [tapes[t][pos] for t, pos in streams]
        star_indices = [i for i, h in enumerate(heads) if h == _STAR]
        if len(star_indices) > 1:
            raise TriodError("two streams hit the critical point simultaneously")

        if star_indices:
            i = star_indices[0]
            others = [heads[j] for j in range(3) if j != i]
            if others[0] != others[1]:
                if last[i] >= 0:
                    raise UnrealizedPointError(
                        "middle candidate was discarded earlier; an input stream "
                        "is not the itinerary of a tree point")
                return Middle(i + 1)
            recorded.append(others[0])
            last[i] = step
            streams = [advance(t, pos) for t, pos in streams]
        elif heads[0] == heads[1] == heads[2]:
            recorded.append(heads[0])
            streams = [advance(t, pos) for t, pos in streams]
        else:
            # exactly one head disagrees (two symbols available, no STAR)
            if heads[0] == heads[1]:
                odd, majority = 2, heads[0]
            elif heads[0] == heads[2]:
                odd, majority = 1, heads[0]
            else:
                odd, majority = 0, heads[1]
            recorded.append(majority)
            last[odd] = step
            streams = [(3, 0) if i == odd else advance(t, pos)
                       for i, (t, pos) in enumerate(streams)]

        step += 1
        if step > cap:
            raise TriodError("triod iteration exceeded its cycle bound (structural bug)")
