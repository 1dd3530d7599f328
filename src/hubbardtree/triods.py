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

The streams are read from the kernel's layout for the sequence, kept in the
sequence's one cached value (see sequences._facts and _lay).  Every
itinerary queried is laid out once on the layout's tape, so a stream is one
tape position.  Every stream on the tape follows the critical value after
each STAR: an itinerary is checked once, when it is laid out, and its
shifts, read from its region, follow the value as it does, so a query
whose points are all on the tape needs no check.  A run of all-equal
heads only records and shifts.  Most runs are one symbol long (65% on the
period-9 atlas): when the next three symbols are not all equal, or one is
a STAR, the head is recorded and each stream steps one state along canon.
A longer run is taken in one step: it ends at the first difference of the
three ``reach``-symbol windows (the top bit of their XOR) or at the first
STAR.  States are then keyed only at events (exclude, chop, middle); the
answer is unchanged, because a repeated state still closes whole periods
of the state sequence, so the same streams stay untouched during it, and
Itinerary normalization absorbs the later cycle start.

The layout also keeps a memo from each event state (a, b, c) to the
outcome of the query that passed it, and a later query that reaches a
memoized state stops there.  A state fixes its whole future, so the replay
is exact once the outcome is read from where the later query stands (see
_rebase): a Branch outcome keeps the recorded symbols and the cycle that
repeats after them, and the later query's own symbols go in front; a Middle
outcome keeps its index, the path that produced it (STAR or cycle survivor)
and the step of that index's last discard, so a discard before or after the
state raises the same UnrealizedPointError as a run without the memo would;
an error outcome keeps its message.  Where the cycle is detected does not
matter: one whole period of the state cycle has the same events from any of
its states, and Itinerary normalization absorbs the cycle start.  The step
cap is a safety net against a structural bug that genuine queries stay far
below; a replay returns without counting the steps it skips.

Positions are only meaningful on the layout they were read from, so a query
reads all three of its positions from one layout.  An itinerary too long for
the layout's window starts a fresh layout, and the memo, keyed by
positions, starts afresh with it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .sequences import Itinerary, KneadingSequence, _Facts, _facts

_STAR = ord("*")
_EQUAL = "triod points must be pairwise distinct"
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


class Middle(namedtuple("Middle", "position")):
    """One of the three queried points lies between the other two: the one
    at ``position``, counted from 1 in argument order."""

    __slots__ = ()


class Branch(namedtuple("Branch", "itinerary")):
    """The three points span a genuine interior branch point, at ``itinerary``."""

    __slots__ = ()


TriodResult = Middle | Branch
_MIDDLES = Middle(1), Middle(2), Middle(3)  # most answers: one value each, made once
_Layout = namedtuple("_Layout", "tape canon reach starts memo")


def _lay(facts: _Facts, points: tuple[Itinerary, ...] | list[Itinerary]) -> _Layout:
    """The kernel's state for ``facts.sequence``, a layout and its memo, made
    on first use, holding every one of the points, laying out the missing.

    A layout is (tape, canon, reach, starts, memo).  Every itinerary queried
    is laid end to end on the tape, the critical value first (at 0).  An
    itinerary's region is its preperiod and enough copies of its period that
    ``reach`` symbols can be sliced from each of its states (its first
    preperiod + period positions); ``canon`` maps every position of a region
    back to the state it reads, and ``starts`` maps each itinerary laid out,
    and each of its shifts, to the state that reads it: a shift is not laid
    out again, so the critical orbit is read from the value's region.
    ``reach`` is at least three times the longest itinerary laid out:
    streams that agree over that many symbols agree forever (Fine and
    Wilf).  ``memo`` maps event states to outcomes (see the module
    docstring).  A longer itinerary starts a fresh layout, with an empty memo.

    A missing point is checked first: the ``reach`` symbols after the
    first STAR of its stream must be the value's, else TriodError, and
    the point is not laid out.  The first STAR decides for every STAR:
    after it the stream is the value, whose STARs the value follows.
    """
    with facts.lock:
        seq, layout = facts.sequence, facts.layout
        # the value's period is the whole word: its one STAR keeps it minimal
        reach = 3 * max(len(seq.word), *(len(p.preperiod) + len(p.period) for p in points))
        if layout is None or reach > layout.reach:
            layout = facts.layout = _Layout(bytearray(), [], reach, {}, {})
            _append(layout, Itinerary.periodic(seq.word))
        tape, reach, starts = layout.tape, layout.reach, layout.starts
        for p in points:
            if p in starts:
                continue
            stream = p.prefix(len(p.preperiod) + len(p.period) + reach)
            star = stream.find(_STAR)
            if star >= 0 and stream[star + 1:star + 1 + reach] != tape[:reach]:
                raise TriodError(f"itinerary {p} does not follow {seq} after its STAR")
            _append(layout, p)
        return layout


def _append(layout: _Layout, itin: Itinerary) -> None:
    """Append the region of ``itin`` to the layout, unchecked, and register
    its states as ``itin`` and its shifts, except any laid out before."""
    tape, canon, reach, starts, _ = layout
    (pre, per), at = itin, len(tape)
    size = len(pre) + len(per)
    region = pre + per * ((size + reach) // len(per) + 1)
    cycle = list(range(at + len(pre), at + size))  # the states of the period
    tape += region
    canon += range(at, at + size)
    canon += (cycle * (len(region) // len(per)))[:len(region) - size]
    for state in range(at, at + size):
        starts.setdefault(itin, state)
        itin = itin.shift()


def classify_triod(
    t1: Itinerary,
    t2: Itinerary,
    t3: Itinerary,
    seq: KneadingSequence,
) -> TriodResult:
    """Classify the triod spanned by three distinct itineraries.

    Raises TriodError when the inputs cannot belong to three distinct points
    of the tree for ``seq``: equal streams, then a STAR not followed by the
    critical value, or a contradiction the iteration meets.
    """
    facts = _facts(seq)
    layout = facts.layout  # None until the first query on seq
    starts = {} if layout is None else layout.starts
    a, b, c = starts.get(t1), starts.get(t2), starts.get(t3)
    if a is None or b is None or c is None:
        if t1 == t2 or t1 == t3 or t2 == t3:  # distinct first, then _lay checks STARs
            raise TriodError(_EQUAL)
        layout = _lay(facts, (t1, t2, t3))
        a, b, c = layout.starts[t1], layout.starts[t2], layout.starts[t3]
    tape, canon, reach, _, memo = layout
    if a == b or a == c or b == c:  # equal positions exactly when equal streams
        raise TriodError(_EQUAL)

    n = len(seq.word)
    cap = 4 * n + 16  # a lower bound of _cap, which is only computed past it
    seen: dict[tuple, int] = {}
    recorded = bytearray()
    last = [-1, -1, -1]  # step at which each stream was last chopped or excluded

    step = 0
    while True:
        if step > cap and step > (cap := _cap(n, t1, t2, t3)):
            raise TriodError("triod iteration exceeded its cycle bound (structural bug)")
        x, y, z = tape[a], tape[b], tape[c]
        if x == y == z != _STAR:
            if not tape[a + 1] == tape[b + 1] == tape[c + 1] != _STAR:
                # a run of one symbol: step it
                recorded.append(x)
                a, b, c = canon[a + 1], canon[b + 1], canon[c + 1]
                step += 1
                continue
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
                outcome = TriodError, _UNSEPARATED
                break
            recorded += window[:run]
            a, b, c = canon[a + run], canon[b + run], canon[c + run]
            step += run
            continue

        state = a, b, c
        hit = memo.get(state)
        if hit is not None:
            outcome = _rebase(*hit, step, recorded, last)
            break
        start = seen.setdefault(state, step)
        if start != step:
            untouched = [i for i in range(3) if last[i] < start]  # during the cycle
            if len(untouched) == 1:
                index = untouched[0]
                outcome = (Middle, index, last[index], "cycle survivor was discarded "
                           "earlier; an input stream is not the itinerary of a tree point")
            elif not untouched:
                outcome = Branch, bytes(recorded), bytes(recorded[start:])
            else:
                outcome = TriodError, _UNSEPARATED
            break

        # two heads agree: record their symbol and discard the odd stream,
        # excluding a STAR head (it shifts) or chopping a 0-1 head (its stream
        # restarts at the critical value, position 0)
        if x == y:
            last[2], common = step, x
            a, b, c = canon[a + 1], canon[b + 1], canon[c + 1] if z == _STAR else 0
        elif x == z:
            last[1], common = step, x
            a, b, c = canon[a + 1], canon[b + 1] if y == _STAR else 0, canon[c + 1]
        elif y == z:
            last[0], common = step, y
            a, b, c = canon[a + 1] if x == _STAR else 0, canon[b + 1], canon[c + 1]
        else:  # three symbols: the STAR head's point separates the other two
            i = 0 if x == _STAR else 1 if y == _STAR else 2
            outcome = (Middle, i, last[i], "middle candidate was discarded earlier; "
                       "an input stream is not the itinerary of a tree point")
            break
        if common == _STAR:
            outcome = TriodError, "two streams hit the critical point simultaneously"
            break
        recorded.append(common)
        step += 1

    for state, at in seen.items():
        memo[state] = outcome, at
    kind = outcome[0]
    if kind is Middle:  # (Middle, index, step of its last discard, message)
        if outcome[2] >= 0:
            raise UnrealizedPointError(outcome[3])
        return _MIDDLES[outcome[1]]
    if kind is Branch:  # the recorded symbols, then the cycle forever
        return Branch(Itinerary(outcome[1], outcome[2]))
    raise TriodError(outcome[1])


def _cap(n: int, *points: Itinerary) -> int:
    """A generous safety net on a query's steps; genuine queries cycle long
    before this."""
    return (sum(len(p.preperiod) for p in points)
            + 4 * n * math.lcm(n, *(len(p.period) for p in points)) + 16)


def _rebase(outcome: tuple, at: int, step: int, recorded: bytearray, last: list) -> tuple:
    """A memoized outcome, recorded by a query that met its state at step
    ``at``, as seen by a query that meets the state at ``step`` after
    recording ``recorded`` and discarding at ``last``."""
    kind = outcome[0]
    if kind is Branch:
        _, symbols, cycle = outcome
        return Branch, bytes(recorded) + symbols[at:], cycle
    if kind is Middle:
        _, index, discarded, message = outcome
        return Middle, index, step + discarded - at if discarded >= at else last[index], message
    return outcome
