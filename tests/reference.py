"""Helpers that only the tests call, kept out of the package so that no
command compiles them.

The first group works on plain 0-1 words, which the package does not take
as sequences: the two STAR substitutions of a star-periodic word, a plain
word's mismatch walk and its internal address, which may be infinite.  It
is written on ``bytes``, straight from the definitions, and reads nothing
of the package but its public ``INFINITY`` and ``StructuralError``, so a
test can hold the package's own walk against it.

The rest were public functions of the package before.  Every one reads
only the package, including its private ``_diagnostics`` and
``_arm_count``, so a test that checks one of them against an oracle of its
own still tests the package's code.
"""

from __future__ import annotations

from hubbardtree import (
    INFINITY,
    FailureDiagnostic,
    HubbardTree,
    Itinerary,
    KneadingSequence,
    Middle,
    StructuralError,
    UnrealizedPointError,
    analyze_sequence,
    classify_triod,
    failing_periods,
    fails_for_period,
    first_mismatch,
    star_periodic_sequences,
)
from hubbardtree.admissibility import _arm_count, _diagnostics


def word_mismatch(word: bytes, offset: int):
    """Least ``k > offset`` where the word, repeated forever and indexed
    from 1, differs from its own ``offset``-shift; INFINITY if the two agree
    forever, which one period of comparisons decides."""
    if offset < 1:
        raise ValueError("offset must be >= 1")
    n = len(word)
    for k in range(offset + 1, offset + n + 1):
        if word[(k - 1) % n] != word[(k - 1 - offset) % n]:
            return k
    return INFINITY


def word_orbit(word: bytes, k: int, stop_above: int) -> list[int]:
    """The mismatch walk ``k -> word_mismatch(k) -> ...``, stopping before
    INFINITY or before the first entry above ``stop_above``."""
    orbit = [k]
    while (k := word_mismatch(word, k)) <= stop_above:
        orbit.append(k)
    return orbit


def word_address(word: bytes, limit: int) -> tuple[tuple[int, ...], bool]:
    """The internal address of a word, its entries up to ``limit``, and
    whether it terminates there: a plain word's address may be infinite."""
    entries = tuple(word_orbit(word, 1, limit))
    return entries, word_mismatch(word, entries[-1]) is INFINITY


def orbit_contains(word: bytes, start: int, target: int) -> bool:
    """Whether ``target`` lies on the mismatch walk of ``start``."""
    return word_orbit(word, start, target)[-1] == target


def upper_lower(word: bytes) -> tuple[bytes, bytes]:
    """The two STAR substitutions of a star-periodic word, 0 and 1 in the
    final slot, ordered (upper, lower).

    Exactly one substitution has the period in its internal address; that one
    is the upper sequence.
    """
    if not word.endswith(b"*"):
        raise ValueError("upper/lower sequences exist only for star-periodic input")
    n = len(word)
    zero, one = word[:-1] + b"0", word[:-1] + b"1"
    zero_has = orbit_contains(zero, 1, n)
    if zero_has == orbit_contains(one, 1, n):
        raise StructuralError(
            f"expected exactly one substitution of {word!r} to contain {n} in its address")
    return (zero, one) if zero_has else (one, zero)


def closest_precritical_itinerary(seq: KneadingSequence, step: int) -> Itinerary:
    """Itinerary of the unique precritical point of the given step that is
    not shielded from the critical value by an earlier one.

    Step 1 gives the critical point, step = period the critical value.  The
    itinerary is symbolic: for steps off the internal address no point of the
    tree need realize it (see lies_between).
    """
    if not 1 <= step <= seq.period:
        raise ValueError("step must lie between 1 and the period")
    star_first = seq.word[-1:] + seq.word[:-1]
    return Itinerary(seq.word[: step - 1], star_first)


def lies_between(seq: KneadingSequence, point: Itinerary, a: Itinerary, b: Itinerary) -> bool:
    """Whether the point with the middle itinerary lies strictly between the
    other two in the tree for ``seq``, by one triod query.

    Tolerates symbolic itineraries that no tree point realizes: a query that
    reaches a contradiction cannot have its point between the ends, so it
    counts as False.
    """
    if point == a or point == b:
        return False
    try:
        return classify_triod(a, point, b, seq) == Middle(2)
    except UnrealizedPointError:
        return False


def tree_record(tree: HubbardTree) -> dict:
    """The tree as a plain record, whose json.dumps(sort_keys=True) with
    compact separators is the text HubbardTree.to_json writes."""
    return {
        "sequence": str(tree.sequence),
        "vertices": [
            {"id": v.id, "role": v.role_text(), "itinerary": str(v.itinerary)}
            for v in tree.vertices
        ],
        "edges": [list(edge) for edge in tree.edges],
        "dynamics": dict(sorted(tree.dynamics.items())),
        "critical": tree.critical,
    }


def diagnostic_dict(diag: FailureDiagnostic) -> dict:
    """A FailureDiagnostic as the object its to_json text holds."""
    return {**diag._asdict(), "fails": diag.fails}


def diagnostics_record(seq: KneadingSequence) -> list[dict]:
    """Per-period failure diagnostics over the exhaustive scan range."""
    return [diagnostic_dict(diag) for diag in _diagnostics(seq)]


def is_admissible(seq: KneadingSequence) -> bool:
    return not failing_periods(seq)


def evil_arm_count(seq: KneadingSequence, m: int) -> int:
    """Arm count at the evil branch point of a failing period, by the
    package's shared arm-count rule."""
    diag = fails_for_period(seq, m)
    if not diag.fails:
        raise ValueError(f"{m} is not a failing period of {seq}")
    return _arm_count(seq, diag)


def tame_arm_count(seq: KneadingSequence, m: int) -> int:
    """Predicted arm count q(m) at an internal-address entry m, by the
    package's shared arm-count rule.

    q(m) >= 3 signals a tame branch point of exact period m; q(m) = 2 means
    the periodic point at that scale is an ordinary arc point.
    """
    diag = fails_for_period(seq, m)
    if diag.cond1:
        raise ValueError(f"{m} is not an internal-address entry of {seq}")
    if first_mismatch(seq, m) is INFINITY:
        raise ValueError(f"first mismatch of {m} is infinite; no periodic point to count")
    return _arm_count(seq, diag)


def embedding_census(period: int) -> int:
    """Total embeddings over every (admissible) sequence of the exact period."""
    return sum(analyze_sequence(seq).embeddings
               for seq in star_periodic_sequences(period, exact=True))
