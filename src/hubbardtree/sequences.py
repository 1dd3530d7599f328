"""Kneading sequences, itineraries and internal addresses.

Every symbol word is a ``bytes`` value over ``b"01*"``: ``*`` marks the time
steps at which an orbit sits exactly on the critical point, ``1`` the side
of the tree containing the critical value, and ``0`` the other side.  Words
compare, hash and sort as plain bytes (so ``*`` sorts below ``0``).  A
star-periodic sequence ``1 v2 ... v_{n-1} *`` (repeated forever) is the
itinerary of a critical value of period ``n``; everything else in this
package is derived from such a sequence.
"""

from __future__ import annotations

import functools
import math
import re
from _thread import allocate_lock  # threading's own import would cost a cold start
from collections import namedtuple

INFINITY = math.inf

# the largest period an atlas enumerates; the command line's parser needs it
# before any command has loaded the atlas
ENUMERATION_CAP = 16

_FLIP = bytes.maketrans(b"01", b"10")
_ADDRESS_TEXT = re.compile(r"[0-9]+(-[0-9]+)*", re.ASCII)


class ParseError(ValueError):
    """Raised for a malformed kneading sequence or internal address, as text or as a value."""


def _excerpt(text: str | bytes) -> str:
    """Rejected input as quoted in errors: at most its first 40 characters,
    with ... marking a cut."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


class StructuralError(RuntimeError):
    """A computed object violates a property the theory guarantees."""


class CrossCheckError(RuntimeError):
    """An atlas row violated one of the cross-validation laws."""


class KneadingSequence(namedtuple("KneadingSequence", "word")):
    """Periodic symbol sequence, stored as its period word anchored at entry 1.

    Two kinds are supported: star-periodic words ``1...*`` (exactly one STAR,
    in the last slot) and plain 0-1 words (used for the two STAR
    substitutions and for branch-point itineraries).  The first entry is
    always ``1``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, word: bytes) -> "KneadingSequence":
        if not word:
            raise ParseError("empty period word")
        if not isinstance(word, bytes):
            raise ParseError(f"sequence words are bytes, not {type(word).__name__}")
        if word.translate(None, b"01*"):
            raise ParseError(f"invalid sequence word {_excerpt(word)}")
        if not word.startswith(b"1"):
            raise ParseError("kneading sequences must start with 1")
        stars = word.count(b"*")
        if stars and (stars > 1 or not word.endswith(b"*")):
            raise ParseError("misplaced '*': a star-periodic word has exactly "
                             "one STAR, in the final slot")
        return tuple.__new__(cls, (word,))

    @classmethod
    def parse(cls, text: str) -> "KneadingSequence":
        if not text.isascii():
            raise ParseError(f"invalid sequence text {_excerpt(text)}")
        return cls(text.encode("ascii"))

    @property
    def period(self) -> int:
        return len(self.word)

    @property
    def star_periodic(self) -> bool:
        return self.word.endswith(b"*")

    def __str__(self) -> str:
        return self.word.decode("ascii")


def first_mismatch(seq: KneadingSequence, offset: int):
    """Least ``k > offset`` where the sequence differs from its own
    ``offset``-shift, i.e. ``seq[k] != seq[k - offset]``; INFINITY if the two
    agree forever.

    The pair ``(seq[k], seq[k - offset])`` is periodic in ``k`` with the word
    length as a period, so one full window decides the infinite case, and
    ``k - offset`` depends only on ``offset`` modulo the period.
    """
    if offset < 1:
        raise ValueError("offset must be >= 1")
    distance = _facts(seq).distances[offset % len(seq.word)]
    return INFINITY if distance is None else offset + distance


class _Facts:
    """What is worked out once per sequence: ``distances``, made here (for
    each rotation r of the word, one plus the first index where it differs
    from the word, or None), and two slots their modules fill on first use,
    ``diagnostics`` (admissibility) and the triod kernel's ``layout``."""

    __slots__ = "sequence", "distances", "diagnostics", "lock", "layout"

    def __init__(self, seq: KneadingSequence):
        word = seq.word
        n, base = len(word), int.from_bytes(word, "big")
        distances = []
        for r in range(n):
            diff = int.from_bytes(word[r:] + word[:r], "big") ^ base
            distances.append(n + 1 - (diff.bit_length() + 7) // 8 if diff else None)
        self.sequence, self.distances = seq, tuple(distances)
        self.diagnostics = self.layout = None
        self.lock = allocate_lock()  # made here: two threads filling it could make two


_facts = functools.lru_cache(maxsize=1)(_Facts)  # one slot: callers ask of one sequence at a time


def mismatch_orbit(seq: KneadingSequence, k: int, *, stop_above: int | None = None) -> list[int]:
    """The orbit ``k -> first_mismatch(k) -> ...``, stopping before INFINITY
    (or before the first entry above ``stop_above``).  Entries after ``k``
    strictly increase, so membership below the bound is decided exactly."""
    bound = INFINITY if stop_above is None else stop_above
    orbit = [k]
    while (k := first_mismatch(seq, k)) is not INFINITY and k <= bound:
        orbit.append(k)
    return orbit


class InternalAddress(namedtuple("InternalAddress", "entries terminated")):
    """Strictly increasing recoding of a kneading sequence.

    ``terminated`` distinguishes a genuinely finite address from one that was
    truncated at a computation limit (plain periodic words can have infinite
    addresses).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, entries: tuple[int, ...], terminated: bool = True) -> "InternalAddress":
        if not entries or entries[0] != 1:
            raise ParseError("internal addresses start at 1")
        if any(b <= a for a, b in zip(entries, entries[1:])):
            raise ParseError("internal address entries must increase")
        return tuple.__new__(cls, (entries, terminated))

    @classmethod
    def parse(cls, text: str) -> "InternalAddress":
        """Read ASCII address text ``[0-9]+(-[0-9]+)*``, such as ``1-2-4-5-6``."""
        if not _ADDRESS_TEXT.fullmatch(text):
            raise ParseError(f"invalid address text {_excerpt(text)}")
        return cls(tuple(int(part) for part in text.split("-")))

    def __str__(self) -> str:
        return "-".join(str(e) for e in self.entries) + ("" if self.terminated else "-...")


def internal_address(seq: KneadingSequence, *, limit: int | None = None) -> InternalAddress:
    """The mismatch orbit of 1, packaged as an address.

    For a star-periodic sequence the address always terminates, at the
    period.  For a plain periodic word it may not; ``limit`` (default four
    word lengths) caps the largest entry and sets ``terminated=False`` when
    the cap is what stopped the walk.
    """
    if limit is None:
        limit = seq.period if seq.star_periodic else 4 * seq.period
    entries = tuple(mismatch_orbit(seq, 1, stop_above=limit))
    return InternalAddress(entries, terminated=first_mismatch(seq, entries[-1]) is INFINITY)


def address_to_sequence(addr: InternalAddress) -> KneadingSequence:
    """Star-periodic sequence with the given internal address.

    Inverse recipe: grow the word entry by entry, repeating the current
    period up to one slot short of the next entry and breaking the pattern
    there; the final slot becomes the STAR.
    """
    entries = addr.entries
    if len(entries) < 2:
        raise ParseError("need at least two address entries (period >= 2)")
    word = b"1"
    for target in entries[1:]:
        grown = (word * (target // len(word) + 1))[:target]
        word = grown[:-1] + grown[-1:].translate(_FLIP)
    return KneadingSequence(word[:-1] + b"*")


def exact_period(word: bytes) -> int:
    """Smallest divisor d of len(word) with shift-d invariance (no STARs):
    the least rotation that fixes the word, which divides its length."""
    if b"*" in word:
        raise ValueError("exact_period is defined for STAR-free words")
    if not word:
        raise ValueError("exact_period is defined for nonempty words")
    return (word + word).find(word, 1)


class Itinerary(namedtuple("Itinerary", "preperiod period")):
    """Eventually periodic symbol stream identifying a point of the tree.

    Stored in canonical form: the period word is minimal and the preperiod
    cannot be shortened by rotating the period.  Construction normalizes, so
    structural equality is semantic equality of streams, and the value is
    its own hash and sort key.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, preperiod: bytes = b"", period: bytes = b"") -> "Itinerary":
        pre, per = preperiod, period
        if not per:
            raise ValueError("itineraries need a nonempty period word")
        stars = per.count(b"*")
        if stars > 1:
            raise ValueError("at most one STAR per period")
        if not stars:  # a single STAR already makes the word minimal
            per = per[:exact_period(per)]
        while pre and pre[-1] == per[-1]:
            per = per[-1:] + per[:-1]
            pre = pre[:-1]
        return tuple.__new__(cls, (pre, per))

    @classmethod
    def periodic(cls, word: bytes) -> "Itinerary":
        return cls(b"", word)

    def shift(self) -> "Itinerary":
        """Drop the first symbol (one step of the dynamics)."""
        # the shift of a canonical itinerary is canonical: no renormalizing
        if self.preperiod:
            return tuple.__new__(Itinerary, (self.preperiod[1:], self.period))
        return tuple.__new__(Itinerary, (b"", self.period[1:] + self.period[:1]))

    def prefix(self, length: int) -> bytes:
        """The first ``length`` symbols of the stream."""
        return (self.preperiod + self.period * (length // len(self.period) + 1))[:length]

    def __str__(self) -> str:
        return f"{self.preperiod.decode('ascii')}({self.period.decode('ascii')})"


def critical_orbit_itinerary(seq: KneadingSequence, index: int) -> Itinerary:
    """Itinerary of the ``index``-th critical orbit point (0 = critical point).

    The critical value (index 1) has itinerary equal to the sequence itself;
    index 0 is the rotation that puts the STAR first.
    """
    if not seq.star_periodic:
        raise ValueError("critical orbit itineraries need a star-periodic sequence")
    k = (index - 1) % seq.period
    return Itinerary.periodic(seq.word[k:] + seq.word[:k])
