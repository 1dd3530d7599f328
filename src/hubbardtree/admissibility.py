"""Per-period admissibility diagnostics and the predicted branch spectrum.

Everything here is computed from the kneading sequence alone, without
building the tree; the tree module later re-derives the same data
geometrically and the two sides are cross-checked against each other.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .sequences import (
    INFINITY,
    Itinerary,
    KneadingSequence,
    StructuralError,
    _facts,
    first_mismatch,
)


class OrbitKind(Enum):
    TAME = "tame"
    EVIL = "evil"

    def __str__(self) -> str:
        return self.value


class FailureDiagnostic(namedtuple("FailureDiagnostic", "period cond1 cond2 cond3")):
    """The three conjuncts of the period-m failure test, individually.

    ``fails`` is their conjunction: m is a candidate period missing from the
    internal address (cond1), m is forced to be an exact period because every
    proper divisor mismatches within m steps (cond2), and the mismatch orbit
    of the reduced residue r of first_mismatch(m) comes back through m
    (cond3).
    """

    __slots__ = ()

    @property
    def fails(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3

    def to_json(self) -> str:
        """The fields and ``fails`` as json.dumps(sort_keys=True) writes them compactly."""
        flag = "false", "true"
        return (f'{{"cond1":{flag[self.cond1]},"cond2":{flag[self.cond2]},'
                f'"cond3":{flag[self.cond3]},"fails":{flag[self.fails]},"period":{self.period}}}')


class BranchSpectrumEntry(
        namedtuple("BranchSpectrumEntry", "period arms kind characteristic_itinerary")):
    """Predicted periodic branch orbit: period, arm count, OrbitKind, and the
    Itinerary of its characteristic point (the first ``period`` entries of
    the kneading sequence, repeated)."""

    __slots__ = ()


def _reduced_residue(value: int, modulus: int) -> int:
    """The unique r in {1..modulus} congruent to value mod modulus."""
    return (value - 1) % modulus + 1


def fails_for_period(seq: KneadingSequence, m: int) -> FailureDiagnostic:
    """Evaluate the three failure conditions at period ``m``.

    Defined for every m >= 1 so that the bound ``m < period`` can itself be
    tested; a star-periodic sequence never fails at m >= its period.
    """
    if m < 1:
        raise ValueError("periods are positive")
    # first_mismatch(k) is k + (distances[k % n] or INFINITY): one table read per call
    distances, n = _facts(seq).distances, len(seq.word)
    k = 1
    while k < m:
        k += distances[k % n] or INFINITY
    cond1 = k != m
    cond2 = True
    for k in range(1, m // 2 + 1):  # the proper divisors of m
        if m % k == 0 and k + (distances[k % n] or INFINITY) > m:
            cond2 = False
            break
    distance, cond3 = distances[m % n], False
    if distance is not None:
        k = _reduced_residue(m + distance, m)
        while k < m:
            k += distances[k % n] or INFINITY
        cond3 = k == m
    return FailureDiagnostic(m, cond1, cond2, cond3)


def _diagnostics(seq: KneadingSequence) -> tuple[FailureDiagnostic, ...]:
    """The one pass over the candidate periods 1..period-1, exhaustive for a
    star-periodic sequence, kept in the sequence's cached value."""
    facts = _facts(seq)
    if facts.diagnostics is None:
        if not seq.star_periodic:
            raise ValueError("failing periods are scanned for star-periodic sequences")
        facts.diagnostics = tuple(fails_for_period(seq, m) for m in range(1, seq.period))
    return facts.diagnostics


def _arm_count(seq: KneadingSequence, diag: FailureDiagnostic) -> int:
    """Arm count q at the periodic point of period m that ``diag`` describes.

    Writing first_mismatch(m) = (q-2)m + r with r in {1..m} gives q at an
    evil branch point; at an internal-address entry whose residue orbit
    comes back through m (cond3 without cond1) the count is one less.  The
    division is taken on the reduced residue, since floor(first_mismatch(m)/m)
    overcounts by one when m divides first_mismatch(m).  An evil point has
    at least 3 arms, any other periodic point at least 2.
    """
    m = diag.period
    rho_m = first_mismatch(seq, m)
    q = (rho_m - _reduced_residue(rho_m, m)) // m + 2 - (diag.cond3 and not diag.cond1)
    if q < (3 if diag.fails else 2):
        point = "evil branch point" if diag.fails else "periodic point"
        raise StructuralError(f"{point} of {seq} at period {m} has {q} arms")
    return q


def failing_periods(seq: KneadingSequence) -> list[int]:
    """All failing periods; the scan range 1..period-1 is exhaustive."""
    return [diag.period for diag in _diagnostics(seq) if diag.fails]


def diagnostics_json(seq: KneadingSequence) -> str:
    """The per-period failure diagnostics over the exhaustive scan range, as
    compact sorted JSON written without json."""
    return f'[{",".join(diag.to_json() for diag in _diagnostics(seq))}]'


def branch_spectrum(seq: KneadingSequence) -> list[BranchSpectrumEntry]:
    """All predicted periodic branch orbits, in increasing period.

    One EVIL entry per failing period, one TAME entry per internal-address
    entry below the period (cond1 false) whose q(m) reaches 3; both read
    the same diagnostic.  The characteristic itineraries are materialized
    here so the tree builder never recomputes prefixes.
    """
    entries: list[BranchSpectrumEntry] = []
    for diag in _diagnostics(seq):
        if diag.cond1 and not diag.fails:  # neither evil nor an address entry
            continue
        m, q = diag.period, _arm_count(seq, diag)
        if diag.fails or q >= 3:
            kind = OrbitKind.EVIL if diag.fails else OrbitKind.TAME
            entries.append(BranchSpectrumEntry(m, q, kind, Itinerary.periodic(seq.word[:m])))
    for entry in entries:
        # a shorter exact period would mean two orbit points share an itinerary
        if len(entry.characteristic_itinerary.period) != entry.period:
            raise StructuralError(f"{seq}: spectrum entry {entry} has a shorter exact period")
    return entries
