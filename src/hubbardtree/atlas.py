"""Full-pipeline rows and the exhaustive enumeration harness.

A row runs one sequence through the whole stack (address, diagnostics,
spectrum, tree, orbits, embeddings) and enforces the internal cross-checks;
the enumeration walks every star-periodic sequence up to a period bound in
lexicographic order, so two runs, at any parallelism, produce identical
bytes.
"""

from __future__ import annotations

import json
import os
from itertools import product as cartesian
from typing import Iterator, NamedTuple

from .admissibility import OrbitKind, diagnostics_record  # diagnostics_record is re-exported
from .embedding import count_embeddings
from .sequences import KneadingSequence, StructuralError, internal_address
from .tree import build_tree, classify_orbits, verify_axioms

ENUMERATION_CAP = 16


class CrossCheckError(RuntimeError):
    """An atlas row violated one of the cross-validation laws."""


class AtlasRow(NamedTuple):
    sequence: str
    period: int
    internal_address: str
    admissible: bool
    failing_periods: tuple[int, ...]
    spectrum: tuple[dict, ...]
    embeddings: int
    tree_hash: str
    vertices: int
    edges: int
    endpoints: tuple[str, ...]
    max_branch_period: int

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"sequence: {self.sequence}",
            f"period: {self.period}",
            f"internal-address: {self.internal_address}",
            f"admissible: {'true' if self.admissible else 'false'}",
            "failing-periods: " + (",".join(str(m) for m in self.failing_periods) or "none"),
        ]
        lines += [f"orbit: kind={entry['kind']} period={entry['period']} "
                  f"arms={entry['arms']} itinerary={entry['itinerary']}"
                  for entry in self.spectrum] or ["orbit: none"]
        lines.append(
            f"tree: vertices={self.vertices} edges={self.edges} "
            f"endpoints={','.join(self.endpoints)} max-branch-period={self.max_branch_period}")
        lines.append(f"embeddings: {self.embeddings}")
        lines.append(f"tree-hash: {self.tree_hash}")
        return "\n".join(lines) + "\n"


def analyze_sequence(seq: KneadingSequence | str) -> AtlasRow:
    """Run the pipeline on one sequence and enforce every cross-check.

    Raises CrossCheckError when the predicted and observed sides disagree;
    by design that should never fire, so any instance is a reportable bug.
    """
    if isinstance(seq, str):
        seq = KneadingSequence.parse(seq)
    tree = build_tree(seq)
    # admissibility fails exactly at the periods of the evil orbits
    failing = [e.period for e in tree.spectrum if e.kind is OrbitKind.EVIL]

    axioms = verify_axioms(tree)
    broken = sorted(name for name, ok in axioms.items() if not ok)
    if broken:
        raise CrossCheckError(f"{seq}: axiom checks failed: {broken}")

    try:
        orbits = classify_orbits(tree)  # re-checks the predicted spectrum
    except StructuralError as exc:
        raise CrossCheckError(str(exc)) from exc
    embeddings = count_embeddings(orbits)

    admissible = not failing
    if admissible != (embeddings >= 1):
        raise CrossCheckError(
            f"{seq}: admissible={admissible} but embedding count is {embeddings}")
    if embeddings >= seq.period:
        raise CrossCheckError(
            f"{seq}: embedding count {embeddings} reached the period {seq.period}")

    return AtlasRow(
        sequence=str(seq),
        period=seq.period,
        internal_address=str(internal_address(seq)),
        admissible=admissible,
        failing_periods=tuple(failing),
        spectrum=tuple(entry.summary() for entry in tree.spectrum),
        embeddings=embeddings,
        tree_hash=tree.tree_hash(),
        vertices=len(tree.vertices),
        edges=len(tree.edges),
        endpoints=tuple(sorted(tree.endpoints())),
        max_branch_period=max((o.period for o in orbits), default=0),
    )


def star_periodic_sequences(max_period: int, *, exact: bool = False) -> list[KneadingSequence]:
    """All star-periodic sequences with period <= max_period (or == with
    ``exact``), in lexicographic order of their text."""
    if not 2 <= max_period <= ENUMERATION_CAP:
        raise ValueError(f"period bound must lie in 2..{ENUMERATION_CAP}")
    periods = [max_period] if exact else range(2, max_period + 1)
    sequences = []
    for n in periods:
        for middle in cartesian(b"01", repeat=n - 2):
            sequences.append(KneadingSequence(b"1" + bytes(middle) + b"*"))
    sequences.sort(key=str)
    return sequences


def _row_json(text: str) -> str:
    return analyze_sequence(text).to_json()


def atlas_header(max_period: int, exact: bool) -> str:
    from . import __version__

    header = {
        "atlas": "hubbardtree",
        "version": __version__,
        "period_bound": max_period,
        "exact": exact,
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":"))


def enumerate_rows(max_period: int, *, exact: bool = False, jobs: int = 1) -> Iterator[str]:
    """JSON row per sequence, lexicographic order regardless of parallelism.

    ``jobs`` is clamped to the CPU count.
    """
    texts = [str(seq) for seq in star_periodic_sequences(max_period, exact=exact)]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        for text in texts:
            yield _row_json(text)
        return
    from multiprocessing import Pool  # imported here so single-sequence commands skip it
    with Pool(jobs) as pool:
        yield from pool.imap(_row_json, texts, chunksize=8)


def embedding_census(period: int) -> int:
    """Total embeddings over every (admissible) sequence of the exact period."""
    total = 0
    for seq in star_periodic_sequences(period, exact=True):
        total += analyze_sequence(seq).embeddings
    return total
