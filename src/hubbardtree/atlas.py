"""Full-pipeline rows and the exhaustive enumeration harness.

A row runs one sequence through the whole stack (address, diagnostics,
spectrum, tree, orbits, embeddings) and enforces the internal cross-checks;
the enumeration walks every star-periodic sequence up to a period bound in
lexicographic order, so two runs, at any parallelism, produce identical
bytes.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterator
from itertools import product as cartesian

from .admissibility import OrbitKind, _diagnostics
from .embedding import count_embeddings
# ENUMERATION_CAP and CrossCheckError are re-exported
from .sequences import ENUMERATION_CAP, CrossCheckError, KneadingSequence, StructuralError
from .tree import _quoted, build_tree, classify_orbits, verify_axioms


class AtlasRow(namedtuple("AtlasRow", (
        "sequence period internal_address admissible failing_periods spectrum embeddings "
        "tree_hash vertices edges endpoints max_branch_period"))):
    """One sequence's pass through the pipeline; ``spectrum`` holds the
    tree's BranchSpectrumEntry values, one per predicted orbit."""

    __slots__ = ()

    def to_json(self) -> str:
        """The row's one writer: json.dumps(sort_keys=True, separators=(",", ":")) over its
        fields, each spectrum entry as {arms, itinerary, kind, period}, written directly."""
        q = _quoted
        spectrum = ",".join(f'{{"arms":{e.arms},"itinerary":{q(str(e.characteristic_itinerary))},'
                            f'"kind":{q(str(e.kind))},"period":{e.period}}}' for e in self.spectrum)
        return (f'{{"admissible":{"true" if self.admissible else "false"},"edges":{self.edges},'
                f'"embeddings":{self.embeddings},"endpoints":[{",".join(map(q, self.endpoints))}],'
                f'"failing_periods":[{",".join(map(str, self.failing_periods))}],'
                f'"internal_address":{q(self.internal_address)},"max_branch_period":'
                f'{self.max_branch_period},"period":{self.period},"sequence":{q(self.sequence)},'
                f'"spectrum":[{spectrum}],"tree_hash":{q(self.tree_hash)},'
                f'"vertices":{self.vertices}}}')

    def to_text(self) -> str:
        lines = [
            f"sequence: {self.sequence}",
            f"period: {self.period}",
            f"internal-address: {self.internal_address}",
            f"admissible: {'true' if self.admissible else 'false'}",
            "failing-periods: " + (",".join(str(m) for m in self.failing_periods) or "none"),
        ]
        lines += [f"orbit: kind={e.kind} period={e.period} arms={e.arms} itinerary="
                  f"{e.characteristic_itinerary}" for e in self.spectrum] or ["orbit: none"]
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
        internal_address="-".join([*(str(d.period) for d in _diagnostics(seq) if not d.cond1),
                                   str(seq.period)]),  # the m < n where cond1 is false, then n
        admissible=admissible,
        failing_periods=tuple(failing),
        spectrum=tree.spectrum,
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

    return (f'{{"atlas":"hubbardtree","exact":{"true" if exact else "false"},'
            f'"period_bound":{max_period},"version":{_quoted(__version__)}}}')


def enumerate_rows(max_period: int, *, exact: bool = False, jobs: int = 1) -> Iterator[str]:
    """JSON row per sequence, lexicographic order regardless of parallelism.

    ``jobs`` is clamped to the CPUs this process may run on (its affinity,
    where the platform has one, else the CPU count).
    """
    texts = [str(seq) for seq in star_periodic_sequences(max_period, exact=exact)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    if jobs <= 1:
        for text in texts:
            yield _row_json(text)
        return
    from multiprocessing import Pool  # imported here so single-sequence commands skip it
    with Pool(jobs) as pool:
        yield from pool.imap(_row_json, texts, chunksize=8)
