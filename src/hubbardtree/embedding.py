"""Planar embeddings of a built tree: existence, count, and generation.

An embedding is a cyclic (counterclockwise) order of the incident edges at
every vertex such that the dynamics respects those orders at every branch
point away from the critical point.  Evil orbits make this impossible; with
only tame orbits, the free choices live exactly at the characteristic
points, one rotation amount coprime to the arm count each, and everything
else is forced by pulling orders back along the dynamics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

from .admissibility import OrbitKind
from .tree import HubbardTree, ObservedOrbit, StructuralError, classify_orbits


class EvilOrbitError(ValueError):
    """Embedding requested for a tree with evil orbits."""

    def __init__(self, periods: list[int]):
        self.periods = periods
        super().__init__(
            "tree has evil orbits of period "
            + ", ".join(str(p) for p in periods)
            + " and admits no planar embedding")


def coprime_rotations(q: int) -> list[int]:
    """The rotation amounts s in {1, ..., q-1} coprime to q."""
    return [s for s in range(1, q) if math.gcd(s, q) == 1]


def euler_phi(q: int) -> int:
    """Count of i in {1, ..., q-1} coprime to q."""
    if q < 1:
        raise ValueError("q must be positive")
    return len(coprime_rotations(q))


@dataclass(frozen=True)
class EmbeddedTree:
    tree: HubbardTree
    cyclic_order: dict[str, tuple[str, ...]]
    rotations: dict[str, int]

    def canonical_cyclic_order(self) -> dict[str, tuple[str, ...]]:
        """Rotation-normalized orders: each list starts at the smallest
        neighbor in vertex order, so equal embeddings compare equal."""
        order = {v.id: i for i, v in enumerate(self.tree.vertices)}
        canonical = {}
        for vid, arms in self.cyclic_order.items():
            if arms:
                at = min(range(len(arms)), key=lambda i: order[arms[i]])
                canonical[vid] = arms[at:] + arms[:at]
            else:
                canonical[vid] = arms
        return canonical

    def to_record(self) -> dict:
        return {
            "tree": self.tree.to_record(),
            "cyclic_order": {
                vid: list(arms) for vid, arms in sorted(self.canonical_cyclic_order().items())
            },
            "rotations": dict(sorted(self.rotations.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))


def count_embeddings(tree: HubbardTree | list[ObservedOrbit]) -> int:
    """Number of dynamics-respecting embeddings: 0 with an evil orbit,
    otherwise the product of euler_phi over the characteristic arm counts.

    Takes the tree, or the orbits classify_orbits already returned for it.
    """
    orbits = classify_orbits(tree) if isinstance(tree, HubbardTree) else tree
    if any(o.kind is OrbitKind.EVIL for o in orbits):
        return 0
    return math.prod(euler_phi(o.arms) for o in orbits)


def verify_embedding(embedded: EmbeddedTree) -> bool:
    """True iff at every branch vertex away from the critical point the
    tree's arm map embeds the local cyclic order into the one at the image."""
    tree = embedded.tree
    orders = embedded.cyclic_order
    for v in tree.vertices:
        vid = v.id
        if vid == tree.critical or tree.degree(vid) < 3:
            continue
        arms = orders[vid]
        if sorted(arms) != sorted(tree.neighbors(vid)):
            return False
        direction = tree.arm_map(vid)
        images = [direction[w] for w in arms]
        if len(set(images)) != len(images):
            return False
        target = orders[tree.dynamics[vid]]
        slots = {w: i for i, w in enumerate(target)}
        try:
            positions = [slots[w] for w in images]
        except KeyError:
            return False
        total = len(target)
        winding = sum((positions[(i + 1) % len(positions)] - positions[i]) % total
                      for i in range(len(positions)))
        if winding != total:
            return False
    return True


def generate_embedding(tree: HubbardTree, rotations: dict[str, int]) -> EmbeddedTree:
    """Build the embedding determined by one rotation choice per
    characteristic branch point.

    The arms of each characteristic point of arm count q are laid out so the
    first return map advances them by the chosen s (coprime to q) slots;
    every other branch vertex inherits the unique order compatible with its
    image.  The result always passes verify_embedding; a failure is a bug,
    not an input error.
    """
    return _embed(tree, _tame_orbits(tree), rotations)


def _tame_orbits(tree: HubbardTree) -> list[ObservedOrbit]:
    orbits = classify_orbits(tree)
    evil = [o.period for o in orbits if o.kind is OrbitKind.EVIL]
    if evil:
        raise EvilOrbitError(evil)
    return orbits


def _embed(tree: HubbardTree, orbits: list[ObservedOrbit],
           rotations: dict[str, int]) -> EmbeddedTree:
    expected = {o.characteristic for o in orbits}
    if set(rotations) != expected:
        raise ValueError(f"rotations must be given exactly for {sorted(expected)}")

    cyclic: dict[str, tuple[str, ...]] = {}
    for v in tree.vertices:
        if tree.degree(v.id) < 3:
            cyclic[v.id] = tuple(tree.neighbors(v.id))

    for orbit in orbits:
        z, q = orbit.characteristic, orbit.arms
        s = rotations[z]
        if not 1 <= s < q or math.gcd(s, q) != 1:
            raise ValueError(f"rotation {s} at {z} is not coprime to {q}")
        layout: list[str | None] = [None] * q
        arm = tree.arm_toward(z, tree.critical)
        for j in range(q):
            slot = (j * s) % q
            if layout[slot] is not None:
                raise StructuralError(f"rotation {s} at {z} fills slot {slot} twice")
            layout[slot] = arm
            arm = orbit.permutation[arm]
        cyclic[z] = tuple(layout)  # type: ignore[arg-type]

    pending = {v.id for v in tree.vertices if v.id not in cyclic}
    while pending:
        progressed = False
        for vid in sorted(pending):
            image = tree.dynamics[vid]
            if image not in cyclic:
                continue
            direction = tree.arm_map(vid)
            slots = {w: i for i, w in enumerate(cyclic[image])}
            try:
                ordered = sorted(tree.neighbors(vid), key=lambda w: slots[direction[w]])
            except KeyError as exc:
                raise StructuralError(f"direction image at {vid} missing from "
                                      f"cyclic order at {image}") from exc
            if len({direction[w] for w in ordered}) != len(ordered):
                raise StructuralError(f"direction map at {vid} is not injective")
            cyclic[vid] = tuple(ordered)
            pending.discard(vid)
            progressed = True
            break
        if not progressed:
            raise StructuralError(f"cyclic orders could not be propagated to {sorted(pending)}")

    embedded = EmbeddedTree(tree, cyclic, dict(rotations))
    if not verify_embedding(embedded):
        raise StructuralError("generated embedding failed verification")
    return embedded


def enumerate_embeddings(tree: HubbardTree) -> list[EmbeddedTree]:
    """Every embedding, one per tuple of coprime rotations, in a fixed order."""
    return _embeddings(tree, every=True)


def _embeddings(tree: HubbardTree, *, every: bool) -> list[EmbeddedTree]:
    """Every embedding, or only the one with rotation 1 at each characteristic
    point, from a single classification of the orbits."""
    orbits = _tame_orbits(tree)
    characteristic = [o.characteristic for o in orbits]
    choices = [coprime_rotations(o.arms) if every else [1] for o in orbits]
    return [_embed(tree, orbits, dict(zip(characteristic, combo))) for combo in product(*choices)]
