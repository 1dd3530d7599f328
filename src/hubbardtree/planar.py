"""Planar embeddings of a built tree: generation and verification.

An embedding is a cyclic (counterclockwise) order of the incident edges at
every vertex such that the dynamics respects those orders at every branch
point away from the critical point.  Evil orbits make this impossible; with
only tame orbits, the free choices live exactly at the characteristic
points, one rotation amount coprime to the arm count each, and everything
else is forced by pulling orders back along the dynamics.  Their count,
which every atlas row carries, is `embedding`'s.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import product

from .admissibility import OrbitKind
from .embedding import coprime_rotations
from .tree import HubbardTree, ObservedOrbit, StructuralError, classify_orbits


class EvilOrbitError(ValueError):
    """Embedding requested for a tree with evil orbits."""

    def __init__(self, periods: list[int]):
        self.periods = periods
        super().__init__(
            "tree has evil orbits of period "
            + ", ".join(str(p) for p in periods)
            + " and admits no planar embedding")


class EmbeddedTree(namedtuple("EmbeddedTree", "tree cyclic_order rotations")):
    """A tree, its counterclockwise neighbor order per vertex, and the chosen rotations."""

    __slots__ = ()

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

    def to_json(self) -> str:
        """The canonical orders and the rotations as sorted compact JSON, and
        the tree's canonical text as it is."""
        orders, rotations = (json.dumps(part, sort_keys=True, separators=(",", ":"))
                             for part in (self.canonical_cyclic_order(), self.rotations))
        return f'{{"cyclic_order":{orders},"rotations":{rotations},"tree":{self.tree.to_json()}}}'


def verify_embedding(embedded: EmbeddedTree) -> bool:
    """True iff at every branch vertex away from the critical point the
    local cyclic order is a rotation of the order pulled back from the image:
    the tree's arm map then embeds one into the other."""
    tree = embedded.tree
    orders = embedded.cyclic_order
    for v in tree.vertices:
        vid = v.id
        if vid == tree.critical or tree.degree(vid) < 3:
            continue
        arms = tuple(orders[vid])
        pulled = _pulled_order(tree, vid, orders[tree.dynamics[vid]])
        if pulled is None or arms not in {pulled[i:] + pulled[:i] for i in range(len(pulled))}:
            return False
    return True


def _pulled_order(tree: HubbardTree, vid: str, target: tuple[str, ...]) -> tuple[str, ...] | None:
    """The neighbors of ``vid`` ordered by the slot of their arm-map image in
    ``target``, the cyclic order at f(vid); None when those images are not
    distinct arms there."""
    local = tree.arm_map(vid)
    slots = {w: i for i, w in enumerate(target)}
    images = set(local.values())
    if len(images) != len(local) or not images <= slots.keys():
        return None
    return tuple(sorted(local, key=lambda w: slots[local[w]]))


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

    cyclic = {v.id: tree.neighbors(v.id) for v in tree.vertices if tree.degree(v.id) < 3}

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

    # every other order is pulled back along the dynamics from the first
    # vertex whose order is known; a walk of V vertices has met a branch
    # cycle without a characteristic point
    for v in tree.vertices:
        chain, vid = [], v.id
        while vid not in cyclic:
            chain.append(vid)
            if len(chain) == len(tree.vertices):
                raise StructuralError(f"no characteristic order on the branch cycle through {vid}")
            vid = tree.dynamics[vid]
        for vid in reversed(chain):
            image = tree.dynamics[vid]
            order = _pulled_order(tree, vid, cyclic[image])
            if order is None:
                raise StructuralError(f"arms at {vid} do not pull back from the order at {image}")
            cyclic[vid] = order

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
