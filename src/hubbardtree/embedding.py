"""Planar embeddings of a built tree: how many exist.

Every atlas row carries this count, a product of Euler phi values over the
characteristic points (see `planar`, which generates the embeddings
themselves and which only `embed` loads).
"""

from __future__ import annotations

import math

from .admissibility import OrbitKind
from .tree import HubbardTree, ObservedOrbit, classify_orbits


def coprime_rotations(q: int) -> list[int]:
    """The rotation amounts s in {1, ..., q-1} coprime to q."""
    return [s for s in range(1, q) if math.gcd(s, q) == 1]


def euler_phi(q: int) -> int:
    """Count of i in {1, ..., q-1} coprime to q."""
    if q < 1:
        raise ValueError("q must be positive")
    return len(coprime_rotations(q))


def count_embeddings(tree: HubbardTree | list[ObservedOrbit]) -> int:
    """Number of dynamics-respecting embeddings: 0 with an evil orbit,
    otherwise the product of euler_phi over the characteristic arm counts.

    Takes the tree, or the orbits classify_orbits already returned for it.
    """
    orbits = classify_orbits(tree) if isinstance(tree, HubbardTree) else tree
    if any(o.kind is OrbitKind.EVIL for o in orbits):
        return 0
    return math.prod(euler_phi(o.arms) for o in orbits)
