"""Construction and verification of the tree from itineraries alone.

The critical orbit is inserted one point at a time into a growing tree, each
point walking toward its place by triod queries, which add the interior
branch points they meet.  The periodic branch points predicted from the
sequence are not inserted: each must turn up among the points the walk
found.  The finished tree is rooted once at the critical point, and every
path and every arm toward a vertex climbs that rooting.  Each vertex's local
arm map is computed by arm_map on its first call and returned read-only from
then on, to the axiom checks, the arm permutations and the embedding
pull-backs alike.  The dynamics cycles through branch vertices are split out
likewise, once per tree, by branch_cycles; the axiom verifier and the orbit
classification both read that one tuple, and the orbits classified from it
are compared with the predicted spectrum in classify_orbits.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Sequence
from types import MappingProxyType

from .admissibility import BranchSpectrumEntry, OrbitKind, branch_spectrum
from .sequences import (
    Itinerary,
    KneadingSequence,
    StructuralError,
    critical_orbit_itinerary,
)
from .triods import Branch, Middle, TriodError, classify_triod

# the builtin sha256 loads in ~0.5 ms, where hashlib loads OpenSSL in ~5 ms;
# all three give the same digest
try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256


class SpectrumMismatchError(StructuralError):
    """Tree-level orbit classification disagrees with the predicted spectrum."""


_MIDDLE_2, _MIDDLE_3 = Middle(2), Middle(3)  # the walk's answers beyond an edge end


class MarkedPoint(namedtuple("MarkedPoint", "id itinerary role")):
    """A vertex of the tree: its id, its Itinerary, and its role, one of
    ``("critical", k)``, ``("branch", m, j)`` or ``("prebranch", i)``."""

    __slots__ = ()

    def role_text(self) -> str:
        return ":".join(map(str, self.role))


def marked_points(seq: KneadingSequence,
                  spectrum: Sequence[BranchSpectrumEntry]) -> list[MarkedPoint]:
    """The critical orbit, each point the shift of the one before, plus every
    orbit of the predicted branch spectrum: an entry of period m contributes
    the m shifts of its characteristic itinerary, indexed so that the
    dynamics sends index j to j+1 mod m.
    """
    if not seq.star_periodic or seq.period < 2:
        raise ValueError("marked points require a star-periodic sequence of period >= 2")
    points, itin = [], critical_orbit_itinerary(seq, 0)
    for k in range(seq.period):
        points.append(MarkedPoint(f"c{k}", itin, ("critical", k)))
        itin = itin.shift()
    for entry in spectrum:
        itin = entry.characteristic_itinerary
        for j in range(entry.period):
            points.append(MarkedPoint(f"z{entry.period}.{j}", itin, ("branch", entry.period, j)))
            itin = itin.shift()
    return points


class HubbardTree:
    """The built tree, carrying the branch spectrum predicted from its
    sequence.  Nothing mutates a tree after construction, apart from filling
    in its arm maps and branch cycles on first use; equality is identity."""

    critical = "c0"

    def __init__(self, sequence: KneadingSequence, vertices: tuple[MarkedPoint, ...],
                 edges: tuple[tuple[str, str], ...], dynamics: dict[str, str], *,
                 spectrum: tuple[BranchSpectrumEntry, ...]):
        self.sequence, self.vertices, self.edges = sequence, vertices, edges
        self.dynamics, self.spectrum = dynamics, spectrum
        self._by_id = {v.id: v for v in vertices}
        near: dict[str, list[str]] = {v.id: [] for v in vertices}
        for a, b in edges:
            near[a].append(b)
            near[b].append(a)
        order = {v.id: i for i, v in enumerate(vertices)}
        adjacency = {vid: tuple(sorted(ws, key=order.__getitem__)) for vid, ws in near.items()}
        self._adjacency = adjacency
        # one traversal from the critical point roots the tree; paths climb it
        parent: dict[str, str | None] = {self.critical: None}
        depth = {self.critical: 0}
        stack = [self.critical]
        while stack:
            current = stack.pop()
            for nxt in adjacency[current]:
                if nxt not in parent:
                    parent[nxt] = current
                    depth[nxt] = depth[current] + 1
                    stack.append(nxt)
        self._parent, self._depth = parent, depth
        self._arms: dict[str, MappingProxyType[str, str]] = {}
        self._cycle_cache: tuple[tuple[str, ...], ...] | None = None

    def point(self, vid: str) -> MarkedPoint:
        return self._by_id[vid]

    def neighbors(self, vid: str) -> tuple[str, ...]:
        return self._adjacency[vid]

    def degree(self, vid: str) -> int:
        return len(self._adjacency[vid])

    def endpoints(self) -> list[str]:
        return [v.id for v in self.vertices if self.degree(v.id) == 1]

    def branch_vertices(self) -> list[str]:
        return [v.id for v in self.vertices if self.degree(v.id) >= 3]

    def path(self, start: str, goal: str) -> list[str]:
        """Unique vertex path between two vertices: both ends climb the
        rooting until they meet at their common ancestor."""
        parent, depth = self._parent, self._depth
        if start not in depth or goal not in depth:
            raise StructuralError(f"no path from {start} to {goal}: tree is disconnected")
        up, down = [start], [goal]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        return up + down[-2::-1]

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and len(self._depth) == len(self.vertices)

    def arm_toward(self, vid: str, target: str) -> str:
        """Neighbor of ``vid`` on the path toward ``target``: the child of
        ``vid`` that ``target`` climbs the rooting through, else the parent."""
        if vid == target:
            raise ValueError(f"no arm at {vid} toward itself")
        parent, depth = self._parent, self._depth
        if vid not in depth or target not in depth:
            return self.path(vid, target)[1]  # fails as path does: no path
        while depth[target] > depth[vid] + 1:
            target = parent[target]
        return target if parent[target] == vid else parent[vid]

    def arm_map(self, vid: str) -> MappingProxyType[str, str]:
        """The local dynamics at ``vid``, computed on the first call and
        returned read-only from then on: the arm toward each neighbor w maps
        to the first edge of the path from f(vid) toward f(w), named by its
        far end.

        An arm whose image collapses (f(w) == f(vid)) has no first edge; the
        map is then not a local homeomorphism and StructuralError is raised.
        """
        arms = self._arms.get(vid)
        if arms is None:
            image = self.dynamics[vid]
            local = {}
            for w in self._adjacency[vid]:
                if self.dynamics[w] == image:
                    raise StructuralError(f"arm {vid} -> {w} collapses onto {image}")
                local[w] = self.arm_toward(image, self.dynamics[w])
            arms = self._arms[vid] = MappingProxyType(local)
        return arms

    def branch_cycles(self) -> tuple[tuple[str, ...], ...]:
        """Dynamics cycles through a branch vertex, each from its least id and
        in order of it, once per tree: one walk of the dynamics visits each
        vertex once, and it closes a new cycle when it meets its own path."""
        if self._cycle_cache is None:
            dynamics, branch = self.dynamics, set(self.branch_vertices())
            walk_of: dict[str, int] = {}  # each visited vertex's walk
            cycles = []
            for walk, v in enumerate(dynamics):
                path = []
                while v not in walk_of:
                    walk_of[v] = walk
                    path.append(v)
                    v = dynamics[v]
                if walk_of[v] == walk:
                    cycle = path[path.index(v):]
                    if not branch.isdisjoint(cycle):
                        at = cycle.index(min(cycle))
                        cycles.append(tuple(cycle[at:] + cycle[:at]))
            cycles.sort()
            self._cycle_cache = tuple(cycles)
        return self._cycle_cache

    def periodic_branch_orbits(self) -> list[list[str]]:
        """Branch cycles rotated to start at their characteristic point,
        sorted by period."""
        result = []
        for cycle in self.branch_cycles():
            at = cycle.index(characteristic_point(self, cycle))
            result.append(list(cycle[at:] + cycle[:at]))
        result.sort(key=lambda orbit: (len(orbit), orbit[0]))
        return result

    def to_dot(self) -> str:
        lines = [f'graph "{self.sequence}" {{']
        for v in self.vertices:
            lines.append(f'  "{v.id}" [label="{v.id} {v.itinerary}"];')
        for a, b in self.edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The tree's canonical record, written directly: for str ids, the bytes of
        json.dumps(record, sort_keys=True, separators=(",", ":")) over its critical
        id, its dynamics, its edges as pairs, its sequence and its vertices, each
        as {id, itinerary, role}."""
        q = _quoted
        ids = {v.id: q(v.id) for v in self.vertices}  # each id quoted once
        vertices = ",".join([f'{{"id":{ids[v.id]},"itinerary":{q(str(v.itinerary))},"role":'
                             f'{q(v.role_text())}}}' for v in self.vertices])
        dynamics = ",".join([f"{ids[a]}:{ids[b]}" for a, b in sorted(self.dynamics.items())])
        edges = ",".join([f"[{ids[a]},{ids[b]}]" for a, b in self.edges])
        return (f'{{"critical":{ids[self.critical]},"dynamics":{{{dynamics}}},"edges":[{edges}],'
                f'"sequence":{q(str(self.sequence))},"vertices":[{vertices}]}}')

    def tree_hash(self) -> str:
        return sha256(self.to_json().encode("ascii")).hexdigest()


def _quoted(text: str) -> str:
    """``text`` as json.dumps writes it; json loads only for a string that needs escaping."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(text)


def build_tree(seq: KneadingSequence | str) -> HubbardTree:
    """Assemble the tree for a star-periodic kneading sequence.

    The critical orbit is inserted one point at a time.  The triod answer
    for three points is their median, so a new point x walks edge by edge
    toward its place: it subdivides an edge it lies on, hangs off the median
    when that is a new branch point inside the edge, or hangs off a vertex
    that separates it from every edge.  Each new vertex queues its shift
    image.  The vertices are then the critical orbit and the branch points
    (endpoints lie on the critical orbit and branch points map to branch
    points), at most n + (n - 2) of them for period n.  The branch spectrum
    predicted from the sequence is computed once, here, and travels with the
    tree; every predicted branch point must be among the vertices found,
    else StructuralError names it.  Vertices are ordered critical orbit,
    predicted branch points, then the rest by itinerary.
    """
    if isinstance(seq, str):
        seq = KneadingSequence.parse(seq)
    spectrum = tuple(branch_spectrum(seq))
    base = marked_points(seq, spectrum)
    marked = {p.itinerary for p in base}
    if len(marked) != len(base):
        raise StructuralError("marked points do not have distinct itineraries")

    # insertion-ordered, so the walk (and its triod count) is reproducible
    adjacency: dict[Itinerary, list[Itinerary]] = {}
    # each vertex's image, for the dynamics too: c_k's is c_k+1, and add shifts
    # the rest, so the walk, not the spectrum, finds each predicted orbit
    critical = [p.itinerary for p in base[:seq.period]]
    shifts = dict(zip(critical, critical[1:] + critical[:1]))
    queue = deque(critical)

    def triod(x: Itinerary, a: Itinerary, b: Itinerary) -> Middle | Branch:
        try:
            return classify_triod(x, a, b, seq)
        except TriodError as exc:
            raise StructuralError(
                f"inconsistent triod over vertices ({x}, {a}, {b}) of {seq}") from exc

    def add(v: Itinerary, *neighbors: Itinerary) -> None:
        if len(adjacency) == 2 * seq.period - 2:
            raise StructuralError(f"tree for {seq} exceeds {len(adjacency)} vertices")
        adjacency[v] = list(neighbors)
        for w in neighbors:
            adjacency[w].append(v)
        queue.append(shifts.get(v) or shifts.setdefault(v, v.shift()))

    while queue:
        x = queue.popleft()
        if x in adjacency:
            continue
        if len(adjacency) < 2:
            add(x, *adjacency)
            continue
        a = next(iter(adjacency))
        b = adjacency[a][0]
        result = triod(x, a, b)
        while result == _MIDDLE_2 or result == _MIDDLE_3:
            if result == _MIDDLE_2:
                a, b = b, a
            # x lies beyond b, seen from a: find the edge at b toward x
            for w in adjacency[b]:
                if w != a and (result := triod(x, b, w)) != _MIDDLE_2:
                    a, b = b, w
                    break
            else:
                result = None
        if result is None:
            add(x, b)
            continue
        m = x
        if isinstance(result, Branch):
            m = result.itinerary
            if m in adjacency or m == x:
                raise StructuralError(
                    f"median {m} of ({x}, {a}, {b}) is not a new point of {seq}")
        adjacency[a].remove(b)
        adjacency[b].remove(a)
        add(m, a, b)
        if m != x:
            add(x, m)

    missing = [p.id for p in base[seq.period:] if p.itinerary not in adjacency]
    if missing:
        raise StructuralError(
            f"predicted branch points {', '.join(missing)} of {seq} are not tree vertices")
    vertices = list(base) + [
        MarkedPoint(f"p{i}", itin, ("prebranch", i))
        for i, itin in enumerate(sorted(v for v in adjacency if v not in marked))
    ]
    index = {v.itinerary: i for i, v in enumerate(vertices)}
    edges = sorted((index[a], index[b]) for a in adjacency for b in adjacency[a]
                   if index[a] < index[b])

    dynamics = {}
    for v in vertices:
        image = index.get(shifts[v.itinerary])
        if image is None:
            raise StructuralError(f"shift image of {v.id} is not a vertex")
        dynamics[v.id] = vertices[image].id

    tree = HubbardTree(seq, tuple(vertices),
                       tuple((vertices[i].id, vertices[j].id) for i, j in edges),
                       dynamics, spectrum=spectrum)
    if not tree.is_tree():
        raise StructuralError(
            f"vertex/edge relation for {seq} is not a tree "
            f"({len(tree.vertices)} vertices, {len(tree.edges)} edges)")
    return tree


def characteristic_point(tree: HubbardTree, orbit: Sequence[str]) -> str:
    """The unique orbit point separating the critical value from the critical
    point and the rest of its orbit."""
    seq = tree.sequence
    spine = tree.path(tree.critical, "c1")
    found = [z for z in orbit if z in spine
             and not any(z in tree.path(tree.critical, other) for other in orbit if other != z)]
    if len(found) != 1:
        raise StructuralError(f"expected one characteristic point in {orbit}, found {found}")
    z = found[0]
    m = len(orbit)
    if tree.point(z).itinerary.prefix(m) != seq.word[:m]:
        raise StructuralError(
            f"characteristic point {z} does not share its first {m} symbols with {seq}")
    return z


def arm_permutation(tree: HubbardTree, z: str, period: int) -> tuple[dict[str, str], OrbitKind]:
    """First-return permutation of the local arms at a characteristic point.

    Arms are named by the adjacent neighbor, and one step is the tree's
    arm_map at the current vertex.  The composite over one period must
    either cycle all arms (tame) or fix the arm toward the critical point
    and cycle the rest (evil), so the first-return orbit of one arm other
    than that one (of the only arm, when z has one) tells the two apart.
    """
    arms = tree.neighbors(z)
    current = {arm: arm for arm in arms}
    vertex = z
    for _ in range(period):
        local = tree.arm_map(vertex)
        current = {arm: local[toward] for arm, toward in current.items()}
        vertex = tree.dynamics[vertex]
    if vertex != z:
        raise StructuralError(f"{z} does not return to itself after {period} steps")
    permutation = current
    if sorted(permutation.values()) != sorted(arms):
        raise StructuralError(f"arm map at {z} is not a permutation")

    toward_critical = tree.arm_toward(z, tree.critical) if len(arms) > 1 else None
    start = arm = next(a for a in arms if a != toward_critical)
    length = 1
    while (arm := permutation[arm]) != start:
        length += 1
    if length == len(arms):
        return permutation, OrbitKind.TAME
    if length == len(arms) - 1 and permutation[toward_critical] == toward_critical:
        return permutation, OrbitKind.EVIL
    raise StructuralError(f"arm permutation at {z} matches neither orbit kind: {permutation}")


class ObservedOrbit(namedtuple("ObservedOrbit", "period arms kind characteristic permutation")):
    """A branch orbit read off the tree; ``characteristic`` is a vertex id, and
    ``permutation`` maps each arm's neighbor id to its first-return image's."""

    __slots__ = ()


def classify_orbits(tree: HubbardTree) -> list[ObservedOrbit]:
    """Classify every periodic branch orbit from the tree geometry and check
    the result against the spectrum predicted from the sequence alone.

    A mismatch would falsify the equivalence this package is built around,
    so it aborts loudly rather than returning.
    """
    observed = []
    for orbit in tree.periodic_branch_orbits():  # in period order, as the spectrum
        z = orbit[0]
        degrees = {tree.degree(v) for v in orbit}
        if len(degrees) != 1:
            raise StructuralError(f"degrees vary along periodic orbit {orbit}")
        permutation, kind = arm_permutation(tree, z, len(orbit))
        observed.append(ObservedOrbit(len(orbit), degrees.pop(), kind, z, permutation))

    got = [(o.period, o.arms, o.kind, tree.point(o.characteristic).itinerary) for o in observed]
    want = [(e.period, e.arms, e.kind, e.characteristic_itinerary) for e in tree.spectrum]
    if got != want:
        raise SpectrumMismatchError(
            f"{tree.sequence}: tree orbits {got} != predicted spectrum {want}")
    return observed


def verify_axioms(tree: HubbardTree) -> dict[str, bool]:
    """Individually reported structural checks on a built tree."""
    n = tree.sequence.period
    adjacency, parent, depth = tree._adjacency, tree._parent, tree._depth
    checks: dict[str, bool] = {}

    shape = checks["tree_shape"] = tree.is_tree()

    critical_ids = {f"c{k}" for k in range(n)}
    checks["endpoints_on_critical_orbit"] = critical_ids.issuperset(
        [vid for vid, near in adjacency.items() if len(near) == 1])
    checks["critical_value_is_endpoint"] = len(adjacency["c1"]) == 1
    checks["critical_point_degree"] = len(adjacency[tree.critical]) <= 2

    local = shape
    if local:
        try:
            local = all(len(set(tree.arm_map(vid).values())) == len(near)
                        for vid, near in adjacency.items() if vid != tree.critical)
        except StructuralError:
            local = False
    checks["local_injectivity"] = local

    # each edge is named by its deeper end; the image paths cover all names
    covered: set[str] = set()
    if shape:
        for a, b in tree.edges:
            x, y = tree.dynamics[a], tree.dynamics[b]
            while x != y:  # the path climbs the rooting from both ends
                if depth[x] < depth[y]:
                    x, y = y, x
                covered.add(x)
                x = parent[x]
    checks["edge_images_cover_tree"] = shape and len(covered) == len(tree.edges)

    # sorted, a value with three preimages equals the one two places after it
    images = sorted(tree.dynamics.values())
    checks["at_most_two_preimages"] = not any(map(str.__eq__, images, images[2:]))

    # canonical itineraries are equal exactly when their streams are
    checks["expansivity"] = (
        len({v.itinerary for v in tree.vertices}) == len(tree.vertices))

    cycles = tree.branch_cycles() if shape else ()
    checks["branch_orbit_degree_constant"] = shape and all(
        len({len(adjacency[v]) for v in cycle}) == 1 for cycle in cycles)
    checks["branch_period_below_sequence_period"] = all(len(c) < n for c in cycles)
    return checks
