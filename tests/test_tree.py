"""Tree construction, axiom checks, characteristic points, arm dynamics."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter, deque

import pytest

import hubbardtree.tree as tree_module
import hubbardtree.triods as triods
from hubbardtree import (
    Branch,
    BranchSpectrumEntry,
    HubbardTree,
    Itinerary,
    KneadingSequence,
    MarkedPoint,
    OrbitKind,
    SpectrumMismatchError,
    StructuralError,
    TriodError,
    UnrealizedPointError,
    analyze_sequence,
    arm_permutation,
    branch_spectrum,
    build_tree,
    characteristic_point,
    classify_orbits,
    classify_triod,
    critical_orbit_itinerary,
    enumerate_embeddings,
    internal_address,
    marked_points,
    mismatch_orbit,
    verify_axioms,
)
from hubbardtree.atlas import star_periodic_sequences
from hubbardtree.sequences import _facts
from reference import closest_precritical_itinerary, lies_between, tree_record

FIG1 = "10110*"
FIG2 = "1011010110*"


class TestMarkedPoints:
    def test_fig1_counts(self):
        seq = KneadingSequence.parse(FIG1)
        points = marked_points(seq, branch_spectrum(seq))
        assert len(points) == 9  # 6 critical + 3 branch
        assert [p.id for p in points[:6]] == [f"c{k}" for k in range(6)]
        assert [p.id for p in points[6:]] == ["z3.0", "z3.1", "z3.2"]

    def test_two_point_minimum(self):
        seq = KneadingSequence.parse("1*")
        points = marked_points(seq, branch_spectrum(seq))
        assert [p.id for p in points] == ["c0", "c1"]

    def test_arc_of_period_three(self):
        seq = KneadingSequence.parse("10*")
        points = marked_points(seq, branch_spectrum(seq))
        assert [p.id for p in points] == ["c0", "c1", "c2"]

    def test_fig2_counts(self):
        seq = KneadingSequence.parse(FIG2)
        points = marked_points(seq, branch_spectrum(seq))
        assert len(points) == 16  # 11 critical + 5 branch

    def test_distinct_itineraries(self):
        for seq in star_periodic_sequences(8):
            points = marked_points(seq, branch_spectrum(seq))
            assert len({p.itinerary for p in points}) == len(points)


class TestBuildTree:
    def test_fig1_shape(self):
        tree = build_tree(FIG1)
        assert len(tree.vertices) == 9
        assert len(tree.edges) == 8
        assert sorted(tree.endpoints()) == ["c1", "c2", "c3", "c4", "c5"]
        assert set(tree.edges) == {
            ("c0", "z3.1"), ("c0", "z3.2"), ("c1", "z3.0"), ("c2", "z3.1"),
            ("c3", "z3.2"), ("c4", "z3.0"), ("c5", "z3.1"), ("z3.0", "z3.2"),
        }

    def test_two_point_tree(self):
        tree = build_tree("1*")
        assert [v.id for v in tree.vertices] == ["c0", "c1"]
        assert tree.edges == (("c0", "c1"),)

    def test_period_three_arc(self):
        tree = build_tree("10*")
        assert set(tree.edges) == {("c0", "c1"), ("c0", "c2")}
        assert sorted(tree.endpoints()) == ["c1", "c2"]

    def test_fig2_shape(self):
        tree = build_tree(FIG2)
        assert len(tree.vertices) == 19  # 11 critical + 5 periodic + 3 preperiodic
        assert len(tree.edges) == 18
        assert sorted(tree.endpoints()) == sorted(f"c{k}" for k in range(1, 11))
        # adjacency among the critical orbit and the period-5 orbit
        marked_edges = {
            (a, b) for a, b in tree.edges if not (a.startswith("p") or b.startswith("p"))
        }
        assert marked_edges == {
            ("c0", "z5.4"), ("c1", "z5.0"), ("c2", "z5.1"), ("c3", "z5.2"),
            ("c4", "z5.3"), ("c5", "z5.4"),
            ("z5.0", "z5.3"), ("z5.1", "z5.4"), ("z5.2", "z5.3"),
        }
        # the three preperiodic branch points hang the remaining endpoints
        prebranch = {v.id for v in tree.vertices if v.id.startswith("p")}
        assert len(prebranch) == 3
        for pid in prebranch:
            assert tree.degree(pid) == 3

    def test_dynamics_follows_shift(self):
        tree = build_tree(FIG2)
        for v in tree.vertices:
            image = tree.point(tree.dynamics[v.id])
            assert image.itinerary == v.itinerary.shift()

    def test_determinism(self):
        first = build_tree(FIG2)
        second = build_tree(FIG2)
        assert tree_record(first) == tree_record(second)
        assert first.tree_hash() == second.tree_hash()

    def test_accepts_sequence_text(self):
        from_text, from_value = build_tree(FIG1), build_tree(KneadingSequence.parse(FIG1))
        assert tree_record(from_text) == tree_record(from_value)

    def test_predicted_branch_point_must_be_found(self, monkeypatch):
        # the predicted spectrum is checked against the tree, not inserted into it
        original = tree_module.branch_spectrum

        def with_bogus_fixed_point(seq):
            return original(seq) + [BranchSpectrumEntry(
                1, 3, OrbitKind.TAME, Itinerary.periodic(b"1"))]

        monkeypatch.setattr(tree_module, "branch_spectrum", with_bogus_fixed_point)
        with pytest.raises(StructuralError, match="z1.0"):
            build_tree(FIG1)

    def test_inconsistent_marked_point_is_rejected(self, monkeypatch):
        # a marked point whose STAR is not followed by the sequence itself: a
        # predicted branch point (listed last) is never inserted, so it is
        # missing from the tree; a critical-orbit point is inserted, and the
        # kernel rejects it when it lays the point out
        real = tree_module.marked_points
        stray = Itinerary(b"*", b"0")

        def with_stray_point(index):
            def points(seq, spectrum=None):
                points = real(seq, spectrum)
                points[index] = points[index]._replace(itinerary=stray)
                return points
            return points

        monkeypatch.setattr(tree_module, "marked_points", with_stray_point(-1))
        with pytest.raises(StructuralError, match=r"predicted branch points z3\.2 .* not tree vertices"):
            build_tree(FIG1)
        monkeypatch.setattr(tree_module, "marked_points", with_stray_point(3))
        with pytest.raises(StructuralError, match="inconsistent triod") as excinfo:
            build_tree(FIG1)
        assert isinstance(excinfo.value.__cause__, TriodError)
        assert str(excinfo.value.__cause__) == f"itinerary {stray} does not follow {FIG1} after its STAR"


class TestTriodBudget:
    """Median insertion asks O(V^2) triod queries, not one per vertex triple."""

    @staticmethod
    def counting(monkeypatch, answer=None):
        calls = []
        original = tree_module.classify_triod

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return original(*args, **kwargs) if answer is None else answer(*args[:3])

        monkeypatch.setattr(tree_module, "classify_triod", counted)
        return calls

    @pytest.mark.parametrize("text", [
        FIG1, FIG2, "110001100010011*", "1010100110001111011010111011100*",
    ])
    def test_calls_at_most_v_squared(self, monkeypatch, text):
        calls = self.counting(monkeypatch)
        v = len(build_tree(text).vertices)
        assert 0 < len(calls) <= v * v, (text, v, len(calls))
        first = len(calls)
        build_tree(text)
        assert len(calls) == 2 * first

    def test_period_9_atlas_query_count(self, monkeypatch):
        # the count the benchmark's traced atlas run reports as triods.calls
        calls = self.counting(monkeypatch)
        for seq in star_periodic_sequences(9, exact=True):
            build_tree(seq)
        assert len(calls) == 2080

    def test_known_median_is_rejected(self, monkeypatch):
        # a branch point found inside an edge cannot already be a vertex
        self.counting(monkeypatch, answer=lambda x, a, b: Branch(a))
        with pytest.raises(StructuralError, match="not a new point"):
            build_tree(FIG1)

    def test_runaway_growth_is_bounded(self, monkeypatch):
        # fresh medians on every query would grow the tree forever
        fresh = iter(range(1000, 2000))
        self.counting(monkeypatch,
                      answer=lambda x, a, b: Branch(Itinerary(b"0" * next(fresh), b"1")))
        with pytest.raises(StructuralError, match="exceeds 10 vertices"):
            build_tree(FIG1)


class TestVerifyAxioms:
    def test_fig1_and_fig2_pass(self):
        for text in (FIG1, FIG2, "1*", "10*", "111*"):
            checks = verify_axioms(build_tree(text))
            assert all(checks.values()), (text, checks)

    def test_all_small_periods_pass(self, corpus):
        trees = corpus.up_to(7)
        assert len(trees) == 63
        for tree in trees:
            checks = verify_axioms(tree)
            assert all(checks.values()), (str(tree.sequence), checks)

    def test_deleted_edge_breaks_connectivity(self):
        tree = build_tree(FIG1)
        broken = HubbardTree(
            tree.sequence, tree.vertices, tree.edges[1:], tree.dynamics, spectrum=tree.spectrum)
        checks = verify_axioms(broken)
        assert not checks["tree_shape"]

    def test_collapsed_arm_fails_local_injectivity(self):
        tree = build_tree(FIG1)
        dynamics = dict(tree.dynamics)
        dynamics["c1"] = dynamics["z3.0"]  # the arm z3.0 -> c1 collapses
        broken = HubbardTree(
            tree.sequence, tree.vertices, tree.edges, dynamics, spectrum=tree.spectrum)
        checks = verify_axioms(broken)
        assert checks["tree_shape"] and not checks["local_injectivity"]
        for _ in range(2):  # a collapsed arm map is never kept
            with pytest.raises(StructuralError, match="collapses"):
                broken.arm_map("z3.0")

    @pytest.mark.parametrize("image", [
        lambda vid: "c1",  # every edge collapses
        lambda vid: "c1" if vid.startswith("c") else "z3.0",  # one edge is the whole image
    ])
    def test_image_short_of_the_tree_fails_edge_cover(self, image):
        tree = build_tree(FIG1)
        dynamics = {vid: image(vid) for vid in tree.dynamics}
        broken = HubbardTree(tree.sequence, tree.vertices, tree.edges, dynamics,
                             spectrum=tree.spectrum)
        checks = verify_axioms(broken)
        assert checks["tree_shape"] and not checks["edge_images_cover_tree"]

    def test_edge_cover_matches_the_image_paths(self):
        # reference: every edge is a step of some edge's image path, in either direction
        def covers(tree):
            steps = set()
            for a, b in tree.edges:
                path = tree.path(tree.dynamics[a], tree.dynamics[b])
                steps.update(zip(path, path[1:]), zip(path[1:], path))
            return all(edge in steps for edge in tree.edges)

        rng, outcomes = random.Random(13), Counter()
        for text in (FIG1, FIG2, "110001100010011*"):
            tree = build_tree(text)
            ids = [v.id for v in tree.vertices]
            for _ in range(200):
                dynamics = dict(zip(ids, rng.sample(ids, len(ids)) if rng.random() < 0.5
                                    else rng.choices(ids, k=len(ids))))
                broken = HubbardTree(tree.sequence, tree.vertices, tree.edges, dynamics,
                                     spectrum=tree.spectrum)
                expected = covers(broken)
                assert verify_axioms(broken)["edge_images_cover_tree"] == expected
                outcomes[expected] += 1
        assert outcomes[True] and outcomes[False]

    def test_three_preimages_fail(self):
        tree = build_tree(FIG1)
        dynamics = dict(tree.dynamics)
        dynamics["c0"] = dynamics["c5"] = "c2"  # c1 -> c2 already
        broken = HubbardTree(tree.sequence, tree.vertices, tree.edges, dynamics,
                             spectrum=tree.spectrum)
        checks = verify_axioms(broken)
        assert checks["tree_shape"] and not checks["at_most_two_preimages"]

    def test_repeated_itinerary_fails_expansivity(self):
        tree = build_tree(FIG1)
        twin = tree.point("c4").itinerary
        vertices = tuple(MarkedPoint(v.id, twin, v.role) if v.id == "c5" else v
                         for v in tree.vertices)
        broken = HubbardTree(
            tree.sequence, vertices, tree.edges, tree.dynamics, spectrum=tree.spectrum)
        checks = verify_axioms(broken)
        assert checks["tree_shape"] and not checks["expansivity"]

    def test_branch_cycle_through_an_endpoint(self):
        checks = verify_axioms(endpoint_cycle_tree())
        assert checks["tree_shape"] and not checks["branch_orbit_degree_constant"]

    def test_branch_cycles_are_whole_cycles(self):
        assert endpoint_cycle_tree().branch_cycles() == (("c3", "z3.2", "z3.0", "z3.1"),)
        for seq in star_periodic_sequences(8):
            tree = build_tree(seq)
            cycles = {frozenset(c) for c in tree.branch_cycles()}
            assert cycles == {frozenset(o) for o in tree.periodic_branch_orbits()}

    def test_orbits_are_found_once_per_analysis(self, monkeypatch):
        calls = []
        original = HubbardTree.periodic_branch_orbits

        def counted(tree):
            calls.append(tree)
            return original(tree)

        monkeypatch.setattr(HubbardTree, "periodic_branch_orbits", counted)
        analyze_sequence(FIG2)
        assert len(calls) == 1


class TestOnce:
    """Each fact of a row is computed once: one tape region per periodic
    orbit of marked points, one branch-cycle pass and one arm map per vertex
    per tree."""

    @staticmethod
    def counting(monkeypatch):
        """Count each tree's branch-cycle passes (a pass reads the branch
        vertices once), the arm maps computed (each is wrapped read-only
        once), and the (tree, vertex) pairs arm_map is asked for."""
        passes, asked, made = Counter(), set(), []
        branch_vertices, arm_map = HubbardTree.branch_vertices, HubbardTree.arm_map
        read_only = tree_module.MappingProxyType

        def counted_pass(tree):
            passes[tree] += 1
            return branch_vertices(tree)

        def asked_arms(tree, vid):
            asked.add((tree, vid))
            return arm_map(tree, vid)

        def counted_map(arms):
            made.append(arms)
            return read_only(arms)

        monkeypatch.setattr(HubbardTree, "branch_vertices", counted_pass)
        monkeypatch.setattr(HubbardTree, "arm_map", asked_arms)
        monkeypatch.setattr(tree_module, "MappingProxyType", counted_map)
        return passes, asked, made

    def test_one_row_computes_each_fact_once(self, monkeypatch):
        passes, asked, made = self.counting(monkeypatch)
        for seq in star_periodic_sequences(9, exact=True):
            analyze_sequence(seq)
        assert len(passes) == 128 and set(passes.values()) == {1}
        assert len(asked) >= 128 * 8 and len(made) == len(asked)

    def test_embeddings_reuse_the_arm_maps(self, monkeypatch):
        passes, asked, made = self.counting(monkeypatch)
        tree = build_tree("110001100010011*")
        assert all(verify_axioms(tree).values())
        assert len(made) == len(tree.vertices) - 1
        assert len(enumerate_embeddings(tree)) == 4
        assert set(passes.values()) == {1} and len(made) == len(tree.vertices) - 1
        assert {vid for _, vid in asked} == {v.id for v in tree.vertices} - {"c0"}

    def test_shared_facts_are_read_only(self):
        tree = build_tree(FIG2)
        cycles = tree.branch_cycles()
        assert cycles == (("z5.0", "z5.1", "z5.2", "z5.3", "z5.4"),)
        assert tree.branch_cycles() is cycles
        for v in tree.vertices:
            arms = tree.arm_map(v.id)
            assert tree.arm_map(v.id) is arms
            with pytest.raises(TypeError):
                arms[v.id] = v.id
        expected = classify_orbits(tree)
        assert all(verify_axioms(tree).values())
        assert classify_orbits(tree) == expected
        assert tree.branch_cycles() is cycles

    def test_builder_shifts_each_vertex_at_most_once(self, monkeypatch):
        """Itinerary.shift calls over the 128 trees of the period-9 atlas
        (1,464 vertices).  The builder reads the image of c_k as c_k+1 and
        shifts every other vertex once, when it is added.  Two repeats are
        kept: the kernel's region registration shifts each itinerary it lays
        out once per state, and marked_points shifts along each marked orbit,
        so a predicted branch point is shifted there and again by the builder,
        which does not read its image from the spectrum: the walk, not the
        prediction, must find each orbit."""
        calls = Counter()
        shift = Itinerary.shift

        def counted(itin):
            calls[sys._getframe(1).f_code.co_name] += 1
            return shift(itin)

        monkeypatch.setattr(Itinerary, "shift", counted)
        _facts.cache_clear()
        vertices = sum(len(build_tree(seq).vertices)
                       for seq in star_periodic_sequences(9, exact=True))
        assert vertices == 1464
        assert calls == {"marked_points": 1351, "_append": 1518, "add": 312}
        assert sum(calls.values()) == 3181

    def test_marked_points_take_one_region_per_orbit(self, monkeypatch):
        regions = []
        append = triods._append

        def counted(layout, itin):
            regions.append(itin)
            append(layout, itin)

        monkeypatch.setattr(triods, "_append", counted)
        for seq in star_periodic_sequences(9):
            regions.clear()
            _facts.cache_clear()
            triods._lay(
                _facts(seq), [p.itinerary for p in marked_points(seq, branch_spectrum(seq))])
            assert len(regions) == 1 + len(branch_spectrum(seq)), (str(seq), regions)


class TestCanonicalText:
    @staticmethod
    def dumped(tree: HubbardTree) -> str:
        return json.dumps(tree_record(tree), sort_keys=True, separators=(",", ":"))

    def test_equals_the_dumped_record(self, corpus):
        trees = corpus.up_to(10)
        assert len(trees) == 511
        for tree in trees:
            assert tree.to_json() == self.dumped(tree), str(tree.sequence)

    def test_quoted_matches_the_json_encoder(self):
        # every ASCII code point, alone and inside an id, then the empty
        # string, a non-ASCII one in the BMP and an astral one
        texts = [t for i in range(128) for t in (chr(i), f"z5{chr(i)}.1")]
        for text in texts + ["", "\u00e9", "\U0001d537"]:
            assert tree_module._quoted(text) == json.encoder.encode_basestring_ascii(text), text

    def test_ids_that_need_escaping(self):
        tree = build_tree(FIG2)
        rename = {"c2": 'c"2', "c3": "c\\3", "c4": "c\u00e94", "z5.1": "z\t\U0001d537"}
        new = lambda vid: rename.get(vid, vid)
        renamed = HubbardTree(
            tree.sequence, tuple(v._replace(id=new(v.id)) for v in tree.vertices),
            tuple((new(a), new(b)) for a, b in tree.edges),
            {new(a): new(b) for a, b in tree.dynamics.items()}, spectrum=tree.spectrum)
        text = renamed.to_json()
        assert text == self.dumped(renamed)
        assert text.isascii() and '\\"2' in text and "\\u00e9" in text
        assert renamed.tree_hash() == hashlib.sha256(text.encode("ascii")).hexdigest()


def endpoint_cycle_tree() -> HubbardTree:
    """The FIG1 tree with its period-3 branch cycle rerouted through the
    endpoint c3: z3.0 -> z3.1 -> c3 -> z3.2 -> z3.0."""
    tree = build_tree(FIG1)
    dynamics = dict(tree.dynamics)
    dynamics["z3.1"], dynamics["c3"] = "c3", "z3.2"
    return HubbardTree(tree.sequence, tree.vertices, tree.edges, dynamics, spectrum=tree.spectrum)


def bfs_parents(tree: HubbardTree, start: str) -> dict[str, str | None]:
    """Reference search: the parent of every vertex reached from start."""
    parents: dict[str, str | None] = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for nxt in tree.neighbors(current):
            if nxt not in parents:
                parents[nxt] = current
                queue.append(nxt)
    return parents


def bfs_path(parents: dict[str, str | None], goal: str) -> list[str]:
    path = [goal]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


class TestRootedGeometry:
    """Paths and arm maps read off the rooting agree with a fresh search."""

    def test_paths_match_search(self):
        for seq in star_periodic_sequences(8):
            tree = build_tree(seq)
            for a in tree.vertices:
                parents = bfs_parents(tree, a.id)
                for b in tree.vertices:
                    path = bfs_path(parents, b.id)
                    assert tree.path(a.id, b.id) == path, (str(seq), a, b)
                    if a != b:
                        assert tree.arm_toward(a.id, b.id) == path[1], (str(seq), a, b)

    def test_arm_maps_match_search(self):
        for seq in star_periodic_sequences(8):
            tree = build_tree(seq)
            for v in tree.vertices:
                image = tree.dynamics[v.id]
                parents = bfs_parents(tree, image)
                expected = {w: bfs_path(parents, tree.dynamics[w])[1]
                            for w in tree.neighbors(v.id)}
                assert tree.arm_map(v.id) == expected, (str(seq), v.id)

    def test_no_arm_toward_itself(self):
        with pytest.raises(ValueError, match="c0"):
            build_tree(FIG1).arm_toward("c0", "c0")

    def test_path_across_components_raises(self):
        tree = build_tree(FIG1)
        cut = tree.edges[0]
        broken = HubbardTree(
            tree.sequence, tree.vertices, tree.edges[1:], tree.dynamics, spectrum=tree.spectrum)
        with pytest.raises(StructuralError, match="disconnected"):
            broken.path(*cut)
        with pytest.raises(StructuralError, match="disconnected"):
            broken.arm_toward(*cut)


class TestCharacteristicPoint:
    def test_fig1_orbit(self):
        tree = build_tree(FIG1)
        orbit = tree.periodic_branch_orbits()[0]
        z = characteristic_point(tree, orbit)
        assert z == "z3.0"
        assert str(tree.point(z).itinerary) == "(101)"

    def test_fig2_orbit_lies_on_the_spine(self):
        tree = build_tree(FIG2)
        orbit = tree.periodic_branch_orbits()[0]
        z = characteristic_point(tree, orbit)
        assert z == "z5.0"
        assert str(tree.point(z).itinerary) == "(10110)"
        assert z in tree.path("c0", "c1")

    def test_fixed_branch_point(self):
        tree = build_tree("111*")
        orbit = tree.periodic_branch_orbits()[0]
        assert orbit == ["z1.0"]
        assert characteristic_point(tree, orbit) == "z1.0"


class TestArmPermutation:
    def test_fig1_evil_pattern(self):
        tree = build_tree(FIG1)
        perm, kind = arm_permutation(tree, "z3.0", 3)
        assert kind is OrbitKind.EVIL
        toward_critical = tree.arm_toward("z3.0", "c0")
        assert toward_critical == "z3.2"
        assert perm["z3.2"] == "z3.2"
        assert perm["c1"] == "c4" and perm["c4"] == "c1"

    def test_fig2_tame_cycle(self):
        tree = build_tree(FIG2)
        perm, kind = arm_permutation(tree, "z5.0", 5)
        assert kind is OrbitKind.TAME
        arms = set(tree.neighbors("z5.0"))
        seen = {"c1"}
        current = "c1"
        for _ in range(len(arms) - 1):
            current = perm[current]
            seen.add(current)
        assert seen == arms  # one full 3-cycle

    def test_four_armed_fixed_point_cycles(self):
        tree = build_tree("111*")
        perm, kind = arm_permutation(tree, "z1.0", 1)
        assert kind is OrbitKind.TAME
        current = "c0"
        length = 0
        while True:
            current = perm[current]
            length += 1
            if current == "c0":
                break
        assert length == 4


class TestClassifyOrbits:
    def test_fig1(self):
        observed = classify_orbits(build_tree(FIG1))
        assert [(o.period, o.arms, o.kind) for o in observed] == [(3, 3, OrbitKind.EVIL)]

    def test_fig2(self):
        observed = classify_orbits(build_tree(FIG2))
        assert [(o.period, o.arms, o.kind) for o in observed] == [(5, 3, OrbitKind.TAME)]

    def test_arc_tree_has_no_orbits(self):
        assert classify_orbits(build_tree("10*")) == []

    def test_mismatch_aborts_loudly(self):
        # graft the evil tree onto a sequence that predicts a tame spectrum
        tree = build_tree(FIG1)
        fig2 = KneadingSequence.parse(FIG2)
        imposter = HubbardTree(fig2, tree.vertices, tree.edges, tree.dynamics,
                               spectrum=tuple(branch_spectrum(fig2)))
        with pytest.raises(SpectrumMismatchError):
            classify_orbits(imposter)


class TestClosestPrecritical:
    def test_boundary_identities(self):
        nu = KneadingSequence.parse(FIG1)
        assert closest_precritical_itinerary(nu, 1) == critical_orbit_itinerary(nu, 0)
        assert closest_precritical_itinerary(nu, 6) == critical_orbit_itinerary(nu, 1)

    def test_itineraries_are_unique_per_step(self):
        for seq in star_periodic_sequences(8):
            itins = [closest_precritical_itinerary(seq, k) for k in range(1, seq.period + 1)]
            assert len(set(itins)) == seq.period

    def test_spine_membership_matches_internal_address(self):
        # the step-m point lies between the critical point and value exactly
        # when m is an internal-address entry (off the address the symbolic
        # itinerary may not even be realized; lies_between treats that as no)
        for seq in star_periodic_sequences(8):
            n = seq.period
            c0 = critical_orbit_itinerary(seq, 0)
            c1 = critical_orbit_itinerary(seq, 1)
            address = internal_address(seq).entries
            for m in range(2, n):
                zeta = closest_precritical_itinerary(seq, m)
                assert lies_between(seq, zeta, c0, c1) == (m in address), (str(seq), m)

    def test_unrealized_point_is_reported(self):
        # for 1011101* (address 1-2-4-8) no tree point has the symbolic
        # step-7 itinerary; the raw query detects the contradiction
        seq = KneadingSequence.parse("1011101*")
        zeta = closest_precritical_itinerary(seq, 7)
        with pytest.raises(UnrealizedPointError):
            classify_triod(
                critical_orbit_itinerary(seq, 0), zeta,
                critical_orbit_itinerary(seq, 1), seq)

    def test_inconsistent_point_is_an_error_not_a_no(self):
        # only a contradiction the iteration meets counts as False; a point
        # whose STAR is not followed by the sequence is bad input
        seq = KneadingSequence.parse(FIG1)
        c0, c1 = critical_orbit_itinerary(seq, 0), critical_orbit_itinerary(seq, 1)
        with pytest.raises(TriodError, match="does not follow") as excinfo:
            lies_between(seq, Itinerary(b"1", b"*00"), c0, c1)
        assert not isinstance(excinfo.value, UnrealizedPointError)

    def test_mismatch_orbit_orders_the_points(self):
        # between the critical value and the step-k point one finds exactly
        # the steps on the mismatch orbit of k
        for seq in star_periodic_sequences(6):
            n = seq.period
            c1 = critical_orbit_itinerary(seq, 1)
            address = internal_address(seq).entries
            for k in address:
                zeta_k = closest_precritical_itinerary(seq, k)
                if zeta_k == c1:
                    continue
                orbit = mismatch_orbit(seq, k)
                for m in range(1, n + 1):
                    if m == k or m == n:
                        continue
                    zeta_m = closest_precritical_itinerary(seq, m)
                    on_arc = lies_between(seq, zeta_m, c1, zeta_k)
                    assert on_arc == (m in orbit), (str(seq), k, m)

    def test_rejects_out_of_range_step(self):
        nu = KneadingSequence.parse(FIG1)
        with pytest.raises(ValueError):
            closest_precritical_itinerary(nu, 0)
        with pytest.raises(ValueError):
            closest_precritical_itinerary(nu, 7)
