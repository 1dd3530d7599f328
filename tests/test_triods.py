"""Triod calculus: hand-iterated examples, symmetry, error paths, and the
kernel layout (its memo and its relayout) against a reference kernel."""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from itertools import groupby, permutations

import pytest

import hubbardtree.tree as tree_module
import hubbardtree.triods as triods
from hubbardtree import (
    Branch,
    InternalAddress,
    Itinerary,
    KneadingSequence,
    Middle,
    TriodError,
    UnrealizedPointError,
    address_to_sequence,
    build_tree,
    classify_triod,
    critical_orbit_itinerary,
)
from hubbardtree.atlas import star_periodic_sequences
from hubbardtree.sequences import _facts
from hubbardtree.triods import TriodResult
from reference import closest_precritical_itinerary

_STAR = ord("*")
ONES = Itinerary.periodic(b"1")


class TestHandIteratedExamples:
    def test_fixed_point_between_critical_pair(self):
        # period 2: the all-ones point separates the critical point from the
        # critical value; indices 1 and 3 are excluded alternately, no chops
        nu = KneadingSequence.parse("1*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 0), ONES, critical_orbit_itinerary(nu, 1), nu)
        assert result == Middle(2)

    def test_three_armed_fixed_point(self):
        # period 4: the three critical value shifts chop cyclically and the
        # recorded majority stays constant 1
        nu = KneadingSequence.parse("110*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 1),
            critical_orbit_itinerary(nu, 2),
            critical_orbit_itinerary(nu, 3), nu)
        assert result == Branch(ONES)

    def test_fixed_point_on_the_spine(self):
        nu = KneadingSequence.parse("10*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 0), critical_orbit_itinerary(nu, 1), ONES, nu)
        assert result == Middle(3)

    def test_immediate_separation_by_critical_point(self):
        # the critical point of 10* sits between the two ends of the arc
        nu = KneadingSequence.parse("10*")
        result = classify_triod(
            critical_orbit_itinerary(nu, 0),
            critical_orbit_itinerary(nu, 1),
            critical_orbit_itinerary(nu, 2), nu)
        assert result == Middle(1)


class TestSymmetry:
    def test_middle_tracks_argument_permutation(self):
        nu = KneadingSequence.parse("10*")
        args = [critical_orbit_itinerary(nu, 0), critical_orbit_itinerary(nu, 1), ONES]
        for perm in permutations(range(3)):
            result = classify_triod(args[perm[0]], args[perm[1]], args[perm[2]], nu)
            assert result == Middle(perm.index(2) + 1)

    def test_branch_invariant_under_permutation(self):
        nu = KneadingSequence.parse("110*")
        args = [critical_orbit_itinerary(nu, k) for k in (1, 2, 3)]
        for perm in permutations(range(3)):
            result = classify_triod(args[perm[0]], args[perm[1]], args[perm[2]], nu)
            assert result == Branch(ONES)


class TestErrors:
    def test_rejects_equal_points(self):
        nu = KneadingSequence.parse("10*")
        c1 = critical_orbit_itinerary(nu, 1)
        with pytest.raises(TriodError):
            classify_triod(c1, c1, ONES, nu)

    def test_rejects_equal_points_in_disguise(self):
        # same stream spelled with a redundant preperiod normalizes equal
        nu = KneadingSequence.parse("10*")
        c1 = critical_orbit_itinerary(nu, 1)
        disguised = Itinerary(nu.word[:1], nu.word[1:] + nu.word[:1])
        assert disguised == c1
        with pytest.raises(TriodError):
            classify_triod(c1, disguised, ONES, nu)

    def test_rejects_stream_inconsistent_with_sequence(self):
        nu = KneadingSequence.parse("10*")
        bogus = Itinerary(b"1", b"*11")
        with pytest.raises(TriodError):
            classify_triod(bogus, ONES, critical_orbit_itinerary(nu, 1), nu)

    def test_simultaneous_stars_need_inconsistent_streams(self):
        # unreachable for checked inputs; forcing it requires planting a
        # stream that lies about what follows its STAR on the tape, raw
        nu = KneadingSequence.parse("10*")
        lying = Itinerary(b"1", b"*00")
        honest = Itinerary(b"1", b"*10")
        _plant(nu, [lying])
        try:
            with pytest.raises(TriodError, match="simultaneous"):
                classify_triod(lying, honest, ONES, nu)
        finally:
            _facts.cache_clear()

    def test_rejected_itinerary_stays_off_the_tape(self):
        # the stream is checked itself even when its shift is on a warm tape;
        # a rejected stream is not laid out, so asking again fails alike
        nu = KneadingSequence.parse("10110*")
        _facts.cache_clear()
        build_tree(nu)
        c0, c1, c2 = (critical_orbit_itinerary(nu, k) for k in range(3))
        bad = Itinerary(b"*", c2.period)
        starts = _facts(nu).layout.starts
        assert bad.shift() == c2 and c2 in starts and bad not in starts
        for _ in range(2):
            with pytest.raises(TriodError) as excinfo:
                classify_triod(bad, c0, c1, nu)
            assert type(excinfo.value) is TriodError
            assert str(excinfo.value) == f"itinerary {bad} does not follow {nu} after its STAR"
            assert bad not in _facts(nu).layout.starts


class TestAuxiliaryPoints:
    def test_preimage_pair_is_separated_by_critical_point(self):
        # the two preimages of the critical point lie on opposite sides
        nu = KneadingSequence.parse("10*")
        star_first = nu.word[-1:] + nu.word[:-1]
        in_zero = Itinerary(b"0", star_first)
        in_one = Itinerary(b"1", star_first)
        result = classify_triod(in_zero, in_one, critical_orbit_itinerary(nu, 0), nu)
        assert result == Middle(3)


# -- reference oracle --------------------------------------------------------

def itinerary_consistent_with(itin: Itinerary, seq: KneadingSequence) -> bool:
    """Whether every STAR in the stream is followed by the sequence itself."""
    value = Itinerary.periodic(seq.word)
    stream = itin.preperiod + itin.period
    return all(Itinerary(stream[k + 1:], itin.period) == value
               for k, symbol in enumerate(stream) if symbol == _STAR)


def reference_classify_triod(
    t1: Itinerary,
    t2: Itinerary,
    t3: Itinerary,
    seq: KneadingSequence,
    *,
    validate: bool = True,
) -> TriodResult:
    """The triod kernel one symbol at a time, keying every state: the
    reference the run-skipping kernel in ``hubbardtree.triods`` must match
    in answers, exception types and messages."""
    points = (t1, t2, t3)
    if len(set(points)) != 3:
        raise TriodError("triod points must be pairwise distinct")
    if validate:
        for p in points:
            if not itinerary_consistent_with(p, seq):
                raise TriodError(f"itinerary {p} does not follow {seq} after its STAR")

    # a tape is preperiod + period, read at positions that wrap back to the
    # start of the period; tape 3 is the replacement stream of a chop
    value = Itinerary.periodic(seq.word)
    itineraries = (*points, value)
    tapes = [p.preperiod + p.period for p in itineraries]
    loops = [len(p.preperiod) for p in itineraries]
    streams = [(0, 0), (1, 0), (2, 0)]  # (tape index, position)

    def advance(t: int, pos: int) -> tuple[int, int]:
        pos += 1
        return (t, pos if pos < len(tapes[t]) else loops[t])

    # generous safety net; genuine queries cycle long before this
    lcm = math.lcm(*(len(p.period) for p in itineraries))
    cap = sum(loops) + 4 * max(seq.period, 1) * lcm + 16

    seen: dict[tuple, int] = {}
    recorded: list[int] = []
    last = [-1, -1, -1]  # step at which each stream was last chopped or excluded

    step = 0
    while True:
        state = (streams[0], streams[1], streams[2])
        if state in seen:
            start = seen[state]
            untouched = [i for i in range(3) if last[i] < start]  # during the cycle
            if len(untouched) == 1:
                index = untouched[0]
                if last[index] >= 0:
                    raise UnrealizedPointError(
                        "cycle survivor was discarded earlier; an input stream "
                        "is not the itinerary of a tree point")
                return Middle(index + 1)
            if not untouched:
                symbols = bytes(recorded)
                return Branch(Itinerary(symbols[:start], symbols[start:]))
            raise TriodError("two streams never separated; inputs are not "
                             "itineraries of distinct tree points")
        seen[state] = step

        heads = [tapes[t][pos] for t, pos in streams]
        star_indices = [i for i, h in enumerate(heads) if h == _STAR]
        if len(star_indices) > 1:
            raise TriodError("two streams hit the critical point simultaneously")

        if star_indices:
            i = star_indices[0]
            others = [heads[j] for j in range(3) if j != i]
            if others[0] != others[1]:
                if last[i] >= 0:
                    raise UnrealizedPointError(
                        "middle candidate was discarded earlier; an input stream "
                        "is not the itinerary of a tree point")
                return Middle(i + 1)
            recorded.append(others[0])
            last[i] = step
            streams = [advance(t, pos) for t, pos in streams]
        elif heads[0] == heads[1] == heads[2]:
            recorded.append(heads[0])
            streams = [advance(t, pos) for t, pos in streams]
        else:
            # exactly one head disagrees (two symbols available, no STAR)
            if heads[0] == heads[1]:
                odd, majority = 2, heads[0]
            elif heads[0] == heads[2]:
                odd, majority = 1, heads[0]
            else:
                odd, majority = 0, heads[1]
            recorded.append(majority)
            last[odd] = step
            streams = [(3, 0) if i == odd else advance(t, pos)
                       for i, (t, pos) in enumerate(streams)]

        step += 1
        if step > cap:
            raise TriodError("triod iteration exceeded its cycle bound (structural bug)")


def _size(itin: Itinerary) -> int:
    return len(itin.preperiod) + len(itin.period)


def _outcome(kernel, args, **options):
    try:
        return kernel(*args, **options)
    except TriodError as exc:
        return type(exc), str(exc)


def _plant(seq: KneadingSequence, points) -> None:
    """A cold value whose first layout holds the points laid out raw,
    unchecked: the only way a stream that lies about what follows its STAR
    reaches the tape."""
    _facts.cache_clear()
    value = Itinerary.periodic(seq.word)
    reach = 3 * max(_size(value), *map(_size, points))
    layout = _facts(seq).layout = triods._Layout(bytearray(), [], reach, {}, {})
    for p in (value, *points):
        if p not in layout.starts:
            triods._append(layout, p)


def _kernel_outcome(args, raw: bool):
    """The kernel's outcome, on its points planted raw on a value cleared
    before and after when ``raw``."""
    if not raw:
        return _outcome(classify_triod, args)
    _plant(args[3], args[:3])
    try:
        return _outcome(classify_triod, args)
    finally:
        _facts.cache_clear()


# inconsistent streams: three queries whose cycle survivor was chopped or
# excluded before the cycle (a random search finds about one in 7000 such
# queries), and one whose streams agree up to a shared STAR, so the window's
# run stops at it and the three heads meet the critical point
HAND_WRITTEN = [("1", "(11*1)", "(*0)", "11(1*)"),
                ("11", "0100(111*)", "00(*11)", "00(11*)"),
                ("101", "10(011)", "101(10*)", "00(1)"),
                ("10110*", "11*(0)", "11*(1)", "11*0(01)")]


def _differential_corpus() -> list[tuple[tuple, bool]]:
    """Seeded triod queries: (t1, t2, t3, seq) and whether the reference
    checks STAR consistency; the HAND_WRITTEN queries come last."""
    corpus = []
    kernel = tree_module.classify_triod

    def recording(*args):
        corpus.append((args, False))
        return kernel(*args)

    # every query build_tree makes for periods <= 10, and for two addresses
    # whose all-equal runs reach 37 and 19 symbols (the kernel's window and
    # its hand-off from one-symbol steps), the reference run on each both
    # unchecked and checked
    tree_module.classify_triod = recording
    try:
        trees = [build_tree(seq) for seq in star_periodic_sequences(10)]
        for address in ("1-2-40", "1-20-40"):
            build_tree(address_to_sequence(InternalAddress.parse(address)))
    finally:
        tree_module.classify_triod = kernel
    corpus += [(args, not validate) for args, validate in corpus]

    rng = random.Random(2008)

    def word(low, high, symbols=b"01"):
        return bytes(rng.choice(symbols) for _ in range(rng.randint(low, high)))

    def sample(pool, seq):
        corpus.append((tuple(rng.sample(pool, 3)) + (seq,), rng.random() < 0.5))

    for tree in trees:
        seq = tree.sequence
        vertices = [v.itinerary for v in tree.vertices]
        star_first = seq.word[-1:] + seq.word[:-1]
        consistent = [Itinerary(word(0, 6), word(1, 6)),  # never meets the critical point
                      Itinerary(word(0, 4), star_first),  # a preimage of the critical point
                      Itinerary(word(0, 4), seq.word)]  # a preimage of the critical value
        inconsistent = [Itinerary(word(0, 4, b"01*"), word(0, 3) + b"*" + word(0, 3))
                        for _ in range(3)]
        for _ in range(4):
            if len(vertices) >= 3:
                sample(vertices, seq)
            sample(vertices + consistent, seq)
            sample(vertices[:3] + inconsistent, seq)
        x, y = rng.sample(vertices, 2)
        corpus.append(((x, y, x, seq), True))
        if seq.period <= 9:
            # the symbolic precritical points lies_between asks about
            c0, c1 = critical_orbit_itinerary(seq, 0), critical_orbit_itinerary(seq, 1)
            zetas = [closest_precritical_itinerary(seq, k) for k in range(1, seq.period + 1)]
            corpus += [((c0, z, c1, seq), True) for z in zetas if z not in (c0, c1)]
            corpus += [((c1, z, w, seq), True) for z in zetas for w in zetas
                       if len({c1, z, w}) == 3]
    for _ in range(5000):
        # plain periodic words: the critical value never meets a STAR
        seq = KneadingSequence(b"1" + word(0, 5))
        pool = [Itinerary(word(0, 4), word(1, 4)), Itinerary(word(0, 4), word(1, 4)),
                Itinerary(word(0, 3), seq.word), Itinerary(word(0, 3), seq.word)]
        pool += [Itinerary(word(0, 4, b"01*"), word(0, 3) + b"*" + word(0, 3))
                 for _ in range(2)]
        sample(pool, seq)
    for word_text, *texts in HAND_WRITTEN:
        points = tuple(Itinerary(*text[:-1].encode().split(b"(")) for text in texts)
        corpus.append((points + (KneadingSequence(word_text.encode()),), False))
    return corpus


@functools.cache
def _reference_answers() -> tuple:
    """The corpus, each query with the reference kernel's outcome and whether
    the kernel must run it raw: the reference runs it unchecked, and one of
    its points does not follow the sequence after its STAR."""
    return tuple((args, not validate and not all(itinerary_consistent_with(p, args[3])
                                                 for p in args[:3]),
                  _outcome(reference_classify_triod, args, validate=validate))
                 for args, validate in _differential_corpus())


class TestAgainstReference:
    def test_kernels_agree_on_seeded_corpus(self):
        answers = _reference_answers()
        assert len(answers) >= 40_000
        kinds = Counter()
        for args, raw, expected in answers:
            assert _kernel_outcome(args, raw) == expected, (args, raw)
            kinds[type(expected).__name__ if isinstance(expected, (Middle, Branch)) else
                  f"{expected[0].__name__}: {expected[1]}"] += 1
        # every answer and every error the kernel can give appears
        for kind in ["Middle", "Branch",
                     "TriodError: triod points must be pair",
                     "TriodError: two streams never separa",
                     "TriodError: two streams hit the crit",
                     "UnrealizedPointError: middle candidate was dis",
                     "UnrealizedPointError: cycle survivor was disca"]:
            assert any(key.startswith(kind) for key in kinds), (kind, kinds)
        assert any(key.startswith("TriodError: itinerary") for key in kinds), kinds

    def test_shuffled_order_agrees(self, monkeypatch):
        # the memo fills in another order, and a second pass replays from
        # it.  The context cache holds one sequence, so a full shuffle would
        # run almost every query on a cold context: the queries are shuffled
        # within each sequence instead
        replays = Counter()
        rebase = triods._rebase

        def counted(outcome, *rest):
            replays[outcome[0].__name__] += 1
            return rebase(outcome, *rest)

        monkeypatch.setattr(triods, "_rebase", counted)
        answers = list(_reference_answers())
        random.Random(11).shuffle(answers)
        answers.sort(key=lambda answer: answer[0][3])  # stable: shuffled within a sequence
        for _, group in groupby(answers, key=lambda answer: answer[0][3]):
            group = list(group)
            for replay in (False, True):
                for args, raw, expected in group:
                    assert _kernel_outcome(args, raw) == expected, (replay, args, raw)
        # every kind of outcome was replayed
        assert set(replays) == {"Middle", "Branch", "TriodError"}, replays

    def test_cold_contexts_agree(self):
        # a fresh value per query: no memo, and the first layout of each.
        # The hand-written queries always run; 10,000 drawn from the rest
        answers = _reference_answers()
        cut = len(answers) - len(HAND_WRITTEN)
        assert [str(args[3]) for args, _, _ in answers[cut:]] == [w for w, *_ in HAND_WRITTEN]
        for args, raw, expected in [*random.Random(12).sample(answers[:cut], 10_000), *answers[cut:]]:
            _facts.cache_clear()
            assert _kernel_outcome(args, raw) == expected, (args, raw)


class TestRelayout:
    def test_longer_itinerary_starts_a_fresh_layout(self, monkeypatch):
        seq = KneadingSequence.parse("1011010110*")
        queries = []
        kernel = tree_module.classify_triod

        def recording(*args):
            queries.append(args)
            return kernel(*args)

        monkeypatch.setattr(tree_module, "classify_triod", recording)
        _facts.cache_clear()
        build_tree(seq)
        expected = [_outcome(reference_classify_triod, args) for args in queries]
        assert [_outcome(classify_triod, args) for args in queries] == expected
        facts = _facts(seq)
        old = facts.layout
        assert old.memo, "the tree queries warm the memo"

        # a symbolic precritical point has up to 2n - 1 symbols, more than
        # any vertex; the query pairs it with two laid-out points
        zeta = max((closest_precritical_itinerary(seq, k) for k in range(1, seq.period + 1)),
                   key=lambda z: len(z.preperiod) + len(z.period))
        assert 3 * (len(zeta.preperiod) + len(zeta.period)) > old.reach
        ends = critical_orbit_itinerary(seq, 0), critical_orbit_itinerary(seq, 1)
        assert all(end in old.starts for end in ends)
        for args in [(ends[0], zeta, ends[1], seq), (zeta, ends[0], ends[1], seq)]:
            assert _outcome(classify_triod, args) == _outcome(reference_classify_triod, args)
        new = facts.layout
        assert new is not old
        assert new.memo is not old.memo and len(new.memo) < len(old.memo)

        # replaying the tree queries lays their points out again, on the new
        # tape, and fills the new memo
        assert [_outcome(classify_triod, args) for args in queries] == expected
        assert facts.layout is new and set(new.starts) >= {p for q in queries for p in q[:3]}


class TestRegisteredShifts:
    """A laid-out itinerary's shifts, which for a periodic one are the
    rotations of its word, are read from its region instead of being laid
    out again; each must read exactly as it does from a region of its own."""

    @staticmethod
    def laid(seq: KneadingSequence, points: list[Itinerary], own: Itinerary | None = None):
        """A cold value's layout holding the points, with ``own`` moved to a
        region of its own."""
        _facts.cache_clear()
        layout = triods._lay(_facts(seq), points)
        if own is not None:
            del layout.starts[own]
            at = len(layout.tape)
            triods._append(layout, own)
            assert layout.starts[own] == at
        return layout

    @staticmethod
    def assert_one_region_per_orbit(layout: triods._Layout, tree) -> None:
        """The critical orbit sits in the value's region, and each spectrum
        orbit in the region of its characteristic point."""
        seq = tree.sequence
        for k in range(seq.period):
            assert layout.starts[critical_orbit_itinerary(seq, k)] == (k - 1) % seq.period
        for entry in tree.spectrum:
            itin = entry.characteristic_itinerary
            at = layout.starts[itin]
            for j in range(entry.period):
                assert layout.starts[itin] == at + j, (str(seq), entry)
                itin = itin.shift()

    def test_shifts_read_as_from_their_own_regions(self):
        rng = random.Random(7)
        for seq in star_periodic_sequences(8):
            tree = build_tree(seq)
            points = [v.itinerary for v in tree.vertices]
            self.assert_one_region_per_orbit(self.laid(seq, points), tree)
            for r in points:
                pairs = [(a, b) for a in points for b in points if len({r, a, b}) == 3]
                pairs = rng.sample(pairs, min(6, len(pairs)))
                queries = [(r, a, b, seq) for a, b in pairs] + [(a, r, b, seq) for a, b in pairs]
                answers = []
                for own in (None, r):
                    self.laid(seq, points, own)
                    answers.append([_outcome(classify_triod, q) for q in queries])
                assert answers[0] == answers[1], (str(seq), r)

    def test_inconsistent_shifts_read_as_from_their_own_regions(self):
        # every rotation of a word that breaks the value after its STAR is
        # rejected, laid out alone or queried, and is not laid out after
        for seq in star_periodic_sequences(8, exact=True):
            word = seq.word[:-2] + bytes([seq.word[-2] ^ 1]) + b"*"
            rotations = [Itinerary.periodic(word[k:] + word[:k]) for k in range(len(word))]
            ends = critical_orbit_itinerary(seq, 0), critical_orbit_itinerary(seq, 1)
            for r in rotations:
                _facts.cache_clear()
                facts = _facts(seq)
                with pytest.raises(TriodError, match="does not follow"):
                    triods._lay(facts, [r])
                query = (r, *ends, seq)
                assert _outcome(classify_triod, query)[1].startswith(f"itinerary {r} does not")
                assert r not in facts.layout.starts, (str(seq), r)

    def test_a_relayout_registers_the_shifts_again(self):
        seq = KneadingSequence.parse("1011010110*")
        tree = build_tree(seq)
        points = [v.itinerary for v in tree.vertices]
        old = self.laid(seq, points)
        zeta = max((closest_precritical_itinerary(seq, k) for k in range(1, seq.period + 1)),
                   key=_size)
        assert 3 * _size(zeta) > old.reach
        c1 = critical_orbit_itinerary(seq, 1)
        for r in points:
            if r != c1:
                query = (r, zeta, c1, seq)
                assert _outcome(classify_triod, query) == _outcome(reference_classify_triod, query), r
        new = _facts(seq).layout
        assert new is not old and new.reach == 3 * _size(zeta)
        self.assert_one_region_per_orbit(new, tree)
