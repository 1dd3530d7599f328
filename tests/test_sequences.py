"""Sequence-level operations, checked against brute-force oracles."""

from __future__ import annotations

import importlib
import pickle
import pkgutil
import random
import sys
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hubbardtree
from hubbardtree import (
    INFINITY,
    InternalAddress,
    Itinerary,
    KneadingSequence,
    ParseError,
    address_to_sequence,
    branch_spectrum,
    build_tree,
    classify_triod,
    critical_orbit_itinerary,
    exact_period,
    first_mismatch,
    internal_address,
    mismatch_orbit,
)
from hubbardtree.atlas import star_periodic_sequences
from hubbardtree.cli import _SEQUENCE_TEXT
from hubbardtree.sequences import _facts
from hubbardtree.triods import TriodError, _lay
from reference import (
    closest_precritical_itinerary,
    orbit_contains,
    upper_lower,
    word_address,
    word_mismatch,
    word_orbit,
)


def oracle_first_mismatch(text: str, offset: int):
    """Literal scan over an explicitly unfolded repetition of the word."""
    horizon = offset + 3 * len(text) + 8
    unfolded = (text * (horizon // len(text) + 1))[:horizon]
    for k in range(offset + 1, offset + len(text) + 1):
        if unfolded[k - 1] != unfolded[k - offset - 1]:
            return k
    return INFINITY


binary_words = st.text(alphabet="01", min_size=0, max_size=63).map(lambda s: "1" + s)


class TestParsing:
    def test_roundtrip_text(self):
        assert str(KneadingSequence.parse("10110*")) == "10110*"

    @pytest.mark.parametrize("bad", ["0110*", "", "1*1*", "1x0*", "*", "1*0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            KneadingSequence.parse(bad)

    @pytest.mark.parametrize("word", [b"1x0*", b"", "10*", b"2"])
    def test_constructor_rejects_non_words(self, word):
        with pytest.raises(ParseError):
            KneadingSequence(word)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(alphabet="01*", max_size=20),
                     st.text(alphabet="01", max_size=19).map(lambda text: text + "*")))
    @example("10110*")
    @example("0110*")
    @example("1011")
    @example("10*1")
    @example("")
    def test_one_grammar_with_the_command_line(self, text):
        # the library takes exactly the command line's sequence text, with a
        # leading 1: no plain 0-1 word, and one STAR, in the final slot
        accepted = _SEQUENCE_TEXT.fullmatch(text) is not None and text.startswith("1")
        for build, word in [(KneadingSequence, text.encode()), (KneadingSequence.parse, text)]:
            try:
                build(word)
            except ParseError:
                assert not accepted, text
            else:
                assert accepted, text

    @pytest.mark.parametrize("build,text", [
        (KneadingSequence.parse, "\u00e9" * 5000),
        (KneadingSequence, b"2" * 5000),
    ], ids=["parse-non-ascii", "constructor-bytes"])
    def test_rejected_text_is_quoted_in_part(self, build, text):
        with pytest.raises(ParseError) as excinfo:
            build(text)
        message = str(excinfo.value)
        assert len(message) < 200
        assert repr(text[:40]) + "..." in message

    def test_entry_positions(self):
        nu = KneadingSequence.parse("10110*")
        assert nu.word == b"10110*"


class TestFirstMismatch:
    def test_values_against_oracle(self):
        nu = KneadingSequence.parse("10110*")
        for offset in range(1, 13):
            assert first_mismatch(nu, offset) == oracle_first_mismatch("10110*", offset)

    def test_known_values(self):
        nu = KneadingSequence.parse("10110*")
        assert first_mismatch(nu, 1) == 2
        assert first_mismatch(nu, 3) == 6

    def test_constant_sequence_is_infinite(self):
        # a plain constant word agrees with every shift; a star-periodic
        # sequence agrees exactly with its shifts by multiples of the period
        assert word_mismatch(b"11", 1) is INFINITY
        ones = KneadingSequence(b"11*")
        assert [first_mismatch(ones, k) for k in range(1, 7)] == [3, 3, INFINITY, 6, 6, INFINITY]

    @given(binary_words, st.integers(min_value=1, max_value=80))
    def test_matches_oracle_on_random_words(self, text, offset):
        # the package on the word closed by a STAR, the plain-word walk of
        # tests/reference.py on the word itself
        seq = KneadingSequence.parse(text + "*")
        assert first_mismatch(seq, offset) == oracle_first_mismatch(text + "*", offset)
        assert word_mismatch(text.encode(), offset) == oracle_first_mismatch(text, offset)

    def test_table_matches_window_definition(self):
        # every plain and star-periodic word of period <= 10, every offset up
        # to three periods; an infinite answer is the INFINITY object itself,
        # since callers test `is INFINITY`.  The package takes the
        # star-periodic words and rejects the plain ones, which the
        # plain-word walk of tests/reference.py takes instead
        words = [b"1" + bytes(middle) + end
                 for n in range(1, 11)
                 for end in (b"", b"*") if n >= 1 + len(end)
                 for middle in product(b"01", repeat=n - 1 - len(end))]
        assert len(words) == 1023 + 511
        for word in words:
            if word.endswith(b"*"):
                mismatch = partial(first_mismatch, KneadingSequence(word))
            else:
                with pytest.raises(ParseError):
                    KneadingSequence(word)
                mismatch = partial(word_mismatch, word)
            text = word.decode()
            for offset in range(1, 3 * len(word) + 1):
                expected = oracle_first_mismatch(text, offset)
                if expected is INFINITY:
                    assert mismatch(offset) is INFINITY, (text, offset)
                else:
                    assert mismatch(offset) == expected, (text, offset)


class TestMismatchOrbit:
    def test_orbit_of_one(self):
        assert mismatch_orbit(KneadingSequence.parse("10110*"), 1) == [1, 2, 4, 5, 6]
        assert mismatch_orbit(KneadingSequence.parse("1011010110*"), 1) == [1, 2, 4, 5, 11]

    def test_orbit_stops_at_star_boundary(self):
        assert mismatch_orbit(KneadingSequence.parse("10110*"), 3) == [3, 6]

    def test_membership_matches_orbit(self):
        nu = KneadingSequence.parse("1011010110*")
        orbit = mismatch_orbit(nu, 1)
        for m in range(1, 12):
            assert orbit_contains(nu.word, 1, m) == (m in orbit)

    def test_orbit_ends_at_a_multiple_of_the_period(self):
        # a shift by anything but a multiple of the period puts a 0 or 1
        # under the next STAR, so every walk stops at the first multiple of
        # the period it reaches, with no bound needed
        for seq in star_periodic_sequences(8):
            n = seq.period
            for k in range(1, 3 * n + 1):
                orbit = mismatch_orbit(seq, k)
                assert orbit[-1] % n == 0 and all(e % n for e in orbit[:-1]), (str(seq), k)
                assert orbit == word_orbit(seq.word, k, 4 * n), (str(seq), k)


class TestInternalAddress:
    @pytest.mark.parametrize("text,entries", [
        ("10110*", (1, 2, 4, 5, 6)),
        ("101*", (1, 2, 4)),
        ("111*", (1, 4)),
    ])
    def test_known_addresses(self, text, entries):
        addr = internal_address(KneadingSequence.parse(text))
        assert addr.entries == entries
        assert str(addr) == "-".join(map(str, entries))

    def test_star_periodic_address_ends_at_period(self):
        for seq in star_periodic_sequences(9):
            addr = internal_address(seq)
            assert addr.entries[0] == 1
            assert addr.entries[-1] == seq.period

    def test_plain_word_can_be_truncated(self):
        # the lower sequence of 10* has an unbounded address, which only the
        # plain-word walk of tests/reference.py can truncate: the package
        # takes no plain word
        entries, terminated = word_address(b"101", 30)
        assert not terminated
        assert 3 not in entries and entries[-1] > 20
        with pytest.raises(ParseError):
            KneadingSequence(b"101")

    def test_parse_and_render(self):
        addr = InternalAddress.parse("1-2-4-5-6")
        assert addr.entries == (1, 2, 4, 5, 6)
        assert str(addr) == "1-2-4-5-6"
        with pytest.raises(ParseError):
            InternalAddress.parse("2-4")
        with pytest.raises(ParseError):
            InternalAddress.parse("1-5-3")
        with pytest.raises(ParseError):
            InternalAddress((2,))
        # only ASCII [0-9]+(-[0-9]+)*, although int() would read most of these
        for bad in (" 1-2", "1-2 ", "1_0-20", "１-２", "+1-2", "1--2", "1-", ""):
            with pytest.raises(ParseError, match="invalid address text"):
                InternalAddress.parse(bad)


class TestAddressToSequence:
    @pytest.mark.parametrize("text,sequence", [
        ("1-2-4-5-6", "10110*"),
        ("1-2-4", "101*"),
        ("1-2-4-5-11", "1011010110*"),
    ])
    def test_known_pairs(self, text, sequence):
        assert str(address_to_sequence(InternalAddress.parse(text))) == sequence

    def test_rejects_single_entry(self):
        with pytest.raises(ParseError):
            address_to_sequence(InternalAddress((1,)))

    def test_roundtrip_all_small_periods(self):
        for seq in star_periodic_sequences(12):
            assert address_to_sequence(internal_address(seq)) == seq


class TestExactPeriod:
    @pytest.mark.parametrize("text,period", [
        (b"1010", 2),
        (b"101", 3),
        (b"111111", 1),
    ])
    def test_examples(self, text, period):
        assert exact_period(text) == period

    @given(st.one_of(
        # a block repeated k times, so that proper periods come up often
        st.builds(lambda block, k: block * k,
                  st.text(alphabet="01", min_size=1, max_size=8), st.integers(1, 8)),
        st.text(alphabet="01", min_size=1, max_size=40)))
    def test_matches_the_definition(self, text):
        word, n = text.encode(), len(text)
        least = min(d for d in range(1, n + 1) if n % d == 0 and word[:d] * (n // d) == word)
        assert exact_period(word) == least

    def test_rejects_star(self):
        with pytest.raises(ValueError):
            exact_period(b"10*")

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError, match="nonempty"):
            exact_period(b"")


class TestUpperLower:
    @pytest.mark.parametrize("text,upper,lower", [
        ("1*", "10", "11"),
        ("10*", "100", "101"),
    ])
    def test_known_substitutions(self, text, upper, lower):
        assert upper_lower(text.encode()) == (upper.encode(), lower.encode())

    def test_upper_contains_period_in_address(self):
        for seq in star_periodic_sequences(9):
            n = seq.period
            up, low = upper_lower(seq.word)
            # read against the package's own address, not only on
            # orbit_contains, which upper_lower uses: the upper word's
            # address agrees with the sequence's up to the period
            assert word_address(up, n)[0] == internal_address(seq).entries, str(seq)
            assert n not in word_orbit(low, 1, n)

    def test_upper_has_exact_period(self):
        for seq in star_periodic_sequences(10):
            up, _ = upper_lower(seq.word)
            assert exact_period(up) == seq.period

    def test_lower_repeats_before_the_period(self):
        # with m the largest address entry below n, the lower sequence keeps
        # agreeing with its m-shift past n, so n never enters its address
        for seq in star_periodic_sequences(10):
            n = seq.period
            m = max(e for e in internal_address(seq).entries if e < n)
            _, low = upper_lower(seq.word)
            assert word_mismatch(low, m) > n
            assert n not in word_orbit(low, 1, n)


class TestItinerary:
    def test_shift_rotates_pure_period(self):
        c0 = critical_orbit_itinerary(KneadingSequence.parse("1*"), 0)
        assert str(c0) == "(*1)"
        assert str(c0.shift()) == "(1*)"

    def test_shift_drops_preperiod(self):
        itin = Itinerary(b"0", b"1")
        assert itin.shift() == Itinerary.periodic(b"1")

    def test_shift_plain_period(self):
        itin = Itinerary.periodic(b"10")
        assert str(itin.shift()) == "(01)"

    @pytest.mark.parametrize("star", [False, True], ids=["no-star", "star"])
    @pytest.mark.parametrize("preperiod", [False, True], ids=["periodic", "preperiodic"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_shift_is_already_canonical(self, star, preperiod, data):
        # shift() skips renormalizing; the normalizing constructor agrees
        period = data.draw(st.text(alphabet="01", min_size=1, max_size=8)).encode()
        if star:
            at = data.draw(st.integers(0, len(period)))
            period = period[:at] + b"*" + period[at:]
        pre = data.draw(st.text(alphabet="01*", min_size=int(preperiod), max_size=6 * preperiod))
        itin = Itinerary(pre.encode(), period)
        assume(bool(itin.preperiod) == preperiod)
        if itin.preperiod:
            expected = Itinerary(itin.preperiod[1:], itin.period)
        else:
            expected = Itinerary(b"", itin.period[1:] + itin.period[:1])
        shifted = itin.shift()
        assert type(shifted) is Itinerary
        assert (shifted.preperiod, shifted.period) == (expected.preperiod, expected.period)

    def test_normalization_minimizes(self):
        raw = Itinerary(b"1", b"111")
        assert raw == Itinerary.periodic(b"1")
        assert (raw.preperiod, raw.period) == (b"", b"1")

    def test_normalization_absorbs_preperiod(self):
        # spelling the critical value as "prefix + rotated period" collapses
        nu = KneadingSequence.parse("10110*")
        star_first = nu.word[-1:] + nu.word[:-1]
        assert Itinerary(nu.word[:5], star_first) == Itinerary.periodic(nu.word)

    def test_critical_orbit_cycle(self):
        nu = KneadingSequence.parse("10110*")
        points = [critical_orbit_itinerary(nu, k) for k in range(6)]
        assert len(set(points)) == 6
        for k in range(6):
            assert points[k].shift() == points[(k + 1) % 6]

    def test_rejects_two_stars_per_period(self):
        with pytest.raises(ValueError):
            Itinerary.periodic(b"*1*")

    def test_consistency_matches_shift_orbit(self):
        # reference definition: every shift that starts at a STAR continues
        # with the sequence itself
        def by_shifts(itin, seq):
            value = Itinerary.periodic(seq.word)
            stream = itin
            for _ in range(len(itin.preperiod) + len(itin.period)):
                if stream.prefix(1) == b"*" and stream.shift() != value:
                    return False
                stream = stream.shift()
            return True

        def words(max_length, min_length):
            for length in range(min_length, max_length + 1):
                for symbols in product(b"01*", repeat=length):
                    yield bytes(symbols)

        periods = [word for word in words(4, 1) if word.count(b"*") <= 1]
        cases = 0
        for text in ("10*", "110*", "1011*", "10110*"):
            seq = KneadingSequence.parse(text)
            for pre in words(3, 0):
                for per in periods:
                    itin = Itinerary(pre, per)
                    # the kernel checks an itinerary when it lays it out
                    try:
                        _lay(_facts(seq), [itin])
                    except TriodError:
                        consistent = False
                    else:
                        consistent = True
                    assert consistent == by_shifts(itin, seq), (text, itin)
                    cases += 1
        assert cases == 12640


class TestValueTypes:
    """The value types are tuples underneath; only their own contract shows."""

    def test_itinerary_keyword_and_positional_normalize_alike(self):
        by_keyword = Itinerary(preperiod=b"0110", period=b"110110")
        positional = Itinerary(b"0110", b"110110")
        assert (by_keyword.preperiod, by_keyword.period) == (b"", b"011")
        assert (positional.preperiod, positional.period) == (b"", b"011")
        assert Itinerary(period=b"10") == Itinerary.periodic(b"10")

    def test_itinerary_sorts_and_hashes_as_its_field_pair(self):
        itins = {Itinerary(pre, per)
                 for pre in (b"", b"0", b"1", b"01", b"10*")
                 for per in (b"1", b"0", b"10", b"*1", b"1*0", b"011")}
        assert len(itins) > 20
        pairs = [(t.preperiod, t.period) for t in itins]
        assert [(t.preperiod, t.period) for t in sorted(itins)] == sorted(pairs)
        assert all(hash(t) == hash(pair) for t, pair in zip(itins, pairs))

    @pytest.mark.parametrize("value", [
        KneadingSequence(b"10110*"),
        Itinerary(b"01", b"1*0"),
        InternalAddress((1, 2, 4, 5, 6)),
        InternalAddress((1, 3, 7)),
    ], ids=str)
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        assert copy == value

    def test_unpickling_revalidates(self):
        # tuple.__new__ skips the checks; loading goes through them again
        forged_word = tuple.__new__(KneadingSequence, (b"2",))
        with pytest.raises(ParseError):
            pickle.loads(pickle.dumps(forged_word))
        forged_address = tuple.__new__(InternalAddress, ((1, 1),))
        with pytest.raises(ParseError):
            pickle.loads(pickle.dumps(forged_address))
        raw = tuple.__new__(Itinerary, (b"1", b"111"))
        assert pickle.loads(pickle.dumps(raw)).period == b"1"

    def test_replace_revalidates(self):
        with pytest.raises(ParseError):
            KneadingSequence(b"1*")._replace(word=b"2")
        with pytest.raises(ParseError):
            InternalAddress((1, 2))._replace(entries=(2,))
        assert Itinerary.periodic(b"1")._replace(period=b"111") == Itinerary.periodic(b"1")


class TestMismatchOrbitCombinatorics:
    """Random-word properties of the mismatch structure, on plain words
    through the plain-word walk of tests/reference.py."""

    @settings(max_examples=300, deadline=None)
    @given(binary_words)
    def test_orbit_passes_through_translated_entries(self, text):
        # for an address entry m and s < m < first_mismatch(s), the orbit of
        # first_mismatch(m-s) - (m-s) comes back through m
        word = text.encode()
        entries, _ = word_address(word, 3 * len(word))
        for m in entries:
            for s in range(1, m):
                rho_s = word_mismatch(word, s)
                if rho_s is INFINITY or rho_s <= m:
                    continue
                rho_diff = word_mismatch(word, m - s)
                if rho_diff is INFINITY:
                    continue
                assert orbit_contains(word, rho_diff - (m - s), m), (text, m, s)

    @settings(max_examples=300, deadline=None)
    @given(binary_words)
    def test_infinite_entry_is_exact_period(self, text):
        word = text.encode()
        entries, terminated = word_address(word, 4 * len(word))
        if terminated:
            assert entries[-1] == exact_period(word)

    @settings(max_examples=300, deadline=None)
    @given(binary_words, st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=6))
    def test_translation_property(self, text, m, k):
        # on the plain word, and through the package on the word closed by a STAR
        for mismatch in (partial(word_mismatch, text.encode()),
                         partial(first_mismatch, KneadingSequence.parse(text + "*"))):
            rho_m = mismatch(m)
            if rho_m is INFINITY:
                assert mismatch(k * m) is INFINITY
            elif rho_m > k * m:
                assert mismatch(k * m) == rho_m


def _triod(*args):
    try:
        return classify_triod(*args)
    except TriodError as exc:
        return type(exc), str(exc)


class TestOnePerSequenceValue:
    """What is worked out per sequence lives in one cached value, held for
    the last sequence asked for."""

    def test_one_cache_is_left(self):
        for info in pkgutil.iter_modules(hubbardtree.__path__):
            importlib.import_module(f"hubbardtree.{info.name}")
        caches = {id(value): value  # by identity: a re-imported name counts once
                  for name, module in list(sys.modules.items())
                  if name == "hubbardtree" or name.startswith("hubbardtree.")
                  for value in vars(module).values() if hasattr(value, "cache_clear")}
        assert [value is _facts for value in caches.values()] == [True]

        seq = KneadingSequence.parse("10110*")
        build_tree(seq)
        _facts.cache_clear()
        facts = _facts(seq)
        assert facts.diagnostics is None and facts.layout is None
        build_tree(seq)  # the spectrum fills one slot, the triod kernel the other
        assert _facts(seq) is facts
        assert facts.diagnostics is not None and facts.layout is not None

    def test_the_one_slot_is_evicted_whole(self):
        # A, B, A, B against each one's cold answers; each sequence's longest
        # symbolic precritical point forces a relayout, so the slot also
        # holds a layout grown past its first when it is evicted
        rng = random.Random(21)
        questions = {}
        for text in ("10110*", "1011010110*"):
            seq = KneadingSequence.parse(text)
            _facts.cache_clear()
            vertices = [v.itinerary for v in build_tree(seq).vertices]
            zeta = max((closest_precritical_itinerary(seq, k) for k in range(1, seq.period + 1)),
                       key=lambda z: len(z.preperiod) + len(z.period))
            assert len(zeta.preperiod) + len(zeta.period) > seq.period  # past any vertex
            ends = critical_orbit_itinerary(seq, 0), critical_orbit_itinerary(seq, 1)
            triples = rng.sample(list(combinations(vertices, 3)), 40)
            triples += [(ends[0], zeta, ends[1]), (zeta, *ends)]
            questions[text] = [partial(branch_spectrum, seq)]
            questions[text] += [partial(first_mismatch, seq, k) for k in range(1, 2 * seq.period + 1)]
            questions[text] += [partial(_triod, *triple, seq) for triple in triples]

        cold = {}
        for text, asked in questions.items():
            cold[text] = []
            for question in asked:
                _facts.cache_clear()
                cold[text].append(question())
        _facts.cache_clear()
        for text in ("10110*", "1011010110*", "10110*", "1011010110*"):
            assert [question() for question in questions[text]] == cold[text], text
