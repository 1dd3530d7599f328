"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures surface the line through pytest's captured output as well).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

from hubbardtree import (
    INFINITY,
    KneadingSequence,
    OrbitKind,
    arm_permutation,
    branch_spectrum,
    build_tree,
    classify_orbits,
    count_embeddings,
    enumerate_embeddings,
    euler_phi,
    exact_period,
    fails_for_period,
    failing_periods,
    first_mismatch,
    verify_embedding,
)
from hubbardtree.atlas import star_periodic_sequences
from reference import embedding_census, is_admissible, upper_lower


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def run_cli(args, **env_extra):
    env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hubbardtree.cli", *args],
        capture_output=True, text=True, env=env)


def test_criterion_1_figure_one_reproduction():
    with criterion(1, "figure-1 reproduction (10110*)"):
        started = time.perf_counter()
        result = run_cli(["analyze", "10110*"])
        elapsed = time.perf_counter() - started
        assert result.returncode == 0
        out = result.stdout
        assert "internal-address: 1-2-4-5-6" in out
        assert "failing-periods: 3" in out
        assert "kind=evil period=3 arms=3" in out
        assert "vertices=9 edges=8 endpoints=c1,c2,c3,c4,c5" in out
        assert "embeddings: 0" in out

        tree = build_tree("10110*")
        permutation, kind = arm_permutation(tree, "z3.0", 3)
        assert kind is OrbitKind.EVIL
        toward_critical = tree.arm_toward("z3.0", "c0")
        assert permutation[toward_critical] == toward_critical
        others = [arm for arm in tree.neighbors("z3.0") if arm != toward_critical]
        assert permutation[others[0]] == others[1]
        assert permutation[others[1]] == others[0]
        assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"


def test_criterion_2_figure_two_reproduction():
    with criterion(2, "figure-2 reproduction (1011010110*)"):
        started = time.perf_counter()
        result = run_cli(["analyze", "1011010110*"])
        elapsed = time.perf_counter() - started
        assert result.returncode == 0
        out = result.stdout
        assert "internal-address: 1-2-4-5-11" in out
        assert "admissible: true" in out
        assert "kind=tame period=5 arms=3" in out
        assert "max-branch-period=5" in out
        assert "embeddings: 2" in out
        assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"


def test_criterion_3_remark_list_diagnostics():
    with criterion(3, "remark-list diagnostics (sole violated conjunct)"):
        cases = [
            ("101*", 2, "cond1"),
            ("111*", 2, "cond2"),
            ("101*", 3, "cond3"),
        ]
        for text, period, violated in cases:
            seq = KneadingSequence.parse(text)
            diag = fails_for_period(seq, period)
            values = {"cond1": diag.cond1, "cond2": diag.cond2, "cond3": diag.cond3}
            assert not values.pop(violated), (text, period)
            assert all(values.values()), (text, period)
            assert not diag.fails
            assert is_admissible(seq)


def angle_words(n: int) -> Counter:
    """Kneading words of the external angles a/(2^n - 1) of exact period n
    under doubling, counted with multiplicity.

    With d = 2^n - 1 and x = 2^(k-1) a mod d, the k-th symbol is * when 2x is
    a or a + d, 1 when it lies strictly between them, and 0 otherwise.
    """
    d = 2 ** n - 1
    words: Counter = Counter()
    for a in range(1, d):
        orbit = [a]
        while (x := 2 * orbit[-1] % d) != a:
            orbit.append(x)
        if len(orbit) == n:
            words["".join("*" if 2 * x in (a, a + d) else "1" if a < 2 * x < a + d else "0"
                          for x in orbit)] += 1
    return words


def test_criterion_4_predicted_equals_observed(corpus):
    with criterion(4, "admissibility == no evil orbit, spectrum == observed, "
                      f"angles == 2 x embeddings (period <= {corpus.period})"):
        started = time.perf_counter()
        checked = 0
        angles = sum((angle_words(n) for n in range(2, corpus.period + 1)), Counter())
        for tree in corpus.trees:
            seq = tree.sequence
            observed = classify_orbits(tree)  # raises on spectrum mismatch
            predicted = branch_spectrum(seq)
            assert [(o.period, o.arms, o.kind) for o in observed] == \
                   [(e.period, e.arms, e.kind) for e in predicted]
            has_evil = any(o.kind is OrbitKind.EVIL for o in observed)
            assert is_admissible(seq) == (not has_evil), str(seq)
            assert (not failing_periods(seq)) == (not has_evil), str(seq)
            # independent oracle: each embedding is one parameter-space
            # component, and each component has two external angles
            found = angles.pop(str(seq), 0)
            assert found == 2 * count_embeddings(observed), str(seq)
            assert (found > 0) == is_admissible(seq), str(seq)
            checked += 1
        elapsed = corpus.build_s + time.perf_counter() - started  # builds included
        assert checked == 4095
        assert not angles, f"angle words matching no sequence: {sorted(angles)[:5]}"
        assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"


def test_criterion_5_exact_period_of_upper_sequence():
    with criterion(5, "upper sequence has exact period n (period <= 12)"):
        checked = 0
        for seq in star_periodic_sequences(12):
            upper, _ = upper_lower(seq)
            assert exact_period(upper.word) == seq.period, str(seq)
            checked += 1
        assert checked == 2047


def test_criterion_6_mismatch_combinatorics_random_words():
    with criterion(6, "mismatch-orbit combinatorics on 10^4 random words"):
        rng = random.Random(20260811)
        violations = 0
        for _ in range(10_000):
            length = rng.randint(1, 64)
            text = "1" + "".join(rng.choice("01") for _ in range(length - 1))
            seq = KneadingSequence.parse(text)

            cache: dict[int, object] = {}

            def rho(m: int):
                if m not in cache:
                    cache[m] = first_mismatch(seq, m)
                return cache[m]

            def orbit_has(start: int, target: int) -> bool:
                k = start
                while k < target:
                    nxt = rho(k)
                    if nxt is INFINITY:
                        return False
                    k = nxt
                return k == target

            # internal address entries up to 3 periods out
            entries = [1]
            while True:
                nxt = rho(entries[-1])
                if nxt is INFINITY or nxt > 3 * seq.period:
                    break
                entries.append(nxt)

            # orbit translation: an address entry m framed by s < m < rho(s)
            # is reachable from rho(m-s) - (m-s)
            for m in entries:
                for s in range(1, m):
                    rho_s = rho(s)
                    if rho_s is INFINITY or rho_s <= m:
                        continue
                    rho_diff = rho(m - s)
                    if rho_diff is INFINITY:
                        continue
                    if not orbit_has(rho_diff - (m - s), m):
                        violations += 1

            # a terminating address entry is the exact period
            if rho(entries[-1]) is INFINITY:
                if entries[-1] != exact_period(seq.word):
                    violations += 1

            # translation property: rho(km) = rho(m) while km < rho(m)
            for m in range(1, seq.period + 1):
                rho_m = rho(m)
                if rho_m is INFINITY:
                    continue
                k = 2
                while k * m < rho_m:
                    if rho(k * m) != rho_m:
                        violations += 1
                    k += 1
        assert violations == 0


def test_criterion_7_embedding_exhaustion():
    with criterion(7, "rotation tuples exhaust the embedding count (period <= 8)"):
        for seq in star_periodic_sequences(8):
            tree = build_tree(seq)
            orbits = classify_orbits(tree)
            expected = count_embeddings(tree)
            assert expected < seq.period, str(seq)
            if any(o.kind is OrbitKind.EVIL for o in orbits):
                assert expected == 0
                continue
            product = 1
            for orbit in orbits:
                product *= euler_phi(orbit.arms)
            assert expected == product
            embeddings = enumerate_embeddings(tree)
            assert all(verify_embedding(e) for e in embeddings)
            assert len({e.to_json() for e in embeddings}) == product, str(seq)


def test_criterion_8_embedding_census():
    with criterion(8, "embedding census over exact periods 3..6 is 3, 6, 15, 27"):
        assert [embedding_census(n) for n in (3, 4, 5, 6)] == [3, 6, 15, 27]


def test_criterion_9_byte_determinism(tmp_path):
    with criterion(9, "byte-identical atlases and tree serializations"):
        atlases = []
        for seed, jobs in (("11", "1"), ("22", "2"), ("33", "3")):
            out = tmp_path / f"atlas-{seed}.jsonl"
            result = run_cli(
                ["enumerate", "--period", "6", "--jobs", jobs, "--out", str(out)],
                PYTHONHASHSEED=seed)
            assert result.returncode == 0
            atlases.append(out.read_bytes())
        assert atlases[0] == atlases[1] == atlases[2]

        trees = {
            run_cli(["tree", "1011010110*"], PYTHONHASHSEED=seed).stdout
            for seed in ("44", "55", "66")
        }
        assert len(trees) == 1
        hashes = {json.loads(t)["vertices"][0]["id"] for t in trees}
        assert hashes == {"c0"}
