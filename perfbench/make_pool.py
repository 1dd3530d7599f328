"""Regenerate ``expected.json``: atlas digests and the cost-matched deep pool.

Run from the repository root, on an otherwise idle machine:

    python3 perfbench/make_pool.py

It takes about ten minutes on one core.  The atlas digests are keyed by
``hubbardtree.__version__`` and period, so a version bump needs a rerun (the
header row of every atlas embeds the version).

The ``deep`` workload sends rounds of requests; a round takes ``per_round``
members from each slot.  Candidates are random star-periodic sequences
drawn from ``GEN_SEED`` at the periods a slot allows.  Each candidate's
in-process ``analyze --json`` is timed twice and the faster time is scaled
by a reference loop timed just before, so a slower spell of the machine does
not make a candidate look dear.  Each slot keeps the candidates closest in
log scale to its target cost.  The seed of a benchmark run chooses which
members a round uses, so different seeds send different inputs of nearly
the same cost, and the run's median latency does not depend on the draw.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hubbardtree import __version__  # noqa: E402
from hubbardtree.cli import main as cli_main  # noqa: E402

GEN_SEED = 2026
ATLAS_PERIODS = (5, 9, 10)
# name, requests per round, periods, candidates per period, members kept,
# target in-process seconds
SLOTS = (
    ("light", 2, (16, 17), 24, 12, 0.25),
    ("mid", 10, (19, 20, 21, 22), 50, 40, 0.6),
    ("heavy", 1, (32,), 24, 8, 5.0),
)
ADDRESS_FAMILY = range(16, 24)  # 1-2-...-n, sent as address text, one per round
TINY_INPUTS = ("1011*", "1-2-4-5-6", "1001101*", "1-3-4-7")


def run_cli(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return buffer.getvalue().encode("ascii")


def reference_seconds() -> float:
    """A fixed pure-Python loop, the yardstick for the machine's current speed."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def analyze_record(text: str, repeats: int = 2) -> dict:
    best, scale = math.inf, math.inf
    for _ in range(repeats):
        reference = reference_seconds()
        start = time.perf_counter()
        out = run_cli(["analyze", text, "--json"])
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, scale = elapsed, reference
    row = json.loads(out)
    return {
        "input": text,
        "sha256": hashlib.sha256(out).hexdigest(),
        "period": row["period"],
        "vertices": row["vertices"],
        "edges": row["edges"],
        "cost_s": best,
        "reference_s": scale,
    }


def random_words(rng: random.Random, period: int, count: int) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "1" + "".join(rng.choice("01") for _ in range(period - 2)) + "*"
        if word not in words:
            words.append(word)
    return words


def main() -> None:
    atlas = {}
    for period in ATLAS_PERIODS:
        out = run_cli(["enumerate", "--period", str(period), "--exact"])
        atlas[str(period)] = hashlib.sha256(out).hexdigest()
        print(f"atlas period {period}: {atlas[str(period)]}", flush=True)

    rng = random.Random(GEN_SEED)
    measured: dict[str, list[dict]] = {}
    for name, _, periods, per_period, _, _ in SLOTS:
        measured[name] = []
        for period in periods:
            for word in random_words(rng, period, per_period):
                measured[name].append(analyze_record(word))
                print(name, json.dumps(measured[name][-1]), flush=True)
    nominal = statistics.median(r["reference_s"] for rs in measured.values() for r in rs)

    family = [analyze_record("-".join(str(k) for k in range(1, n + 1)), repeats=1)
              for n in ADDRESS_FAMILY]
    slots = [{"name": "address-family", "per_round": 1, "members": family}]
    for name, per_round, _, _, keep, target in SLOTS:
        records = measured[name]
        for r in records:
            r["cost_s"] = round(r["cost_s"] * nominal / r.pop("reference_s"), 4)
        records.sort(key=lambda r: abs(math.log(r["cost_s"] / target)))
        members = sorted(records[:keep], key=lambda r: r["input"])
        slots.append({"name": name, "per_round": per_round, "members": members})
    for r in family:
        r["cost_s"] = round(r["cost_s"] * nominal / r.pop("reference_s"), 4)

    tiny = [analyze_record(text, repeats=1) for text in TINY_INPUTS]
    for r in tiny:
        r["cost_s"] = round(r["cost_s"], 4)
        del r["reference_s"]
    expected = {
        "atlas": {__version__: atlas},
        "deep": {"full": slots, "tiny": [{"name": "tiny", "per_round": 1, "members": tiny}]},
    }
    with open(HERE / "expected.json", "w", encoding="ascii") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
