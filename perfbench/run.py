"""Benchmark for the hubbardtree command line and its pipeline layers.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload deep --seed 0 --seconds 60 --trace 0

Workloads (one client in a closed loop; every request is a fresh
``python3 -m hubbardtree.cli`` process with ``PYTHONPATH=src``):

* ``atlas-serial``: ``enumerate --period 9 --exact --jobs 1``, every
  star-periodic sequence of period 9 (128 rows) per request.
* ``deep``: one ``analyze <input> --json`` per request.  Inputs come in
  rounds drawn from the cost-matched slots of the pool in ``expected.json``;
  the seed picks the members (see ``make_pool.py``).

A run sends whole rounds, and starts another only while the longest round
so far would still end within ``--seconds``.  Every output is checked byte
for byte against the digests in ``expected.json``.

The end-to-end run pins itself and its children to one CPU and times each
child in CPU seconds scaled to a reference speed, which a probe running on
the same CPU at the same time measures (see ``cpu_probe.py``); the wall
times are printed in the report too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes the
workload's first round and runs each input three times back to back: in
process, in process under ``layer_trace.LayerTracer``, and as a child that
times its own ``main()``; it then runs the atlas at ``--jobs 2`` for the
pool's efficiency, and prints the per-layer metrics.  Both print a
human-readable report and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from cpu_probe import pinned_to_one_cpu, wait_probing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "hubbardtree"

WORKLOADS = ("atlas-serial", "deep")
SIZES = {"full": 9, "tiny": 5}  # atlas period per size; the deep pool has the same keys
SETUP_LAUNCHES = 11


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or expected digests)."""


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    rows: int  # sequences analysed by one request
    sha256: str  # expected digest of the request's stdout


@dataclass(frozen=True)
class Process:
    wall_s: float
    reference_s: float | None  # CPU time at the reference speed, probed runs only
    code: int
    maxrss_kb: int
    out: bytes
    err: bytes


@dataclass
class Outcome:
    latency_s: float  # wall seconds
    reference_s: float | None
    maxrss_kb: int
    error: str | None
    main_s: float | None = None  # time inside cli.main, from timed children only


# runs cli.main like ``python3 -m hubbardtree.cli`` does and reports, as the
# last line of stderr, the seconds spent inside main()
TIMED_CHILD = (
    "import sys, time\n"
    f"import {PACKAGE}.cli as cli\n"
    "start = time.perf_counter()\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write(f'{time.perf_counter() - start!r}\\n')\n"
    "sys.exit(code)\n"
)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], *, probe: bool = False) -> Process:
    """Run one child to completion, its output in memory files.

    With ``probe`` the benchmark runs the CPU probe while it waits, so the
    child's CPU time can be scaled to the reference speed (see cpu_probe).
    """
    with os.fdopen(os.memfd_create("stdout"), "w+b") as out, \
            os.fdopen(os.memfd_create("stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=out, stderr=err)
        try:
            if probe:
                child = wait_probing(proc.pid)
                status, maxrss_kb, reference_s = child.status, child.maxrss_kb, child.reference_s
            else:
                _, status, usage = os.wait4(proc.pid, 0)
                maxrss_kb, reference_s = usage.ru_maxrss, None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(elapsed, reference_s, proc.returncode, maxrss_kb, out.read(), err.read())


def check_output(request: Request, code: int, out: bytes, err: bytes) -> str | None:
    if code != 0:
        return f"exit {code}: {err.decode(errors='replace').strip()[-200:]}"
    try:
        for line in out.splitlines():
            json.loads(line)
    except ValueError:
        return "output does not parse as JSON lines"
    if hashlib.sha256(out).hexdigest() != request.sha256:
        return "output digest mismatch"
    return None


def run_cli(request: Request, *, timed: bool = False, probe: bool = False) -> Outcome:
    entry = ["-c", TIMED_CHILD] if timed else ["-m", f"{PACKAGE}.cli"]
    child = run_process([sys.executable, *entry, *request.argv], probe=probe)
    outcome = Outcome(child.wall_s, child.reference_s, child.maxrss_kb,
                      check_output(request, child.code, child.out, child.err))
    if timed and outcome.error is None:
        try:
            outcome.main_s = float(child.err.splitlines()[-1])
        except (IndexError, ValueError):
            outcome.error = "timed child did not report its main() time"
    return outcome


def measure_setup() -> list[float]:
    """Reference seconds for a fresh interpreter to import the CLI, after one warm-up."""
    argv = [sys.executable, "-c", f"import {PACKAGE}.cli"]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        child = run_process(argv, probe=True)
        if child.code != 0:
            raise BenchError(f"importing the CLI failed: {child.err.decode(errors='replace')}")
        times.append(child.reference_s)
    return times[1:]


# ---------------------------------------------------------------- workloads

def atlas_request(expected: dict, version: str, period: int, jobs: int) -> Request:
    try:
        digest = expected["atlas"][version][str(period)]
    except KeyError:
        raise BenchError(f"expected.json has no atlas digest for version {version} "
                         f"period {period}; rerun perfbench/make_pool.py") from None
    argv = ("enumerate", "--period", str(period), "--exact", "--jobs", str(jobs))
    return Request(argv, 2 ** (period - 2), digest)


def deep_rounds(slots: list[dict], seed: int):
    """Endless rounds of ``per_round`` requests from each slot.

    The seed shuffles each slot once; rounds walk the shuffled members in
    turn, so no input repeats until a slot's members run out.
    """
    rng = random.Random(seed)
    orders = [(rng.sample(slot["members"], len(slot["members"])), slot["per_round"])
              for slot in slots]
    for index in itertools.count():
        yield [
            Request(("analyze", member["input"], "--json"), 1, member["sha256"])
            for order, per_round in orders
            for member in (order[(index * per_round + k) % len(order)]
                           for k in range(per_round))
        ]


def workload_rounds(workload: str, expected: dict, version: str, size: str, seed: int):
    if workload == "deep":
        return deep_rounds(expected["deep"][size], seed)
    return itertools.repeat([atlas_request(expected, version, SIZES[size], 1)])


def closed_loop(rounds, seconds: float) -> tuple[list[Outcome], list[Request], float]:
    """Whole rounds; another starts only if the longest one so far would end in time."""
    outcomes, requests = [], []
    start = time.perf_counter()
    longest = 0.0
    for batch in rounds:
        round_start = time.perf_counter()
        for request in batch:
            outcomes.append(run_cli(request, probe=True))
            requests.append(request)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            break
    return outcomes, requests, time.perf_counter() - start


def end_to_end(args, expected: dict, version: str) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics, every time in reference seconds (see cpu_probe)."""
    rounds = workload_rounds(args.workload, expected, version, args.size, args.seed)
    with pinned_to_one_cpu():
        setup = measure_setup()
        outcomes, requests, wall = closed_loop(rounds, args.seconds)
    failed = [o for o in outcomes if o.error]
    rows = sum(r.rows for r, o in zip(requests, outcomes) if not o.error)
    busy = sum(o.reference_s for o in outcomes)
    n = len(outcomes)
    metrics = {
        "seqs_per_s": (rows / busy, "1/s",
                       f"{rows} sequences over {busy:.2f} reference s of {n} requests"),
        "latency_p50_ms": (1000 * statistics.median(o.reference_s for o in outcomes), "ms",
                           f"median of {n} requests, reference ms"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} launches, reference s"),
        "peak_rss_mb": (max(o.maxrss_kb for o in outcomes) / 1024, "MB",
                        f"max over {n} CLI processes"),
    }
    speeds = [o.reference_s / o.latency_s for o in outcomes]
    notes = [
        f"failed_frac {len(failed) / n:.4f} (ratio, {len(failed)} of {n} requests)",
        f"wall: {wall:.2f} s for the loop, median request "
        f"{1000 * statistics.median(o.latency_s for o in outcomes):.1f} ms "
        f"while sharing its CPU with the probe",
        f"reference s over wall s per request: median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f}-{max(speeds):.3f}",
    ]
    notes += [f"FAILED {' '.join(r.argv)}: {o.error}"
              for r, o in zip(requests, outcomes) if o.error]
    return metrics, n, len(failed), notes


# ------------------------------------------------------------------ tracing

def in_process(main, request: Request) -> tuple[float, str | None]:
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = main(list(request.argv))
    elapsed = time.perf_counter() - start
    return elapsed, check_output(request, code, buffer.getvalue().encode("ascii"), b"")


def traced(args, expected: dict, version: str) -> tuple[dict, int, int, list[str]]:
    from layer_trace import LayerTracer

    from hubbardtree.cli import main as cli_main

    rounds = workload_rounds(args.workload, expected, version, args.size, args.seed)
    inputs = next(iter(rounds))
    atlas_serial = atlas_request(expected, version, SIZES[args.size], 1)
    atlas_jobs2 = atlas_request(expected, version, SIZES[args.size], 2)
    errors: list[str] = []

    def note(label: str, error: str | None) -> None:
        if error:
            errors.append(f"{label}: {error}")

    # each input runs plain, traced and as a timed child back to back, so
    # drift in machine speed touches all three alike
    tracer = LayerTracer()
    plain, traced_times, overheads = [], [], []
    for request in inputs:
        label = " ".join(request.argv)
        gc.collect()
        elapsed, error = in_process(cli_main, request)
        note(f"in-process {label}", error)
        plain.append(elapsed)
        gc.collect()
        tracer.install()
        try:
            elapsed, error = in_process(cli_main, request)
        finally:
            tracer.uninstall()
        note(f"traced {label}", error)
        traced_times.append(elapsed)
        outcome = run_cli(request, timed=True)
        note(f"cli {label}", outcome.error)
        if outcome.main_s is not None:
            overheads.append(outcome.latency_s - outcome.main_s)

    if inputs[0] == atlas_serial:
        serial_s = plain[0]
    else:
        serial_s, error = in_process(cli_main, atlas_serial)
        note("in-process atlas", error)
    parallel = run_cli(atlas_jobs2)
    note("cli atlas --jobs 2", parallel.error)

    calls, inclusive = tracer.calls, tracer.inclusive
    seqs = calls["atlas.analyze_sequence"]
    triods = calls["triods.classify_triod"]
    cv3 = sum(math.comb(v, 3) for v, _ in tracer.trees)
    per_seq = f"calls per sequence over {seqs} sequences"
    metrics = {
        "triods.calls": (triods, "count", f"over {len(tracer.trees)} trees"),
        "triods.calls_over_cv3": (triods / cv3, "ratio", f"C(V,3) summed to {cv3}"),
        "triods.self_s": (tracer.layer_self("triods"), "s", "self time"),
        "triods.mean_us": (1e6 * inclusive["triods.classify_triod"] / triods, "us",
                           f"mean of {triods} calls"),
        "tree.build_s": (inclusive["tree.build_tree"], "s", "inclusive"),
        "tree.build_self_s": (inclusive["tree.build_tree"] - inclusive["triods.classify_triod"],
                              "s", "build_tree minus triod time"),
        "tree.check_s": (inclusive["tree.verify_axioms"] + inclusive["tree.classify_orbits"],
                         "s", "verify_axioms + classify_orbits"),
        "tree.periodic_branch_orbits_per_seq": (
            calls["tree.HubbardTree.periodic_branch_orbits"] / seqs, "calls/seq", per_seq),
        "tree.vertices": (sum(v for v, _ in tracer.trees), "count", "sum over trees"),
        "tree.edges": (sum(e for _, e in tracer.trees), "count", "sum over trees"),
        "admissibility.self_s": (tracer.layer_self("admissibility"), "s", "self time"),
        "admissibility.failing_periods_per_seq": (
            calls["admissibility.failing_periods"] / seqs, "calls/seq", per_seq),
        "admissibility.branch_spectrum_per_seq": (
            calls["admissibility.branch_spectrum"] / seqs, "calls/seq", per_seq),
        "sequences.self_s": (tracer.layer_self("sequences"), "s", "self time"),
        "embedding.count_s": (tracer.layer_self("embedding"), "s",
                              "self time, classify_orbits excluded"),
        "atlas.analyze_s": (inclusive["atlas.analyze_sequence"], "s", "inclusive"),
        "atlas.analyze_self_s": (tracer.layer_self("atlas"), "s",
                                 "self time: row assembly, tree_hash, to_json"),
        "atlas.parallel_efficiency": (serial_s / (2 * parallel.latency_s), "ratio",
                                      f"{serial_s:.3f} s serial in process / "
                                      f"(2 x {parallel.latency_s:.3f} s at --jobs 2)"),
        "cli.process_overhead_ms": (1000 * statistics.median(overheads or [math.nan]), "ms",
                                    f"latency minus time in main(), median of "
                                    f"{len(overheads)} requests"),
        "trace.overhead_frac": (sum(traced_times) / sum(plain), "ratio",
                                f"traced {sum(traced_times):.3f} s / plain {sum(plain):.3f} s"),
    }
    attempted = 3 * len(inputs) + 2 - (inputs[0] == atlas_serial)
    return metrics, attempted, len(errors), [f"FAILED {e}" for e in errors]


# -------------------------------------------------------------------- setup

def import_package():
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hubbardtree

    if SRC not in Path(hubbardtree.__file__).resolve().parents:
        raise BenchError(f"imported {hubbardtree.__file__}, not the checkout's sources")
    return hubbardtree


def git_commit() -> str:
    """Commit of the checkout, read from its own .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, version: str, expected: dict) -> dict:
    params = {"size": args.size, "run_seconds": args.seconds}
    if args.workload == "deep":
        params["deep_slots"] = [
            {"name": s["name"], "periods": sorted({m["period"] for m in s["members"]})}
            for s in expected["deep"][args.size]]
    else:
        params["atlas_period"] = SIZES[args.size]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "version": version,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": params,
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    try:
        version = import_package().__version__
        with open(HERE / "expected.json", encoding="ascii") as handle:
            expected = json.load(handle)
        print("env: " + json.dumps(environment(args, version, expected), sort_keys=True),
              flush=True)
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, notes = measure(args, expected, version)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit:9s} {samples}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
