"""Atlas rows, enumeration, and the command-line surface."""

from __future__ import annotations

import io
import json
import os
import pickle
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubbardtree import (
    BranchSpectrumEntry,
    CrossCheckError,
    __version__,
    analyze_sequence,
    build_tree,
)
from hubbardtree.atlas import (
    atlas_header,
    enumerate_rows,
    star_periodic_sequences,
)
from hubbardtree.cli import MAX_PERIOD, main
from hubbardtree.sequences import KneadingSequence, _facts
from reference import diagnostics_record, embedding_census


def run_cli(args, **env_extra):
    env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hubbardtree.cli", *args],
        capture_output=True, text=True, env=env)


class TestAnalyzeCommand:
    def test_figure_one(self):
        result = run_cli(["analyze", "10110*"])
        assert result.returncode == 0
        assert "internal-address: 1-2-4-5-6" in result.stdout
        assert "admissible: false" in result.stdout
        assert "failing-periods: 3" in result.stdout
        assert "kind=evil period=3 arms=3" in result.stdout
        assert "vertices=9 edges=8" in result.stdout
        assert "endpoints=c1,c2,c3,c4,c5" in result.stdout
        assert "embeddings: 0" in result.stdout

    def test_address_input(self):
        result = run_cli(["analyze", "1-2-4-5-11"])
        assert result.returncode == 0
        assert "sequence: 1011010110*" in result.stdout
        assert "admissible: true" in result.stdout
        assert "kind=tame period=5 arms=3" in result.stdout
        assert "embeddings: 2" in result.stdout

    def test_parse_error_exit_code(self):
        result = run_cli(["analyze", "0110*"])
        assert result.returncode == 1
        assert "error" in result.stderr

    @pytest.mark.parametrize("bad", ["11", "1*1", "1-1-3", "x", " 1-2", "1-1_0", "１-２-４"])
    def test_other_malformed_inputs(self, bad):
        assert run_cli(["analyze", bad]).returncode == 1

    def test_bare_number_names_both_forms(self, capsys):
        assert main(["analyze", "11"]) == 1
        error = capsys.readouterr().err
        assert "sequence like 10110*" in error and "address like 1-2-4-5-6" in error

    @pytest.mark.parametrize("error", [ValueError, RuntimeError, KeyError],
                             ids=lambda error: error.__name__)
    def test_internal_value_error_is_not_an_input_error(self, monkeypatch, capsys, error):
        import hubbardtree.atlas as atlas

        def broken(seq):
            raise error("stand-in for a bug past the input boundary")

        monkeypatch.setattr(atlas, "analyze_sequence", broken)
        assert main(["analyze", "10110*"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "stand-in" in err

    def test_unwritable_out_is_an_input_error(self, tmp_path):
        result = run_cli(["analyze", "10110*", "--out", str(tmp_path / "missing" / "row")])
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1, result.stderr
        # the message names the path given, not the temporary file written first
        assert os.path.join("missing", "row") in result.stderr
        assert ".tmp" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_json_row_carries_diagnostics(self):
        result = run_cli(["analyze", "10110*", "--json"])
        record = json.loads(result.stdout)
        assert record["failing_periods"] == [3]
        assert record["max_branch_period"] == 3
        failing = [d for d in record["diagnostics"] if d["fails"]]
        assert [d["period"] for d in failing] == [3]

    def test_json_row_scans_each_period_once(self, monkeypatch, capsys):
        import hubbardtree.admissibility as admissibility

        calls = []
        original = admissibility.fails_for_period

        def counted(seq, m):
            calls.append(m)
            return original(seq, m)

        monkeypatch.setattr(admissibility, "fails_for_period", counted)
        _facts.cache_clear()
        assert main(["analyze", "1011010110*", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["diagnostics"]) == 10
        assert sorted(calls) == list(range(1, 11))


class TestTreeCommand:
    def test_dot_output_shape(self):
        result = run_cli(["tree", "10110*", "--dot"])
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("graph")
        assert sum(1 for l in lines if "[label=" in l) == 9
        assert sum(1 for l in lines if " -- " in l) == 8

    def test_dot_bytes_are_deterministic(self):
        first = run_cli(["tree", "10110*", "--dot"], PYTHONHASHSEED="1")
        second = run_cli(["tree", "10110*", "--dot"], PYTHONHASHSEED="2")
        assert first.stdout == second.stdout

    def test_json_record(self):
        record = json.loads(run_cli(["tree", "1011010110*"]).stdout)
        assert len(record["vertices"]) == 19
        assert len(record["edges"]) == 18
        assert record["critical"] == "c0"
        assert record["dynamics"]["c10"] == "c0"


class TestEmbedCommand:
    def test_all_embeddings(self):
        result = run_cli(["embed", "1011010110*", "--all"])
        assert result.returncode == 0
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(records) == 2
        orders = {json.dumps(r["cyclic_order"], sort_keys=True) for r in records}
        assert len(orders) == 2

    def test_single_embedding_default(self):
        result = run_cli(["embed", "1011010110*"])
        assert len(result.stdout.splitlines()) == 1

    def test_evil_input_is_a_structured_error(self):
        result = run_cli(["embed", "10110*"])
        assert result.returncode == 1
        assert "evil periods: 3" in result.stderr

    @pytest.mark.parametrize("argv,count", [
        (["embed", "110001100010011*", "--all"], 4),
        (["embed", "110001100010011*"], 1),
    ])
    def test_orbits_are_classified_once(self, monkeypatch, capsys, argv, count):
        import hubbardtree.cli as cli
        import hubbardtree.planar as planar

        calls = []
        original = planar.classify_orbits

        def counted(tree):
            calls.append(tree)
            return original(tree)

        for module in (cli, planar):
            monkeypatch.setattr(module, "classify_orbits", counted, raising=False)
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == count
        assert len(calls) == 1


class TestEnumerateCommand:
    def test_exact_period_three(self):
        result = run_cli(["enumerate", "--period", "3", "--exact"])
        lines = result.stdout.splitlines()
        header = json.loads(lines[0])
        assert header["period_bound"] == 3 and header["exact"] is True
        rows = [json.loads(line) for line in lines[1:]]
        assert [r["sequence"] for r in rows] == ["10*", "11*"]
        assert all(r["admissible"] for r in rows)

    def test_exact_period_four_embedding_total(self):
        result = run_cli(["enumerate", "--period", "4", "--exact"])
        rows = [json.loads(line) for line in result.stdout.splitlines()[1:]]
        assert len(rows) == 4
        assert sum(r["embeddings"] for r in rows) == 6

    def test_bound_includes_known_rows(self):
        result = run_cli(["enumerate", "--period", "6"])
        rows = [json.loads(line) for line in result.stdout.splitlines()[1:]]
        by_sequence = {r["sequence"]: r for r in rows}
        assert by_sequence["10110*"]["admissible"] is False
        assert by_sequence["10110*"]["failing_periods"] == [3]

    def test_rejects_out_of_range_bound(self):
        assert run_cli(["enumerate", "--period", "1"]).returncode == 1
        assert run_cli(["enumerate", "--period", "99"]).returncode == 1

    @pytest.mark.parametrize("period", ["1", "17"])
    def test_out_of_range_bound_writes_nothing(self, capsys, period):
        assert main(["enumerate", "--period", period]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--period" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_worker_count_below_one_writes_nothing(self, capsys, jobs):
        assert main(["enumerate", "--period", "3", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs: must be at least 1" in captured.err
        assert captured.err.startswith("usage: hubbardtree enumerate")

    # the grammar, one row per way out of it; each is the command's usage line
    # and one error line on stderr, with nothing on stdout
    USAGE_ERRORS = [
        [],  # no command
        ["no-such-command"],
        ["analyze", "10110*", "--bogus"],  # unknown flag
        ["analyze", "10110*", "11*"],  # a second positional
        ["analyze"],  # no positional
        ["enumerate"],  # no --period
        ["enumerate", "--period"],  # no value
        ["enumerate", "--period", "x"],
        ["enumerate", "--period", "3", "--jobs", "x"],
        ["analyze", "10110*", "--json=1"],  # a flag with a value
        ["analyze", "10110*", "--=1"],  # ambiguous: "--" is a prefix of every option
        ["tree", "10110*", "--dx"],  # unknown prefix
    ]

    def test_usage_errors_are_input_errors(self, capsys):
        for argv in self.USAGE_ERRORS:
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("usage: hubbardtree"), argv
            lines = captured.err.splitlines()
            assert [line for line in lines if "error:" in line] == lines[-1:], argv

    # ASCII digits only, where int() would also read 10, 3, 3, 3 and 10
    @pytest.mark.parametrize("argv,option", [
        (["enumerate", "--period", "1_0", "--exact"], "--period"),
        (["enumerate", "--period", "\uff13"], "--period"),
        (["enumerate", "--period", "+3"], "--period"),
        (["enumerate", "--period", " 3"], "--period"),
        (["enumerate", "--period", "3", "--jobs", "1_0"], "--jobs"),
    ], ids=["period-underscore", "period-full-width", "period-plus", "period-space",
            "jobs-underscore"])
    def test_integers_outside_the_grammar_are_usage_errors(self, capsys, argv, option):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: hubbardtree enumerate")
        assert f"argument {option}: invalid int value" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["analyze", "-h"], ["tree", "-h"], ["embed", "-h"], ["enumerate", "-h"],
        ["convert", "-h"], ["enumerate", "--period", "x", "--he"],
        ["analyze", "10110*", "--bogus", "--help"],
    ], ids=["top", "analyze", "tree", "embed", "enumerate", "convert", "after-a-bad-value",
            "after-a-bad-flag"])
    def test_help_prints_the_usage_line(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        command = "" if argv[0] == "--help" else argv[0] + " "
        assert captured.err == ""
        assert captured.out.startswith(f"usage: hubbardtree {command}[-h] ")

    def test_no_option_is_a_prefix_of_another(self):
        # the parser reads a full option name as a prefix, which must be unique
        from hubbardtree.cli import _COMMANDS

        for command, (_, _, options) in _COMMANDS.items():
            assert not [(a, b) for a in options for b in options
                        if a != b and b.startswith(a)], command

    @pytest.mark.parametrize("spelled,full", [
        (["convert", "10110*", "--out={}"], ["convert", "10110*", "--out", "{}"]),
        (["enumerate", "--per", "3", "--out", "{}"], ["enumerate", "--period", "3", "--out", "{}"]),
    ], ids=["out-equals", "period-prefix"])
    def test_option_spellings_write_the_same_bytes(self, tmp_path, spelled, full):
        paths = [str(tmp_path / "spelled"), str(tmp_path / "full")]
        for argv, path in zip((spelled, full), paths):
            assert main([arg.format(path) for arg in argv]) == 0
        with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
            assert first.read() == second.read()

    def test_failed_run_leaves_no_output_file(self, tmp_path, monkeypatch):
        import hubbardtree.atlas as atlas

        def one_row_then_fail(*args, **kwargs):
            yield "{}"
            raise CrossCheckError("synthetic failure")

        monkeypatch.setattr(atlas, "enumerate_rows", one_row_then_fail)
        out = tmp_path / "atlas.jsonl"
        assert main(["enumerate", "--period", "4", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_out_through_a_symlink_writes_its_target(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        target, link = data / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n", encoding="ascii")
        link.symlink_to(target)
        assert main(["enumerate", "--period", "3", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="ascii").startswith('{"atlas":"hubbardtree"')
        assert list(data.iterdir()) == [target]
        assert sorted(tmp_path.iterdir()) == [data, link]

    def test_out_through_a_dangling_symlink_creates_its_target(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        link.symlink_to(target)
        assert main(["convert", "10110*", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="ascii") == "1-2-4-5-6\n"
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_out_through_a_symlink_loop_writes_nothing(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.symlink_to(second)
        second.symlink_to(first)
        result = run_cli(["convert", "10110*", "--out", str(first)])
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
        assert f"'{first}'" in result.stderr and ".tmp" not in result.stderr
        assert os.readlink(first) == str(second) and os.readlink(second) == str(first)
        assert sorted(tmp_path.iterdir()) == [first, second]

    def test_out_to_a_fifo_writes_in_place(self, tmp_path):
        import stat
        import threading

        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        # a daemon, so a reader left blocked on a replaced FIFO cannot hold the suite open
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["convert", "10110*", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [b"1-2-4-5-6\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "atlas.jsonl"
        assert main(["enumerate", "--period", "4", "--out", str(out)]) == 0
        assert main(["enumerate", "--period", "4"]) == 0
        assert out.read_text(encoding="ascii") == capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [out]

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        import hubbardtree.atlas as atlas

        sizes = []

        class RecordingPool:
            # stands in for multiprocessing.Pool: records the size, maps in process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize=1):
                return map(func, items)

        monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
        # the process may run on fewer CPUs than the machine has
        monkeypatch.setattr(atlas.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(atlas.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        serial = list(enumerate_rows(4, exact=True))
        assert list(enumerate_rows(4, exact=True, jobs=64)) == serial
        assert list(enumerate_rows(4, exact=True, jobs=2)) == serial
        # without affinity the CPU count bounds the pool, and an unknown count means serial
        monkeypatch.delattr(atlas.os, "sched_getaffinity")
        monkeypatch.setattr(atlas.os, "cpu_count", lambda: 3)
        assert list(enumerate_rows(4, exact=True, jobs=64)) == serial
        monkeypatch.setattr(atlas.os, "cpu_count", lambda: None)
        assert list(enumerate_rows(4, exact=True, jobs=64)) == serial
        assert sizes == [3, 2, 3]

    def test_pool_rows_match_serial_rows(self, monkeypatch):
        # a real pool in this process, so a pool left running shows here
        import hubbardtree.atlas as atlas

        monkeypatch.setattr(atlas.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(atlas.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert list(enumerate_rows(5, jobs=2)) == list(enumerate_rows(5))

    def test_rows_parse_no_text(self, monkeypatch):
        # each row is handed its KneadingSequence, serially and through the
        # pool, so no row parses the text it came from
        import hubbardtree.atlas as atlas

        texts, handed = [], []
        parse = KneadingSequence.parse.__func__

        def counted(cls, text):
            texts.append(text)
            return parse(cls, text)

        def inline_pool(processes):
            # stands in for multiprocessing.Pool: records the items, maps in process
            def imap(func, items, chunksize=1):
                handed.extend(items)
                return map(func, items)

            return nullcontext(SimpleNamespace(imap=imap))

        monkeypatch.setattr(KneadingSequence, "parse", classmethod(counted))
        assert len(list(enumerate_rows(9, exact=True))) == 128
        assert texts == []
        monkeypatch.setattr("multiprocessing.Pool", inline_pool)
        monkeypatch.setattr(atlas.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert len(list(enumerate_rows(9, exact=True, jobs=2))) == 128
        assert texts == [] and len(handed) == 128
        assert all(type(item) is KneadingSequence for item in handed)

    def test_rows_satisfy_consistency_law(self):
        for line in enumerate_rows(6):
            row = json.loads(line)
            assert row["admissible"] == (not row["failing_periods"])
            assert row["admissible"] == (row["embeddings"] >= 1)


class TestDeterminism:
    def test_atlas_bytes_stable_across_runs_and_jobs(self, tmp_path):
        outputs = []
        for seed, jobs in (("101", "1"), ("202", "2"), ("303", "1")):
            out = tmp_path / f"atlas-{seed}-{jobs}.jsonl"
            result = run_cli(
                ["enumerate", "--period", "5", "--jobs", jobs, "--out", str(out)],
                PYTHONHASHSEED=seed)
            assert result.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_tree_hash_stable_across_processes(self):
        script = ("from hubbardtree import build_tree; "
                  "print(build_tree('1011010110*').tree_hash())")
        hashes = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed)).stdout.strip()
            for seed in ("7", "77", "777")
        }
        assert len(hashes) == 1


class TestConvertCommand:
    def test_sequence_to_address(self):
        assert run_cli(["convert", "10110*"]).stdout.strip() == "1-2-4-5-6"

    def test_address_to_sequence(self):
        assert run_cli(["convert", "1-2-4-5-11"]).stdout.strip() == "1011010110*"

    def test_plain_word_is_rejected(self, capsys):
        # a 0-1 word without the final STAR is neither grammar
        assert main(["convert", "11"]) == 1
        assert capsys.readouterr().out == ""

    def test_roundtrip_small(self, capsys):
        for seq in star_periodic_sequences(7):
            assert main(["convert", str(seq)]) == 0
            address = capsys.readouterr().out.strip()
            assert main(["convert", address]) == 0
            assert capsys.readouterr().out.strip() == str(seq)


class TestInputBound:
    @pytest.mark.parametrize("argv", [
        ["convert", "1-" + "9" * 5000],  # too long for int() itself
        ["analyze", "1-257"],
        ["analyze", "1" * MAX_PERIOD + "*"],
    ])
    def test_period_above_bound_is_an_input_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and str(MAX_PERIOD) in captured.err

    @pytest.mark.parametrize("text", ["x" * 5000, "1-" + "9" * 5000], ids=["letters", "digits"])
    def test_rejected_text_is_quoted_in_part(self, capsys, text):
        assert main(["convert", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.encode()) < 200
        assert text[:40] + "'..." in captured.err

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40)
           | st.from_regex(r"[0-9]{1,6}(-[0-9]{1,6}){0,4}|[01*]{1,300}", fullmatch=True))
    @example("1-" + "9" * 5000)
    def test_any_text_is_accepted_or_an_input_error(self, text):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["convert", text])
        assert code in (0, 1), (text, err.getvalue())
        if code == 1:
            assert out.getvalue() == ""


def buffered_env() -> dict[str, str]:
    """The environment without PYTHONUNBUFFERED, so the child's stdout is a
    block-buffered pipe, as it is wherever the variable is not set."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestProcessExit:
    """`python -m hubbardtree.cli` ends through cli.run(), which flushes and
    skips interpreter teardown; main() itself returns its code."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["analyze", "10110*"],
        ["analyze", "10110*", "--json"],
        ["enumerate", "--period", "10"],  # larger than one 8 KiB buffer
        ["tree", "10110*", "--dot"],
        ["embed", "1011010110*", "--all"],
        ["convert", "1-2-4-5-6"],
    ], ids=["help", "analyze", "analyze-json", "enumerate", "dot", "embed", "convert"])
    def test_no_output_byte_is_lost(self, argv):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        child = subprocess.run([sys.executable, "-m", "hubbardtree.cli", *argv],
                               capture_output=True, env=buffered_env())
        assert child.returncode == 0, child.stderr
        assert child.stdout and child.stdout == out.getvalue().encode("ascii")

    def test_usage_error_is_reported(self):
        child = subprocess.run([sys.executable, "-m", "hubbardtree.cli", "enumerate"],
                               capture_output=True, text=True, env=buffered_env())
        assert child.returncode == 1
        assert child.stderr.startswith("usage:") and child.stdout == ""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "10110*", "--json"],
        ["enumerate", "--period", "5"],
        ["enumerate", "--period", "5", "--jobs", "2"],
        ["--help"],
    ], ids=["analyze", "enumerate", "enumerate-jobs-2", "help"])
    def test_closed_pipe_is_one_output_error(self, argv, unbuffered):
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run([sys.executable, "-m", "hubbardtree.cli", *argv],
                                   stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert child.stderr == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--period", "8", "--exact", "--jobs", "2"],
        ["analyze", "1011010110*", "--json"],
    ], ids=["pool", "analyze"])
    def test_no_process_outlives_the_run(self, argv):
        child = subprocess.Popen([sys.executable, "-m", "hubbardtree.cli", *argv],
                                 stdout=subprocess.DEVNULL, start_new_session=True)
        assert child.wait(timeout=60) == 0
        # signal 0 only probes the group; a helper that ends on its own once
        # the run is gone (a fork server, say) gets a few seconds to do so
        deadline = time.monotonic() + 5
        with pytest.raises(ProcessLookupError):
            while True:
                os.killpg(child.pid, 0)
                if time.monotonic() > deadline:
                    break
                time.sleep(0.05)

    def test_installed_script_runs_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"hubbardtree": "hubbardtree.cli:run"}


class TestLibrarySide:
    def test_no_module_guards_with_assert(self):
        # python -O strips assert statements, so an invariant checked by one
        # alone would go unchecked: every check raises an error of its own
        import ast
        import glob

        import hubbardtree

        paths = sorted(glob.glob(os.path.join(os.path.dirname(hubbardtree.__file__), "*.py")))
        assert {f"{layer}.py" for layer in REEXPORTS} <= set(map(os.path.basename, paths))
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                nodes = ast.walk(ast.parse(handle.read(), path))
            lines = [node.lineno for node in nodes if isinstance(node, ast.Assert)]
            assert not lines, (path, lines)

    def test_analyze_row_fields(self):
        row = analyze_sequence("10110*")
        assert row.period == 6
        assert row.tree_hash == build_tree("10110*").tree_hash()
        assert row.endpoints == ("c1", "c2", "c3", "c4", "c5")
        # the row holds the tree's own spectrum entries
        for text in ("10110*", "1011010110*", "110001100010011*"):
            spectrum = analyze_sequence(text).spectrum
            assert spectrum == build_tree(text).spectrum, text
            assert spectrum and all(type(entry) is BranchSpectrumEntry for entry in spectrum)

    def test_cli_import_skips_multiprocessing(self):
        # only enumerate --jobs > 1 uses the pool; every other command skips its import
        code = "import sys, hubbardtree.cli; print('multiprocessing' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_import_skips_dataclass_machinery(self):
        # the value types are namedtuple subclasses, so neither the import nor
        # a command loads typing or compiles dataclass methods; analyze and
        # enumerate write their JSON text without loading json, and embed,
        # which may load it, runs last; -S keeps out what site's .pth files
        # import, and PYTHONPATH finds this package
        import hubbardtree

        code = (
            "import io, sys\n"
            "import hubbardtree.cli as cli\n"
            "print(sorted({'typing', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
            "out, sys.stdout = sys.stdout, io.StringIO()\n"
            "codes = [cli.main(['analyze', '1011010110*', '--json']),\n"
            "         cli.main(['analyze', '10110*']),\n"
            "         cli.main(['enumerate', '--period', '5'])]\n"
            "json_loaded = 'json' in sys.modules\n"
            "codes.append(cli.main(['embed', '1011010110*', '--all']))\n"
            "sys.stdout = out\n"
            "print(codes, json_loaded,\n"
            "      sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules)))\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(hubbardtree.__file__)))
        result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, env=dict(os.environ, PYTHONPATH=root))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "[0, 0, 0, 0] False []"]

    def test_row_pickle_round_trip(self):
        row = analyze_sequence("10110*")
        copy = pickle.loads(pickle.dumps(row))
        assert copy == row
        assert copy.to_json() == row.to_json()

    def test_header_mentions_version_and_bound(self):
        header = json.loads(atlas_header(7, False))
        assert header["period_bound"] == 7
        assert "version" in header
        for bound, exact in [(7, False), (12, True)]:
            assert atlas_header(bound, exact) == dumped({
                "atlas": "hubbardtree", "version": __version__,
                "period_bound": bound, "exact": exact})

    def test_census_values(self):
        assert [embedding_census(n) for n in (3, 4)] == [3, 6]

    def test_census_matches_moebius_count(self):
        # independent oracle: the number of exact-period-n binary necklaces
        # counted with the Moebius function, halved for the sign ambiguity
        def moebius(k):
            total, p, left = 1, 2, k
            while p * p <= left:
                if left % p == 0:
                    left //= p
                    if left % p == 0:
                        return 0
                    total = -total
                p += 1
            return -total if left > 1 else total

        def component_count(n):
            return sum(moebius(n // d) * 2 ** d for d in range(1, n + 1) if n % d == 0) // 2

        for n in (3, 4, 5, 6, 7, 8):
            assert embedding_census(n) == component_count(n), n

    def test_diagnostics_cover_scan_range(self):
        records = diagnostics_record(KneadingSequence.parse("10110*"))
        assert [r["period"] for r in records] == [1, 2, 3, 4, 5]

    def test_cross_check_violation_exit_code(self, monkeypatch):
        import hubbardtree.atlas as atlas

        def boom(_):
            raise CrossCheckError("synthetic failure")

        monkeypatch.setattr(atlas, "analyze_sequence", boom)
        assert main(["analyze", "10110*"]) == 2


def dumped(record: dict) -> str:
    """The canonical text that AtlasRow.to_json and atlas_header write directly."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def row_record(row) -> dict:
    """The row's fields, with each spectrum entry as the object its text holds."""
    entries = [{"arms": e.arms, "itinerary": str(e.characteristic_itinerary),
                "kind": str(e.kind), "period": e.period} for e in row.spectrum]
    return {**row._asdict(), "spectrum": entries}


class TestRowText:
    """AtlasRow.to_json writes its text directly, with the bytes of
    json.dumps over the row's fields, as HubbardTree.to_json does for trees."""

    @pytest.fixture(scope="class")
    def rows(self):
        return [(seq, analyze_sequence(seq)) for seq in star_periodic_sequences(10)]

    def test_equals_the_dumped_row(self, rows):
        assert len(rows) == 511
        for _, row in rows:
            assert row.to_json() == dumped(row_record(row)), row.sequence

    def test_strings_that_need_escaping(self):
        row = analyze_sequence("1011010110*")
        entry = row.spectrum[0]._replace(characteristic_itinerary='z"\\é', kind="\t\U0001d537")
        odd = row._replace(sequence='1"0\\1*', internal_address="1-é", spectrum=(entry,),
                           endpoints=("cé1", 'c"2'), tree_hash="\\")
        text = odd.to_json()
        assert text == dumped(row_record(odd))
        assert text.isascii() and '\\"0' in text and "\\u00e9" in text and "\\ud835" in text

    def test_analyze_json_is_the_row_text_with_diagnostics(self, rows, capsys):
        # every sequence of period <= 10, then the golden inputs; the fixture
        # holds the rows of period <= 10, so 10110* comes from it, while
        # 1011010110* (period 11) and 110001100010011* (period 16) do not
        known = dict(rows)
        seqs = [seq for seq, _ in rows]
        seqs += [KneadingSequence.parse(text)
                 for text in ("10110*", "1011010110*", "110001100010011*")]
        assert len(seqs) == 514
        for seq in seqs:
            capsys.readouterr()
            assert main(["analyze", str(seq), "--json"]) == 0
            row = known[seq] if seq in known else analyze_sequence(seq)
            record = {**row_record(row), "diagnostics": diagnostics_record(seq)}
            assert capsys.readouterr().out == dumped(record) + "\n", str(seq)


# every name `hubbardtree` re-exported when its __init__ imported all six
# layers, by the module that defines it now, less the helpers that only
# tests call, which live in tests/reference.py (MOVED)
REEXPORTS = {
    "admissibility": ["BranchSpectrumEntry", "FailureDiagnostic", "OrbitKind",
                      "branch_spectrum", "failing_periods", "fails_for_period"],
    "atlas": ["AtlasRow", "analyze_sequence", "enumerate_rows", "star_periodic_sequences"],
    "embedding": ["count_embeddings", "euler_phi"],
    "planar": ["EmbeddedTree", "EvilOrbitError", "enumerate_embeddings",
               "generate_embedding", "verify_embedding"],
    "sequences": ["CrossCheckError", "INFINITY", "InternalAddress", "Itinerary",
                  "KneadingSequence", "ParseError", "StructuralError", "address_to_sequence",
                  "critical_orbit_itinerary", "exact_period", "first_mismatch",
                  "internal_address", "mismatch_orbit"],
    "tree": ["HubbardTree", "MarkedPoint", "SpectrumMismatchError", "arm_permutation",
             "build_tree", "characteristic_point", "classify_orbits", "marked_points",
             "verify_axioms"],
    "triods": ["Branch", "Middle", "TriodError", "TriodResult", "UnrealizedPointError",
               "classify_triod"],
}
MOVED = {
    "admissibility": ["diagnostics_record", "evil_arm_count", "is_admissible",
                      "tame_arm_count"],
    "atlas": ["embedding_census"],
    "sequences": ["orbit_contains", "upper_lower"],
    "tree": ["closest_precritical_itinerary", "lies_between"],
}
# the layers that perfbench/layer_trace.py traces, less `cli` (in BASE):
# analyze and enumerate load exactly these, and no other package module
LAYERS = {f"hubbardtree.{layer}" for layer in
          ("sequences", "admissibility", "triods", "tree", "embedding", "atlas")}
BASE = {"hubbardtree", "hubbardtree.cli", "hubbardtree.sequences"}
ATLAS, EMBEDDING, PLANAR = "hubbardtree.atlas", "hubbardtree.embedding", "hubbardtree.planar"


def loaded_after(argv: list[str]) -> set[str]:
    """The package modules a fresh interpreter holds after running ``main(argv)``
    (after the import alone when ``argv`` is empty)."""
    code = ("import sys, hubbardtree.cli as cli\n"
            "if sys.argv[1:]:\n"
            "    cli.main(sys.argv[1:])\n"
            "print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'hubbardtree'))\n")
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def modules_without_site(argv: list[str]) -> set[str]:
    """Every module an interpreter started with -S (no site, so no .pth
    imports) holds after running ``main(argv)``."""
    import hubbardtree

    code = ("import sys, hubbardtree.cli as cli\n"
            "cli.main(sys.argv[1:])\n"
            "print(' '.join(sys.modules))\n")
    src = os.path.dirname(os.path.dirname(hubbardtree.__file__))
    result = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


class TestColdStart:
    # only package modules are compared: what `site` loads differs between environments
    @pytest.mark.parametrize("argv", [[], ["convert", "10110*"], ["convert", "1-2-4-5-6"],
                                      ["analyze", "11"], ["--help"]],
                             ids=["import", "convert", "convert-address", "rejected", "help"])
    def test_sequence_commands_load_no_tree(self, argv):
        assert loaded_after(argv) == BASE

    # only embed loads the embedding generation, and tree neither it nor the count
    @pytest.mark.parametrize("argv,expected", [
        (["tree", "10110*"], BASE | LAYERS - {ATLAS, EMBEDDING}),
        (["tree", "10110*", "--dot"], BASE | LAYERS - {ATLAS, EMBEDDING}),
        (["embed", "1011010110*"], BASE | LAYERS - {ATLAS} | {PLANAR}),
    ], ids=["tree", "dot", "embed"])
    def test_tree_commands_skip_the_atlas(self, argv, expected):
        assert loaded_after(argv) == expected

    # the benchmark traces analyze --json and enumerate, and its tracer
    # needs every layer module loaded; neither loads the embedding generation
    @pytest.mark.parametrize("argv", [["analyze", "10110*"], ["analyze", "10110*", "--json"],
                                      ["enumerate", "--period", "3"]],
                             ids=["analyze", "analyze-json", "enumerate"])
    def test_analyze_loads_every_layer(self, argv):
        assert loaded_after(argv) == BASE | LAYERS

    def test_layers_are_the_traced_ones(self):
        # read, not imported: the tracer is the benchmark's, outside the package
        import ast

        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "layer_trace.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        traced = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
        assert LAYERS == {f"hubbardtree.{layer}" for layer in traced} - {"hubbardtree.cli"}

    # without site, as a clean interpreter starts: with a builtin sha256 the
    # tree hash loads neither hashlib nor OpenSSL's _hashlib
    @pytest.mark.parametrize("argv", [["analyze", "10110*", "--json"],
                                      ["enumerate", "--period", "3"]],
                             ids=["analyze-json", "enumerate"])
    def test_hashing_loads_no_openssl(self, argv):
        import importlib.util

        loaded = modules_without_site(argv)
        builtin = {name for name in ("_sha256", "_sha2") if importlib.util.find_spec(name)}
        if builtin:
            assert builtin & loaded and not loaded & {"hashlib", "_hashlib"}, loaded
        else:
            assert "hashlib" in loaded

    # the command line is read without argparse, so no process loads it, nor
    # the gettext and locale modules that its messages need
    @pytest.mark.parametrize("argv", [["analyze", "10110*", "--json"],
                                      ["enumerate", "--period", "3"], ["convert", "10110*"],
                                      ["--help"], ["enumerate", "--period", "x"]],
                             ids=["analyze-json", "enumerate", "convert", "help", "usage-error"])
    def test_parser_loads_no_argparse(self, argv):
        assert not modules_without_site(argv) & {"argparse", "gettext", "locale"}

    def test_reexports_resolve_to_their_definitions(self):
        import importlib

        import hubbardtree

        for layer, names in REEXPORTS.items():
            module = importlib.import_module(f"hubbardtree.{layer}")
            assert getattr(hubbardtree, layer) is module
            for name in names:
                assert getattr(hubbardtree, name) is getattr(module, name), name

    def test_moved_helpers_left_the_package(self):
        import importlib

        import hubbardtree

        for layer, names in MOVED.items():
            module = importlib.import_module(f"hubbardtree.{layer}")
            for name in names:
                assert not hasattr(hubbardtree, name) and not hasattr(module, name), name
        assert not hasattr(hubbardtree.HubbardTree, "to_record")
        assert not hasattr(hubbardtree.FailureDiagnostic, "to_dict")

    def test_moved_names_stay_in_the_atlas(self):
        import hubbardtree
        import hubbardtree.atlas as atlas
        import hubbardtree.sequences as sequences

        assert atlas.CrossCheckError is sequences.CrossCheckError is hubbardtree.CrossCheckError
        assert atlas.ENUMERATION_CAP is sequences.ENUMERATION_CAP

    def test_star_import_binds_all(self):
        import hubbardtree

        namespace: dict = {}
        exec("from hubbardtree import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(hubbardtree.__all__)

    def test_dir_lists_the_reexports(self):
        import hubbardtree

        listed = set(dir(hubbardtree))
        assert {name for names in REEXPORTS.values() for name in names} <= listed
        assert set(REEXPORTS) <= listed and "__version__" in listed

    def test_unknown_attribute_is_named(self):
        import hubbardtree

        with pytest.raises(AttributeError, match="no_such_name"):
            hubbardtree.no_such_name
