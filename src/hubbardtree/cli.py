"""Command-line front end.

Commands: analyze, tree, embed, enumerate, convert.  Exit codes: 0 success,
1 input error (parse failures, an out-of-range period, an embedding
request for a non-admissible sequence, or output that cannot be written),
2 internal cross-check violation or any other internal error.  Input
periods are bounded by MAX_PERIOD.

The process enters through run(), which leaves through os._exit and so
skips interpreter teardown: by then stdout and stderr are flushed, every
--out file is closed by _write, and no thread runs, so teardown would only
free memory that the exit frees anyway.  A --jobs run that started a pool
keeps the normal exit, so that multiprocessing's exit hooks still run (under
spawn and forkserver they unlink the pool's semaphores).  Callers that need
teardown, such as a profiler or a coverage tool, call main(), which returns
its exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# only the sequence layer loads with the parser: each command imports the
# layers it runs, so convert, --help and rejected input load no tree
from .sequences import (
    ENUMERATION_CAP,
    CrossCheckError,
    InternalAddress,
    KneadingSequence,
    ParseError,
    StructuralError,
    _excerpt,
    address_to_sequence,
    internal_address,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CROSSCHECK = 2

# the largest period accepted as input: cost grows with the tree, and a whole
# `analyze 1-256` process takes ~0.35-0.45 s (Python 3.11, 2-vCPU Xeon VM)
MAX_PERIOD = 256

_SEQUENCE_TEXT = re.compile(r"[01]+\*", re.ASCII)
_DIGITS = re.compile(r"[0-9]+")


def _parse_input(text: str) -> KneadingSequence:
    """Accept either sequence text ``[01]+\\*`` or address text ``1-k-...``
    of period at most MAX_PERIOD.

    The bound is checked on the text itself, before any word is built, so
    int() never sees a digit string longer than MAX_PERIOD's own.
    """
    if _SEQUENCE_TEXT.fullmatch(text):
        if len(text) > MAX_PERIOD:
            raise ParseError(f"period {len(text)} exceeds the bound {MAX_PERIOD}")
        return KneadingSequence.parse(text)
    try:
        if any(len(run) > len(str(MAX_PERIOD)) or int(run) > MAX_PERIOD
               for run in _DIGITS.findall(text)):
            raise ParseError(f"address entries are at most {MAX_PERIOD}, "
                             f"with at most {len(str(MAX_PERIOD))} digits")
        return address_to_sequence(InternalAddress.parse(text))
    except ParseError as exc:
        raise ParseError(f"expected a sequence like 10110* or an address like 1-2-4-5-6, "
                         f"got {_excerpt(text)} ({exc})") from None


def _write(chunks, out: str | None) -> None:
    """Stream text chunks to stdout as they are produced, or to ``out``.

    A regular or new file is written under a temporary name next to it, past
    any symlink, and renamed over it once every chunk is in, so a failure
    midway leaves no truncated output; a FIFO or a device is written in place.
    A path that cannot be resolved, such as a symlink loop, writes nothing.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        target = os.path.realpath(out, strict=True)
    except FileNotFoundError:  # a new file, or a dangling link: write where it points
        target = os.path.realpath(out)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        in_place = os.path.exists(target) and not os.path.isfile(target)
        with open(out if in_place else partial, "w", encoding="ascii") as handle:
            handle.writelines(chunks)
        if not in_place:
            os.replace(partial, target)
    except OSError as exc:
        if exc.filename != partial:
            raise
        # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, out) from None
    finally:
        if os.path.exists(partial):  # only when the rename did not happen
            os.unlink(partial)


def cmd_analyze(args) -> int:
    seq = _parse_input(args.input)
    from .admissibility import diagnostics_json
    from .atlas import analyze_sequence

    row = analyze_sequence(seq)
    if args.json:
        # the row's own text with "diagnostics" at its sorted place, right
        # after "admissible", whose value (true or false) holds no comma
        head, tail = row.to_json().split(",", 1)
        _write([f'{head},"diagnostics":{diagnostics_json(seq)},{tail}\n'], args.out)
    else:
        _write([row.to_text()], args.out)
    return EXIT_OK


def cmd_tree(args) -> int:
    seq = _parse_input(args.input)
    from .tree import build_tree

    tree = build_tree(seq)
    if args.dot:
        _write([tree.to_dot()], args.out)
    else:
        _write([tree.to_json() + "\n"], args.out)
    return EXIT_OK


def cmd_embed(args) -> int:
    seq = _parse_input(args.input)
    from .embedding import EvilOrbitError, _embeddings
    from .tree import build_tree

    tree = build_tree(seq)
    try:
        embeddings = _embeddings(tree, every=args.all)
    except EvilOrbitError as exc:
        sys.stderr.write(
            "error: no embedding exists; evil periods: "
            + ",".join(str(p) for p in exc.periods) + "\n")
        return EXIT_INPUT
    _write((e.to_json() + "\n" for e in embeddings), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .atlas import atlas_header, enumerate_rows

    def lines():
        yield atlas_header(args.period, args.exact) + "\n"
        for row in enumerate_rows(args.period, exact=args.exact, jobs=args.jobs):
            yield row + "\n"

    _write(lines(), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    """Print the other form: the address of a sequence, the sequence of an address."""
    seq = _parse_input(args.input)
    text = str(seq)
    _write([(str(internal_address(seq)) if text == args.input else text) + "\n"], args.out)
    return EXIT_OK


def _worker_count(text: str) -> int:
    """--jobs as an int of at least 1, checked by the parser so that the
    error comes with the enumerate command's own usage line."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own drops a failed write, as to a closed pipe
        (file or sys.stdout or sys.stderr).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hubbardtree",
        description="Admissibility, tree reconstruction and planar embeddings "
                    "for star-periodic kneading sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline report for one sequence")
    analyze.add_argument("input", help="sequence like 10110* or address like 1-2-4-5-6")
    analyze.add_argument("--json", action="store_true", help="machine-readable row")
    analyze.add_argument("--out", default=None, help="write to file instead of stdout")
    analyze.set_defaults(func=cmd_analyze)

    tree = sub.add_parser("tree", help="serialize the tree")
    tree.add_argument("input")
    tree.add_argument("--dot", action="store_true", help="graph-description text output")
    tree.add_argument("--out", default=None)
    tree.set_defaults(func=cmd_tree)

    embed = sub.add_parser("embed", help="emit planar embeddings")
    embed.add_argument("input")
    embed.add_argument("--all", action="store_true", help="every embedding, not just one")
    embed.add_argument("--out", default=None)
    embed.set_defaults(func=cmd_embed)

    enum = sub.add_parser("enumerate", help="atlas of all sequences up to a period bound")
    enum.add_argument("--period", type=int, required=True, metavar="N",
                      choices=range(2, ENUMERATION_CAP + 1),
                      help=f"period bound, 2..{ENUMERATION_CAP}")
    enum.add_argument("--exact", action="store_true", help="exactly this period only")
    enum.add_argument("--jobs", type=_worker_count, default=1,
                      help="worker processes, at least 1")
    enum.add_argument("--out", default=None)
    enum.set_defaults(func=cmd_enumerate)

    convert = sub.add_parser("convert", help="sequence <-> internal address")
    convert.add_argument("input")
    convert.add_argument("--out", default=None)
    convert.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for cross-checks
        return EXIT_INPUT if exc.code else EXIT_OK
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (CrossCheckError, StructuralError) as exc:
        sys.stderr.write(f"cross-check violation: {exc}\n")
        return EXIT_CROSSCHECK
    except OSError as exc:  # an unwritable --out path or a closed pipe, --help too
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # raised past the input boundary: a bug, not bad input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_CROSSCHECK


def run() -> None:
    """Run main() on the process arguments and end the process with its code.

    Stdout is flushed here, after every path out of main(), so no buffered
    byte is lost.  A flush that fails, as on a closed pipe, is an output that
    cannot be written: it is reported once (not again when main() has already
    failed) and exits 1, and fd 1 is pointed at the null device so that no
    later flush fails again.  The process then leaves through os._exit, which
    skips teardown; after a --jobs pool it leaves through sys.exit instead, so
    that multiprocessing's exit hooks run.
    """
    code = main()
    try:
        if sys.stdout is not None:  # None when fd 1 was closed at start, as main() reports
            sys.stdout.flush()
    except OSError as exc:
        if code == EXIT_OK:
            sys.stderr.write(f"error: {exc}\n")
            code = EXIT_INPUT
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if "multiprocessing" in sys.modules:
        sys.exit(code)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr closed: nowhere left to report
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
