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

import os
import re
import sys
from types import SimpleNamespace

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


_INPUT = "sequence like 10110* or address like 1-2-4-5-6"
_OUT = (" PATH", None, "write to file instead of stdout")
_REQUIRED = object()

# command -> (help, help of its one positional `input` or None if it has none,
# {option: (metavar as it follows the option, "" for a flag, default, help)});
# each option's value is the attribute named after it
_COMMANDS = {
    "analyze": ("full pipeline report for one sequence", _INPUT,
                {"--json": ("", False, "machine-readable row"), "--out": _OUT}),
    "tree": ("serialize the tree", _INPUT,
             {"--dot": ("", False, "graph-description text output"), "--out": _OUT}),
    "embed": ("emit planar embeddings", _INPUT,
              {"--all": ("", False, "every embedding, not just one"), "--out": _OUT}),
    "enumerate": ("atlas of all sequences up to a period bound", None, {
        "--period": (" N", _REQUIRED, f"period bound, 2..{ENUMERATION_CAP}"),
        "--exact": ("", False, "exactly this period only"),
        "--jobs": (" N", 1, "worker processes, at least 1"), "--out": _OUT}),
    "convert": ("sequence <-> internal address", _INPUT, {"--out": _OUT}),
}

_SIGNED = re.compile(r"-?[0-9]+")


class _UsageError(Exception):
    """An argument list outside the grammar: (command or None, message)."""


def _is_option(arg: str) -> bool:
    return arg[:1] == "-" and arg != "-" and not _SIGNED.fullmatch(arg)


def _value(option: str, text: str):
    """An option's value as its command reads it: --period in 2..ENUMERATION_CAP
    and --jobs at least 1, both in ASCII digits, any other option's text as
    given.  Raises ValueError, whose message follows the option's name."""
    grammar = {"--period": _DIGITS, "--jobs": _SIGNED}.get(option)
    if grammar is None:
        return text
    if not grammar.fullmatch(text):
        raise ValueError(f"invalid int value: {_excerpt(text)}")
    number = int(text)  # past int()'s digit limit, its own ValueError
    if option == "--jobs" and number < 1:
        raise ValueError(f"must be at least 1, got {number}")
    if option == "--period" and not 2 <= number <= ENUMERATION_CAP:
        raise ValueError(f"must be in 2..{ENUMERATION_CAP}, got {number}")
    return number


def _parse(argv: list[str]):
    """Read argv as ``(command, args)``, the command's name and its arguments
    as attributes, or as ``(command, None)`` when -h or --help is anywhere
    before a lone ``--`` (command None for the top level).  An option is named
    in full or by a unique prefix, and takes its value as the next argument or
    after ``=``; ``--`` ends the options.  Raises _UsageError."""
    words = argv[:argv.index("--")] if "--" in argv else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if any(arg == "-h" or len(arg) > 2 and "--help".startswith(arg) for arg in words):
        return command, None
    if command is None:
        raise _UsageError(None, f"argument command: invalid choice: {_excerpt(argv[0])}"
                          if argv else "the following arguments are required: command")
    _, input_help, options = _COMMANDS[command]
    values = {name: default for name, (_, default, _) in options.items()}
    if input_help:
        values["input"] = _REQUIRED
    positional, args = [], iter(argv[1:])
    for arg in args:
        if arg == "--":
            positional += args
            break
        if not _is_option(arg):
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        found = [name] if name in options else [
            option for option in options if name[:2] == "--" and option.startswith(name)]
        if len(found) != 1:  # no two options of a command share a prefix but "--"
            raise _UsageError(command, f"unrecognized arguments: {_excerpt(arg)}")
        name = found[0]
        if not options[name][0]:  # a flag
            if eq:
                raise _UsageError(command, f"argument {name}: ignored explicit argument "
                                  f"{_excerpt(value)}")
            values[name] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or _is_option(value):
                raise _UsageError(command, f"argument {name}: expected one argument")
        try:
            values[name] = _value(name, value)
        except ValueError as exc:
            raise _UsageError(command, f"argument {name}: {exc}") from None
    if input_help and positional:
        values["input"] = positional.pop(0)
    if positional:
        raise _UsageError(command, "unrecognized arguments: "
                          + " ".join(map(_excerpt, positional)))
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return command, SimpleNamespace(**{name.lstrip("-"): v for name, v in values.items()})


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: hubbardtree [-h] {{{','.join(_COMMANDS)}}} ...\n"
    _, input_help, options = _COMMANDS[command]
    words = [name + metavar if default is _REQUIRED else f"[{name}{metavar}]"
             for name, (metavar, default, _) in options.items()]
    return f"usage: hubbardtree {command} [-h] {' '.join(words)}{' input' * bool(input_help)}\n"


def _help(command: str | None) -> str:
    if command is None:
        intro = ("Admissibility, tree reconstruction and planar embeddings for "
                 "star-periodic\nkneading sequences.\n")
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
    else:
        summary, input_help, options = _COMMANDS[command]
        intro, rows = summary + "\n", [("input", input_help)] * bool(input_help)
        rows += [(name + metavar, text) for name, (metavar, _, text) in options.items()]
    rows.append(("-h, --help", "show this help and exit"))
    return f"{_usage(command)}\n{intro}\n" + "".join(f"  {a:<12} {b}\n" for a, b in rows)


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        # looked up on each call, so that a handler wrapped after import runs
        return globals()[f"cmd_{command}"](args)
    except _UsageError as exc:
        command, message = exc.args
        prog = f"hubbardtree {command}" if command else "hubbardtree"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
        return EXIT_INPUT
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
