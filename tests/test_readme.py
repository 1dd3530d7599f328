"""README's ``## Library`` code block runs, and its comments state its values.

The block is run one statement at a time, as written.  An API change that
leaves the block stale fails here: a name it imports or calls is gone, or a
value differs from what its comment says.
"""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first ```python block after the ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def run_block(block: str) -> dict[str, tuple[object, str]]:
    """Each statement's source, mapped to its value (an expression's, or the
    name an assignment binds) and the comment on its last line."""
    lines = block.splitlines()
    namespace: dict = {}
    results = {}
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        _, _, comment = lines[statement.end_lineno - 1].partition("#")
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            targets = getattr(statement, "targets", [])
            value = namespace[targets[0].id] if targets else None
        results[source] = value, comment.strip()
    return results


def test_library_block_states_its_values():
    results = run_block(library_block())

    address, comment = results["internal_address(nu)"]
    assert comment == "1-2-4-5-11" and str(address) == comment

    failing, comment = results["failing_periods(nu)"]
    assert comment == "[]" and failing == []

    spectrum, comment = results["branch_spectrum(nu)"]
    assert comment == "[period 5, 3 arms, tame, itinerary (10110)]"
    assert [(e.period, e.arms, str(e.kind), str(e.characteristic_itinerary))
            for e in spectrum] == [(5, 3, "tame", "(10110)")]

    tree, comment = results["tree = build_tree(nu)"]
    assert comment.startswith("19 vertices, 18 edges;")
    assert (len(tree.vertices), len(tree.edges)) == (19, 18)
    assert list(tree.spectrum) == spectrum

    checks, comment = results["verify_axioms(tree)"]
    assert comment == "dict of named checks, all True"
    assert isinstance(checks, dict) and checks and all(value is True for value in checks.values())

    orbits, comment = results["classify_orbits(tree)"]
    assert comment.endswith("raises unless == tree.spectrum")
    assert len(orbits) == len(tree.spectrum)

    count, comment = results["count_embeddings(tree)"]
    assert comment == "2" and count == 2
