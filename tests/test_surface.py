"""Every public function, class and method of the package serves the package
itself, a tool or the benchmark.  A name that only the tests call is either
wired into a command or an acceptance criterion, or deleted; the few that
stay without a caller are listed here with their reasons."""

import ast
import collections
import functools
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinflip"
CALLERS = ("src", "tools", "perfbench")

# qualified name -> why it stays without a caller outside the tests
EXEMPT = {
    "Potential.external_field": "the tests' only builder of a field potential, "
    "whose Glauber rates lack the global flip symmetry and so reach the "
    "engine's unfolded route",
    "generator_matrix": "the tests' dense generator oracle: the sparse 2^N x 2^N "
    "Q that the engine and the symbolic expansion are checked against",
    "GibbsMeasure.expectation": "the tests pin its squaring rule for repeated "
    "sites against a gather oracle",
    "GeneratorSpec.apply": "the tests' one application of L to a non-monomial "
    "polynomial, against the term-by-term recursion",
}


def public_definitions():
    """(qualified name, name, file, first line, last line) of every public
    def and class in the package, methods of every class included; the
    first line is that of its first decorator."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text()), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if not child.name.startswith("_"):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield prefix + child.name, child.name, path, first, child.end_lineno
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))


@functools.cache
def unreferenced() -> frozenset:
    """Qualified names whose name appears as a code token (a NAME token, so
    not a word of a docstring, comment or string) nowhere in the Python
    files under src/, tools/ and perfbench/ outside its own definition."""
    where = collections.defaultdict(list)  # name -> [(file, line)]
    for path in sorted(p for d in CALLERS for p in (ROOT / d).rglob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME:
                    where[tok.string].append((path, tok.start[0]))
    return frozenset(
        qualname
        for qualname, name, path, first, last in public_definitions()
        if all(p == path and first <= line <= last for p, line in where[name])
    )


def test_every_public_name_has_a_caller():
    assert sorted(unreferenced() - EXEMPT.keys()) == []


def test_exemptions_are_current():
    """An exempt name that gained a caller, or was deleted, leaves the list."""
    assert sorted(unreferenced() & EXEMPT.keys()) == sorted(EXEMPT)
