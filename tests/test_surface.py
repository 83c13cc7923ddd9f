"""Every public function, class and method of the package serves the package
itself, a tool or the benchmark.  A name that only the tests call is either
wired into a command or an acceptance criterion, or deleted; the few that
stay without a caller are listed here with their reasons."""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinflip"
CALLERS = ("src", "tools", "perfbench")

# qualified name -> why it stays without a caller outside the tests
EXEMPT = {
    "validate_conditions": "checks the paper's standing conditions on the rates "
    "(positivity, boundedness, finite range, translation invariance); "
    "ROADMAP Direction 6 wires it into reports as a `conditions` block",
    "Potential.external_field": "the tests' only builder of a field potential, "
    "whose Glauber rates lack the global flip symmetry and so reach the "
    "engine's unfolded route",
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
    """Qualified names whose name, as a whole word, appears nowhere in the
    Python files under src/, tools/ and perfbench/ outside its own
    definition."""
    lines = {p: p.read_text().splitlines() for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))}
    others = {p: "\n".join("\n".join(ls) for q, ls in lines.items() if q != p) for p in lines}
    out = set()
    for qualname, name, path, first, last in public_definitions():
        own = "\n".join(lines[path][: first - 1] + lines[path][last:])
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not (word.search(own) or word.search(others[path])):
            out.add(qualname)
    return frozenset(out)


def test_every_public_name_has_a_caller():
    assert sorted(unreferenced() - EXEMPT.keys()) == []


def test_exemptions_are_current():
    """An exempt name that gained a caller, or was deleted, leaves the list."""
    assert sorted(unreferenced() & EXEMPT.keys()) == sorted(EXEMPT)
