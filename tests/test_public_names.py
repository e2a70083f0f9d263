"""Every public module-level function and class of the package and its
scripts has a reader there; a name nothing reads belongs in the tests or
nowhere, except for the listed few."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Public names that nothing in src/subdiv/ or scripts/ reads, kept on purpose.
KEPT_UNREAD = {
    "compose": "perfbench/tracing.py wraps it by name, and the acceptance "
               "gate composes triangulations with it",
    "gamma_vector": "waits for the gamma-positivity work (ROADMAP item 6)",
    "is_flag": "waits for the gamma-positivity work (ROADMAP item 6)",
}


def _sources() -> dict[str, str]:
    paths = sorted((ROOT / "src" / "subdiv").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public module-level functions and classes of ``sources`` whose
    name no ``Name`` or attribute access in ``sources`` reads."""
    defined, read = set(), set()
    for path, text in sources.items():
        tree = ast.parse(text, path)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_every_public_name_has_a_reader():
    assert unread_public_names(_sources()) == sorted(KEPT_UNREAD)


def test_a_public_def_without_a_reader_is_found():
    sources = _sources()
    sources["src/subdiv/dummy.py"] = "def dummy(x):\n    return x\n"
    assert "dummy" in unread_public_names(sources)
    sources["scripts/reader.py"] = "from subdiv.dummy import dummy\ndummy(1)\n"
    assert "dummy" not in unread_public_names(sources)
