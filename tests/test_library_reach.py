"""Every definition of the library has a caller.

The callers are the command line (``cli.py``), the acceptance gate
(``tests/test_acceptance.py``) and the README's library example.  Names are
followed with ``ast`` through the imports, at the top of a module or inside a
function, and the bodies of the library's own top-level definitions; a
definition that none of them reaches fails the test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wignerosc"


def _module_name(path: Path) -> str:
    return "wignerosc" if path.stem == "__init__" else f"wignerosc.{path.stem}"


def _imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Names bound by the module's ``from wignerosc... import`` statements, each to (module, name).

    An import inside a function counts too, as the command line imports its runs when they start.
    """
    links = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:  # relative to the package
                source = f"wignerosc.{source}" if source else "wignerosc"
            if source.split(".")[0] == "wignerosc":
                links.update({alias.asname or alias.name: (source, alias.name) for alias in node.names})
    return links


def _library():
    """{module: (definitions, imports, statements run on import)} for each module of the package."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions, statements = {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions.update({target.id: node for target in targets})
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append(node)
        modules[_module_name(path)] = (definitions, _imports(tree), statements)
    return modules


def _readme_example() -> ast.Module:
    text = (ROOT / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    return ast.parse(blocks[0])


def _reached(library) -> set[tuple[str, str]]:
    """(module, name) of every definition that cli.py, the acceptance gate or the README example reaches."""
    modules = dict(library)
    for label, tree in (
        ("<acceptance>", ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())),
        ("<readme>", _readme_example()),
    ):
        modules[label] = ({}, _imports(tree), [tree])

    def resolve(module: str, name: str):
        definitions, links, _ = modules[module]
        if name in definitions:
            return module, name
        if name in links and links[name][0] in modules:
            return resolve(*links[name])
        return None  # a builtin, a local or a third-party name

    # the roots: what runs on import, such as cli.py's __main__ block, and the two callers' whole text
    stack = [(module, node) for module, (_, _, statements) in modules.items() for node in statements]
    reached = set()
    while stack:
        module, node = stack.pop()
        for name in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
            target = resolve(module, name)
            if target is not None and target not in reached:
                reached.add(target)
                stack.append((target[0], modules[target[0]][0][target[1]]))
    return reached


def test_every_definition_is_reached():
    modules = _library()
    reached = _reached(modules)
    unreached, stale = [], []
    for module, (definitions, _, _) in modules.items():
        exported = definitions.get("__all__")
        if isinstance(exported, ast.Assign) and isinstance(exported.value, ast.List):
            stale += [f"{module}.{e.value}" for e in exported.value.elts if e.value not in definitions]
        unreached += [
            f"{module}.{name}" for name in definitions
            if not (name.startswith("__") and name.endswith("__")) and (module, name) not in reached
        ]
    assert stale == [], f"__all__ names with no definition: {stale}"
    assert unreached == [], f"{len(unreached)} definitions with no caller: {unreached}"
