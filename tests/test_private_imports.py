"""No lieq module imports another lieq module's underscore-prefixed names."""

import ast
from pathlib import Path

import lieq

SRC = Path(lieq.__file__).resolve().parent


def _is_module(dotted: str) -> bool:
    """Whether a dotted lieq name is a module or package in the source tree."""
    path = SRC.parent.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def private_imports(source: str, package: str = "lieq") -> list:
    """(line, module, name) for each underscore name imported from lieq.

    ``package`` is the importing module's package, for relative imports.
    Importing a module (``lieq._kernel``) is allowed; importing a private
    function, class or constant out of one is not.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            base = package.rsplit(".", node.level - 1)[0]
            module = f"{base}.{module}" if module else base
        if module != "lieq" and not module.startswith("lieq."):
            continue
        out += [(node.lineno, module, a.name) for a in node.names
                if a.name.startswith("_") and not _is_module(f"{module}.{a.name}")]
    return out


def test_no_module_imports_a_private_name_from_another():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        package = ".".join(("lieq",) + rel.parent.parts)
        bad = private_imports(path.read_text(encoding="utf-8"), package)
        if bad:
            found[str(rel)] = bad
    assert len(list(SRC.rglob("*.py"))) >= 10
    assert found == {}


def test_the_walk_flags_private_names_and_allows_private_modules():
    source = ("from lieq.liealg import _certify\n"
              "from lieq._kernel import hnf_rows\n"
              "from lieq import _kernel\n"
              "from .qtensor import _unit, tensor_terms\n"
              "from . import _kernel as k\n"
              "import lieq._kernel\n")
    assert private_imports(source) == [(1, "lieq.liealg", "_certify"),
                                       (4, "lieq.qtensor", "_unit")]
