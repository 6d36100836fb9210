"""Every import in the package and the scripts is read somewhere, every
name the scripts import from the package and every `__all__` entry of the
package exists, and the package runs no FFT (its frequency stacks come
from the taps)."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "capbound").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = PACKAGE + SCRIPTS


def file_id(path):
    return f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list:
    """Names bound by an import that no expression reads and `__all__`
    does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_and_exported_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "from .e import f\n__all__ = ['f']\nprint(np, d)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=file_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> list:
    """(module, name) for every `from capbound... import name`."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "capbound"
            for alias in node.names]


def resolves(module: str, name: str) -> bool:
    """True when `from module import name` would succeed: the module has
    the attribute, or `name` is a submodule of it."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_resolver_sees_missing_names():
    assert resolves("capbound", "cli") and resolves("capbound.project", "admm")
    assert not resolves("capbound.lipschitz", "frequency_matrices")


@pytest.mark.parametrize("path", SCRIPTS, ids=file_id)
def test_script_imports_resolve(path):
    imports = package_imports(path.read_text(encoding="utf-8"))
    assert imports
    assert [f"{m}.{n}" for m, n in imports if not resolves(m, n)] == []


@pytest.mark.parametrize("path", PACKAGE, ids=file_id)
def test_package_exports_resolve(path):
    module = "capbound" + ("" if path.stem == "__init__" else f".{path.stem}")
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert [name for name in exported if not resolves(module, name)] == []


def fft_references(source: str) -> list:
    """Lines that import numpy.fft or read the `fft` attribute of numpy
    (under any name it was imported as)."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits = [a for a in node.names if a.name.startswith("numpy.fft")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hits = module.startswith("numpy.fft") or (
                module == "numpy" and any(a.name == "fft" for a in node.names))
        else:
            hits = (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in numpy_names)
        if hits:
            lines.append(node.lineno)
    return sorted(lines)


def test_fft_checker_sees_every_spelling():
    source = ("import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
              "from numpy.fft import rfft2\nx = np.fft.ifft\n"
              "y = other.fft\nz = np.linalg\n")
    assert fft_references(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=file_id)
def test_package_runs_no_fft(path):
    assert fft_references(path.read_text(encoding="utf-8")) == []


def test_cli_binds_the_format_functions_themselves():
    """cli reaches each format through a name bound to the function in
    capbound.formats, so that patching or wrapping that name (as the
    benchmark tracer does under every alias) sees each of cli's calls."""
    cli = importlib.import_module("capbound.cli")
    formats = importlib.import_module("capbound.formats")
    for name in ("read_checkpoint", "write_checkpoint", "load_archdoc",
                 "parse_archdoc", "build_net", "resolve_tensors",
                 "default_arch_doc", "read_archdoc_text",
                 "read_logit_record", "write_logit_record", "ARCH_VERSION"):
        assert getattr(cli, name) is getattr(formats, name), name
