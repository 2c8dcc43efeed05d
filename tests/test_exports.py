import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import conefbp

# every submodule that declares an __all__ (importing __main__ would run the CLI)
MODULES = [
    m.name
    for m in pkgutil.iter_modules(conefbp.__path__)
    if m.name != "__main__" and hasattr(importlib.import_module(f"conefbp.{m.name}"), "__all__")
]


def _package_imports(name):
    """Names conefbp/__init__.py imports from the submodule ``name``."""
    tree = ast.parse(pathlib.Path(conefbp.__file__).read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == name
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # so that ``from conefbp.<name> import *`` works
    module = importlib.import_module(f"conefbp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_are_exported(name):
    module = importlib.import_module(f"conefbp.{name}")
    assert [n for n in _package_imports(name) if n not in module.__all__] == []


def _private_imports(package_dir):
    """``file: name`` for each underscore name a package module imports from another one."""
    found = []
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("conefbp")):
                found += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "__version__"
                ]
    return found


def test_modules_share_only_public_names():
    # a private helper stays inside its module; what another module needs is public
    assert _private_imports(pathlib.Path(conefbp.__file__).parent) == []


def test_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency.  Only the modules the import adds are
    # judged: site may already have loaded third-party modules of its own
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import conefbp, conefbp.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'conefbp'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
