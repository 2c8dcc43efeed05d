import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import conefbp

# every submodule (importing __main__ would run the CLI)
SUBMODULES = [m.name for m in pkgutil.iter_modules(conefbp.__path__) if m.name != "__main__"]
# those that declare an __all__
MODULES = [name for name in SUBMODULES if hasattr(importlib.import_module(f"conefbp.{name}"), "__all__")]


def _package_exports(name):
    """Names the package resolves from the submodule ``name``, read from its export table."""
    return [n for n, module in conefbp._EXPORTS.items() if module == name]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # so that ``from conefbp.<name> import *`` works
    module = importlib.import_module(f"conefbp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_are_exported(name):
    module = importlib.import_module(f"conefbp.{name}")
    assert [n for n in _package_exports(name) if n not in module.__all__] == []


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


def _fresh(code):
    """Stdout of ``code`` run in a new interpreter, where no submodule is imported yet."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency.  Only the modules the import adds are
    # judged: site may already have loaded third-party modules of its own
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import conefbp, {', '.join(f'conefbp.{name}' for name in SUBMODULES)}\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'conefbp'}))\n"
    )
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("read_first", [True, False], ids=["read-then-import", "import-then-read"])
def test_exports_are_the_defining_modules_objects(read_first):
    # the package resolves its names lazily, so the order of access and
    # import must not change what a name is
    code = "\n".join(
        [
            "import sys, conefbp",
            "early = {n: getattr(conefbp, n) for n in conefbp.__all__}" if read_first else "early = {}",
            f"import {', '.join(f'conefbp.{name}' for name in SUBMODULES)}",
            "late = {n: getattr(conefbp, n) for n in conefbp.__all__}",
            "owner = {n: getattr(sys.modules['conefbp.' + m], n) for n, m in conefbp._EXPORTS.items()}",
            "print(sorted(n for n in owner if late[n] is not owner[n] or early.get(n, owner[n]) is not owner[n]))",
        ]
    )
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("package_first", [True, False], ids=["package-first", "submodules-first"])
def test_minimize_and_weiss_stay_functions(package_first):
    # importing conefbp.minimize binds the submodule to the package's name
    # for the function unless the package keeps it
    names = "from conefbp import minimize, weiss\nseen += [minimize, weiss]\n"
    submodules = "import conefbp.minimize, conefbp.weiss\n"
    code = (
        "import sys\nseen = []\n"
        + (names + submodules + names if package_first else submodules + names)
        + "import conefbp\n"
        + "seen += [conefbp.minimize, conefbp.weiss]\n"
        + "owner = [sys.modules['conefbp.minimize'].minimize, sys.modules['conefbp.weiss'].weiss]\n"
        + "print(all(f is owner[i % 2] for i, f in enumerate(seen)), len(seen))\n"
    )
    assert _fresh(code) == f"True {6 if package_first else 4}"


def test_dir_and_star_import_give_every_export():
    code = (
        "import conefbp\n"
        "listed = dir(conefbp)\n"
        "ns = {}\n"
        "exec('from conefbp import *', ns)\n"
        "print(len(conefbp.__all__), sorted(set(conefbp.__all__) - set(listed)),"
        " sorted(set(conefbp.__all__) ^ (set(ns) - {'__builtins__'})))\n"
    )
    assert _fresh(code) == "51 [] []"
