"""Every module under ``src/repro/`` must be reachable from the toolchain.

A module counts as reached when its dotted path, or one of its public
top-level names, appears in some other non-``__init__.py`` Python file
under ``src/``, ``benchmarks/``, ``bench_e2e/`` or ``scripts/``.  Tests
do not count: a module that only its own tests call is dead code.
Package ``__init__`` files do not count either, since a re-export is
not a caller.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "bench_e2e", "scripts")

# Modules reached only through a package registry, by name string:
# importing the package registers them, and callers never name the
# module or its symbols.  ``repro.api`` is the package's public entry
# point, reached through the lazy exports in ``repro/__init__.py``
# (``from repro import run_capture``); check.sh runs it in its
# null-path smoke and through the examples.
REGISTRY_ONLY = {
    "repro.api",                       # repro._API_EXPORTS
    "repro.jobs.dfsio",                # @register_profile("dfsio-...")
    "repro.yarn.schedulers.capacity",  # make_scheduler("capacity")
    "repro.yarn.schedulers.drf",
    "repro.yarn.schedulers.fair",
    "repro.yarn.schedulers.fifo",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _public_names(path: Path) -> set:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _caller_files():
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def orphan_modules():
    """Dotted paths of the modules nothing outside themselves names."""
    texts = {path: path.read_text() for path in _caller_files()}
    files_by_word = defaultdict(set)
    for path, text in texts.items():
        for word in set(_WORD.findall(text)):
            files_by_word[word].add(path)
    orphans = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.stem in ("__init__", "__main__"):
            continue
        dotted = _dotted(module)
        if dotted in REGISTRY_ONLY:
            continue
        if any(dotted in text for path, text in texts.items()
               if path != module):
            continue
        if any(files_by_word[name] - {module}
               for name in _public_names(module)):
            continue
        orphans.append(dotted)
    return orphans


def test_no_orphan_modules():
    assert orphan_modules() == []


def test_registry_allowlist_names_real_modules():
    modules = {_dotted(path) for path in PACKAGE.rglob("*.py")}
    assert REGISTRY_ONLY <= modules
