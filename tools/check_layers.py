#!/usr/bin/env python
"""Import-layering lint for the kernel architecture (docs/ARCHITECTURE.md).

The refactor that put one substrate under MIG and AIG only stays clean if
the dependency arrows keep pointing one way:

    kernel / simengine  ->  facades (core.mig, aig.aig)  ->  cuts / sim
        ->  rewriting / opt / mapping / io  ->  runtime glue (cli, batch)

Rules enforced (on ``import`` statements, resolved per module):

1. ``repro.core.kernel`` imports nothing from ``repro`` at all, and
   ``repro.core.simengine`` imports nothing from ``repro`` except the
   kernel — they sit below everything.  The kernel imports the standard
   library only; ``repro.core.simengine`` is the one kernel-layer module
   that imports numpy (rule 4 keeps the kernel and the facades off it).
2. ``repro.core.*`` never imports from ``repro.rewriting``, ``repro.opt``
   or ``repro.aig`` — the core layer cannot depend on its consumers.
3. The facades (``repro.core.mig``, ``repro.aig.aig``) import from the
   repo only the kernel layer (``repro.core.kernel``,
   ``repro.core.simengine``) — all their logic lives below them.
4. ``repro.core.kernel``, ``repro.core.mig``, ``repro.rewriting``,
   ``repro.mapping`` and ``repro.aig`` never import numpy directly.  The
   network store and its two facades are plain Python; the rewrite
   passes, the mapper and AIG rewriting may use ``repro.core.simengine``
   (and the batch cut machinery riding on it), but all array code lives
   there; a stray ``import numpy`` elsewhere is a layering leak that
   bypasses the simengine contract (dtype, padding, invalidation).
5. No ``repro`` module imports a ``_``-prefixed name from another
   ``repro`` module — a private name is internal to the module that
   defines it, so another module reaching for it couples to its
   implementation (``from .simengine import _PATTERN_IDS`` did).

Exit status 0 when clean; 1 with one line per violation otherwise.
Runs from any directory; stdlib only (CI calls it before the test jobs).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules that form the bottom layer (rule 1 / rule 3 allow-list)
KERNEL_LAYER = {"repro.core.kernel", "repro.core.simengine"}
#: the thin per-representation facades (rule 3)
FACADES = {"repro.core.mig", "repro.aig.aig"}
#: packages the core layer must never reach into (rule 2)
CORE_FORBIDDEN = ("repro.rewriting", "repro.opt", "repro.aig")
#: modules and packages that must stay numpy-free — array work goes
#: through core.simengine, never sideways into numpy (rule 4)
NUMPY_FREE = (
    "repro.core.kernel",
    "repro.core.mig",
    "repro.rewriting",
    "repro.mapping",
    "repro.aig",
)


def numpy_free_violation(module: str, target: str) -> bool:
    """True when *module* falls under rule 4 and *target* is numpy."""
    if target != "numpy" and not target.startswith("numpy."):
        return False
    return any(in_package(module, package) for package in NUMPY_FREE)


def private_imports(module: str, target: str, node: ast.AST) -> list[str]:
    """Rule 5: the ``_``-prefixed names *node* imports from *target*.

    Dunder names (``__version__``) are public, and a package may import
    its own private submodules (``from . import _x`` in its
    ``__init__``).
    """
    if not isinstance(node, ast.ImportFrom) or target == module:
        return []
    if not in_package(target, "repro"):
        return []
    return [
        alias.name
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def module_name(path: Path) -> str:
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve_import(module: str, node: ast.AST) -> list[str]:
    """Absolute module names targeted by an import statement."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return [node.module] if node.module else []
        # Relative import: climb `level` packages from the importer.
        package = module.split(".")
        # Non-package modules import relative to their parent package.
        if not (SRC / Path(*package) / "__init__.py").exists():
            package = package[:-1]
        base = package[: len(package) - node.level + 1]
        target = ".".join(base + ([node.module] if node.module else []))
        return [target]
    return []


def in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def check_file(path: Path) -> list[str]:
    module = module_name(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target in resolve_import(module, node):
            if numpy_free_violation(module, target):
                where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
                violations.append(
                    f"{where}: {module} imports {target} "
                    "(array code lives in core.simengine; the network store, "
                    "its facades and the cut consumers never import numpy)"
                )
                continue
            if not in_package(target, "repro"):
                continue
            where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for name in private_imports(module, target, node):
                violations.append(
                    f"{where}: {module} imports private name {name} from {target} "
                    "(a _-prefixed name is internal to its module)"
                )
            if module in KERNEL_LAYER:
                allowed = {"repro.core.kernel"} if module == "repro.core.simengine" else set()
                if target not in allowed:
                    violations.append(
                        f"{where}: kernel-layer module {module} imports {target} "
                        "(kernel/simengine must not depend on the rest of repro)"
                    )
                continue
            if module in FACADES:
                if target not in KERNEL_LAYER:
                    violations.append(
                        f"{where}: facade {module} imports {target} "
                        "(facades may import only the kernel layer)"
                    )
                continue
            if in_package(module, "repro.core"):
                for forbidden in CORE_FORBIDDEN:
                    if in_package(target, forbidden):
                        violations.append(
                            f"{where}: core module {module} imports {target} "
                            f"(core must not depend on {forbidden})"
                        )
    return violations


def main() -> int:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        violations.extend(check_file(path))
    if violations:
        print(f"layering check FAILED ({len(violations)} violation(s)):")
        for line in violations:
            print(f"  {line}")
        return 1
    print("layering check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
