"""The import-layering lint (tools/check_layers.py) and its rules."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_layers  # noqa: E402


class TestRepoIsClean:
    def test_lint_passes_on_the_tree(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layers.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passed" in proc.stdout

    def test_every_source_file_is_visited(self):
        # The ruleset only matters if the walker actually sees the files
        # it governs.
        seen = {check_layers.module_name(p) for p in check_layers.SRC.rglob("*.py")}
        for module in ("repro.core.kernel", "repro.core.simengine",
                      "repro.core.mig", "repro.aig.aig", "repro.core.cuts"):
            assert module in seen


class TestResolution:
    def test_absolute_import(self):
        import ast

        node = ast.parse("import repro.opt.fraig").body[0]
        assert check_layers.resolve_import("repro.core.mig", node) == [
            "repro.opt.fraig"
        ]

    def test_relative_import_from_module(self):
        import ast

        # `from ..runtime.metrics import PassMetrics` inside repro.core.cuts
        node = ast.parse("from ..runtime.metrics import PassMetrics").body[0]
        assert check_layers.resolve_import("repro.core.cuts", node) == [
            "repro.runtime.metrics"
        ]

    def test_relative_import_single_dot(self):
        import ast

        node = ast.parse("from .kernel import Network").body[0]
        assert check_layers.resolve_import("repro.core.simengine", node) == [
            "repro.core.kernel"
        ]


class TestRules:
    def _violations(self, module, source, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(source)
        import ast

        tree = ast.parse(source)
        # Drive the rule logic directly: emulate check_file with a fake
        # module name so we can feed synthetic sources.
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in check_layers.resolve_import(module, node):
                if not check_layers.in_package(target, "repro"):
                    continue
                if module in check_layers.KERNEL_LAYER:
                    allowed = (
                        {"repro.core.kernel"}
                        if module == "repro.core.simengine"
                        else set()
                    )
                    if target not in allowed:
                        violations.append((module, target, "kernel"))
                    continue
                if module in check_layers.FACADES:
                    if target not in check_layers.KERNEL_LAYER:
                        violations.append((module, target, "facade"))
                    continue
                if check_layers.in_package(module, "repro.core"):
                    for forbidden in check_layers.CORE_FORBIDDEN:
                        if check_layers.in_package(target, forbidden):
                            violations.append((module, target, "core"))
        return violations

    def test_kernel_may_not_import_repro(self, tmp_path):
        v = self._violations(
            "repro.core.kernel", "from repro.core.truth_table import tt_var", tmp_path
        )
        assert v and v[0][2] == "kernel"

    def test_simengine_may_import_kernel_only(self, tmp_path):
        assert not self._violations(
            "repro.core.simengine", "from repro.core.kernel import Network", tmp_path
        )
        v = self._violations(
            "repro.core.simengine", "import repro.opt.fraig", tmp_path
        )
        assert v and v[0][2] == "kernel"

    def test_facade_may_not_import_above_kernel(self, tmp_path):
        v = self._violations(
            "repro.core.mig", "from repro.core.truth_table import tt_maj", tmp_path
        )
        assert v and v[0][2] == "facade"
        assert not self._violations(
            "repro.core.mig", "from repro.core.simengine import SimulationMixin", tmp_path
        )

    def test_core_may_not_import_consumers(self, tmp_path):
        v = self._violations(
            "repro.core.cuts", "from repro.aig.aig import Aig", tmp_path
        )
        assert v and v[0][2] == "core"
        assert not self._violations(
            "repro.core.cuts", "from repro.runtime.metrics import PassMetrics", tmp_path
        )


class TestNumpyFree:
    """Rule 4: the cut consumers may use core.simengine but never numpy
    directly."""

    def test_rewriting_may_not_import_numpy(self):
        assert check_layers.numpy_free_violation("repro.rewriting.batch", "numpy")
        assert check_layers.numpy_free_violation(
            "repro.rewriting.bottom_up", "numpy.linalg"
        )

    def test_rewriting_may_import_simengine(self):
        assert not check_layers.numpy_free_violation(
            "repro.rewriting.batch", "repro.core.simengine"
        )

    def test_rule_scoped_to_rewriting(self):
        # The kernel layer is numpy's home; rule 4 must not fire there.
        assert not check_layers.numpy_free_violation("repro.core.simengine", "numpy")
        assert not check_layers.numpy_free_violation("repro.core.cuts", "numpy")

    def test_kernel_and_mig_facade_may_not_import_numpy(self):
        # The network store and both facades are plain Python;
        # core.simengine stays the one kernel-layer module with numpy.
        assert check_layers.numpy_free_violation("repro.core.kernel", "numpy")
        assert check_layers.numpy_free_violation("repro.core.mig", "numpy.typing")
        assert check_layers.numpy_free_violation("repro.aig.aig", "numpy")
        assert not check_layers.numpy_free_violation("repro.core.npn", "numpy")

    def test_mapping_and_aig_may_not_import_numpy(self):
        # The other batch cut consumers fall under the same rule.
        assert check_layers.numpy_free_violation("repro.mapping.mapper", "numpy")
        assert check_layers.numpy_free_violation("repro.aig.rewrite", "numpy.linalg")
        assert not check_layers.numpy_free_violation(
            "repro.aig.rewrite", "repro.core.cuts"
        )
        assert not check_layers.numpy_free_violation("repro.opt.fraig", "numpy")

    def test_rewriting_tree_is_numpy_free_today(self):
        rewriting = check_layers.SRC / "repro" / "rewriting"
        for path in sorted(rewriting.rglob("*.py")):
            source = path.read_text()
            assert "import numpy" not in source, path


class TestPrivateNames:
    """Rule 5: no repro module imports a ``_``-prefixed name from another."""

    @staticmethod
    def _private(module, source):
        import ast

        node = ast.parse(source).body[0]
        return [
            name
            for target in check_layers.resolve_import(module, node)
            for name in check_layers.private_imports(module, target, node)
        ]

    def test_private_name_from_sibling_flagged(self):
        assert self._private(
            "repro.core.cuts",
            "from .simengine import _PATTERN_IDS, evaluate_cut_program",
        ) == ["_PATTERN_IDS"]

    def test_private_module_from_package_flagged(self):
        assert self._private(
            "repro.runtime.worker", "from . import _internal"
        ) == ["_internal"]

    def test_public_and_dunder_names_allowed(self):
        assert not self._private(
            "repro.core.cuts", "from .simengine import evaluate_cut_program"
        )
        assert not self._private("repro.cli", "from repro import __version__")

    def test_rule_scoped_to_repro(self):
        assert not self._private("repro.core.cuts", "from os import _exit")

    def test_package_may_import_its_own_private_submodule(self):
        assert not self._private("repro.runtime", "from . import _internal")
