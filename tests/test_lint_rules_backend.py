"""BCK002/BCK004: numpy and cffi stay inside their sanctioned modules."""

from __future__ import annotations

from tests.lint_helpers import run_lint, rule_ids


class TestNumpyScopeBCK002:
    def test_numpy_import_outside_sanctioned_modules_flagged(self, tmp_path):
        source = """
            import numpy as np

            def mean(xs):
                return float(np.mean(xs))
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/experiments/stats.py": source},
            rules=["BCK002"],
        )
        assert rule_ids(findings) == ["BCK002"]

    def test_from_numpy_import_flagged(self, tmp_path):
        source = """
            from numpy import asarray
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["BCK002"]
        )
        assert rule_ids(findings) == ["BCK002"]

    def test_sanctioned_module_exempt(self, tmp_path):
        source = """
            try:
                import numpy as np
            except ImportError:
                np = None
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/core/vectorized.py": source},
            rules=["BCK002"],
        )
        assert findings == []


class TestJitScopeBCK004:
    def test_cffi_import_outside_kernels_flagged(self, tmp_path):
        source = """
            from cffi import FFI
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["BCK004"]
        )
        assert rule_ids(findings) == ["BCK004"]

    def test_deferred_import_still_flagged(self, tmp_path):
        source = """
            def build():
                import cffi
                return cffi.FFI
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/blocks.py": source}, rules=["BCK004"]
        )
        assert rule_ids(findings) == ["BCK004"]

    def test_kernels_package_and_submodules_exempt(self, tmp_path):
        files = {
            "src/repro/core/kernels/__init__.py": "import cffi\n",
            "src/repro/core/kernels/_cffi_provider.py": "import cffi\n",
        }
        findings = run_lint(str(tmp_path), files, rules=["BCK004"])
        assert findings == []

    def test_unrelated_imports_quiet(self, tmp_path):
        source = """
            import numbers
            from collections import OrderedDict
            import cffi_tools
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["BCK004"]
        )
        assert findings == []

    def test_relative_import_not_mistaken_for_toolchain(self, tmp_path):
        source = """
            from . import cffi
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/experiments/m.py": source},
            rules=["BCK004"],
        )
        assert findings == []
