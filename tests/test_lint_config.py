"""``[tool.repro-lint]`` configuration: loader + BCK002/BCK004 rescoping.

The true-positive/false-positive pair required by the config feature:
with a custom sanctioned list the rules must fire where the default list
would stay quiet (numpy import in a formerly sanctioned module) and must
stay quiet where the default list would fire (guarded numpy import in a
newly sanctioned module).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.config import (
    DEFAULT_SANCTIONED_JIT_MODULES,
    DEFAULT_SANCTIONED_NUMPY_MODULES,
    DEFAULT_UNIT_TAGGED_MODULES,
    ConfigError,
    LintConfig,
    _fallback_table,
    load_config,
)
from tests.lint_helpers import run_lint, rule_ids

CUSTOM_PYPROJECT = """
    [tool.repro-lint]
    sanctioned-numpy-modules = [
        "repro.myext.fast",
    ]
"""

GUARDED_NUMPY = """
    try:
        import numpy as np
    except ImportError:
        np = None
"""


class TestRuleRescoping:
    def test_true_positive_default_sanctioned_module_flagged(self, tmp_path):
        """BCK002 fires in repro.core.vectorized once the config drops it."""
        findings = run_lint(
            str(tmp_path),
            {
                "pyproject.toml": CUSTOM_PYPROJECT,
                "src/repro/core/vectorized.py": GUARDED_NUMPY,
            },
            rules=["BCK002"],
        )
        assert rule_ids(findings) == ["BCK002"]
        assert "repro.myext.fast" in findings[0].message

    def test_false_positive_guard_new_sanctioned_module_quiet(self, tmp_path):
        """No BCK002 for a numpy import in the configured module."""
        findings = run_lint(
            str(tmp_path),
            {
                "pyproject.toml": CUSTOM_PYPROJECT,
                "src/repro/myext/fast.py": GUARDED_NUMPY,
            },
            rules=["backend"],
        )
        assert findings == []

    def test_jit_rescoping_true_positive_and_false_positive(self, tmp_path):
        """BCK004 follows sanctioned-jit-modules: fires where the default
        list stayed quiet, quiet where the default list fired."""
        pyproject = """
            [tool.repro-lint]
            sanctioned-jit-modules = ["repro.myext.compiled"]
        """
        findings = run_lint(
            str(tmp_path),
            {
                "pyproject.toml": pyproject,
                "src/repro/core/kernels/__init__.py": "import cffi\n",
                "src/repro/myext/compiled/fast.py": "import cffi\n",
            },
            rules=["BCK004"],
        )
        assert rule_ids(findings) == ["BCK004"]
        assert findings[0].path == "src/repro/core/kernels/__init__.py"
        assert "repro.myext.compiled" in findings[0].message

    def test_defaults_without_table_unchanged(self, tmp_path):
        findings = run_lint(
            str(tmp_path),
            {
                "pyproject.toml": "[tool.other]\nkey = 1\n",
                "src/repro/core/vectorized.py": GUARDED_NUMPY,
                "src/repro/experiments/stats.py": "import numpy as np\n",
            },
            rules=["backend"],
        )
        assert rule_ids(findings) == ["BCK002"]
        assert findings[0].path == "src/repro/experiments/stats.py"


class TestLoadConfig:
    def _write(self, tmp_path, text: str) -> str:
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(text), encoding="utf-8"
        )
        return str(tmp_path)

    def test_missing_file_yields_defaults(self, tmp_path):
        config = load_config(str(tmp_path))
        assert config == LintConfig()
        assert (
            config.sanctioned_numpy_modules == DEFAULT_SANCTIONED_NUMPY_MODULES
        )

    def test_missing_table_yields_defaults(self, tmp_path):
        root = self._write(tmp_path, "[tool.ruff]\nline-length = 88\n")
        assert load_config(root) == LintConfig()

    def test_empty_table_yields_defaults(self, tmp_path):
        root = self._write(tmp_path, "[tool.repro-lint]\n")
        assert load_config(root) == LintConfig()

    def test_custom_list_parsed(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-numpy-modules = ["a.b", "c.d"]
            """,
        )
        assert load_config(root).sanctioned_numpy_modules == ("a.b", "c.d")

    def test_multiline_list_parsed(self, tmp_path):
        root = self._write(tmp_path, CUSTOM_PYPROJECT)
        assert load_config(root).sanctioned_numpy_modules == (
            "repro.myext.fast",
        )

    def test_jit_key_defaults(self, tmp_path):
        config = load_config(str(tmp_path))
        assert config.sanctioned_jit_modules == DEFAULT_SANCTIONED_JIT_MODULES
        assert config.sanctioned_jit_modules == ("repro.core.kernels",)

    def test_jit_key_parsed_independently_of_numpy_key(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-jit-modules = ["repro.myext.compiled"]
            """,
        )
        config = load_config(root)
        assert config.sanctioned_jit_modules == ("repro.myext.compiled",)
        assert (
            config.sanctioned_numpy_modules == DEFAULT_SANCTIONED_NUMPY_MODULES
        )

    def test_both_keys_parsed(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-numpy-modules = ["a.b"]
            sanctioned-jit-modules = ["c.d", "e.f"]
            """,
        )
        config = load_config(root)
        assert config.sanctioned_numpy_modules == ("a.b",)
        assert config.sanctioned_jit_modules == ("c.d", "e.f")

    def test_unit_tagged_key_defaults(self, tmp_path):
        config = load_config(str(tmp_path))
        assert config.unit_tagged_modules == DEFAULT_UNIT_TAGGED_MODULES
        assert config.unit_tagged_modules == ("repro.core.fptas",)

    def test_unit_tagged_key_parsed_independently(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            unit-tagged-modules = ["repro.energy.grids"]
            """,
        )
        config = load_config(root)
        assert config.unit_tagged_modules == ("repro.energy.grids",)
        assert (
            config.sanctioned_numpy_modules == DEFAULT_SANCTIONED_NUMPY_MODULES
        )

    def test_unit_tagged_key_scalar_rejected(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            unit-tagged-modules = "repro.core.fptas"
            """,
        )
        with pytest.raises(ConfigError, match="unit-tagged-modules"):
            load_config(root)

    def test_jit_key_scalar_rejected(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-jit-modules = "repro.core.kernels"
            """,
        )
        with pytest.raises(ConfigError, match="list of non-empty strings"):
            load_config(root)

    def test_scalar_value_rejected(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-numpy-modules = 7
            """,
        )
        with pytest.raises(ConfigError, match="list of non-empty strings"):
            load_config(root)

    def test_non_string_entry_rejected(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-numpy-modules = ["a.b", 3]
            """,
        )
        with pytest.raises(ConfigError, match="list of non-empty strings"):
            load_config(root)

    def test_unknown_key_rejected(self, tmp_path):
        root = self._write(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-numpy-module = ["typo"]
            """,
        )
        with pytest.raises(ConfigError, match="unknown"):
            load_config(root)

    def test_config_error_is_usage_error(self):
        assert issubclass(ConfigError, ValueError)


class TestFallbackParser:
    """The 3.10 subset parser must agree with tomllib where both run."""

    def _table(self, tmp_path, text: str):
        path = tmp_path / "pyproject.toml"
        path.write_text(textwrap.dedent(text), encoding="utf-8")
        return _fallback_table(str(path))

    def test_absent_table_is_none(self, tmp_path):
        assert self._table(tmp_path, "[tool.ruff]\nx = 1\n") is None

    def test_single_line_list(self, tmp_path):
        table = self._table(
            tmp_path,
            """
            [tool.repro-lint]
            sanctioned-numpy-modules = ["a.b", 'c.d']
            """,
        )
        assert table == {"sanctioned-numpy-modules": ["a.b", "c.d"]}

    def test_multi_line_list_with_comments(self, tmp_path):
        table = self._table(
            tmp_path,
            """
            # leading comment
            [tool.repro-lint]
            sanctioned-numpy-modules = [
                "a.b",
                "c.d",
            ]

            [tool.other]
            ignored = true
            """,
        )
        assert table == {"sanctioned-numpy-modules": ["a.b", "c.d"]}

    def test_agrees_with_tomllib_on_repo_pyproject(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        text = """
            [tool.ruff]
            line-length = 88

            [tool.repro-lint]
            sanctioned-numpy-modules = [
                "repro.core.vectorized",
                "repro.utils.solvers",
            ]
        """
        path = tmp_path / "pyproject.toml"
        path.write_text(textwrap.dedent(text), encoding="utf-8")
        with open(path, "rb") as handle:
            expected = tomllib.load(handle)["tool"]["repro-lint"]
        assert _fallback_table(str(path)) == expected

    def test_unterminated_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unterminated"):
            self._table(
                tmp_path,
                """
                [tool.repro-lint]
                sanctioned-numpy-modules = [
                    "a.b",
                """,
            )
