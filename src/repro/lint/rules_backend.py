"""Engine-purity rules (BCK0xx): numpy and cffi stay in their modules.

* numpy is imported only in the sanctioned modules (``BCK002``); every
  other module reaches ndarray work through the dispatcher in
  :mod:`repro.core.vectorized`.  The sanctioned list defaults to
  :data:`repro.lint.config.DEFAULT_SANCTIONED_NUMPY_MODULES` and can be
  overridden per checkout via ``[tool.repro-lint]
  sanctioned-numpy-modules`` in ``pyproject.toml``;
* the cffi toolchain is imported only inside ``repro.core.kernels`` --
  every other module reaches compiled code through the dispatcher, so a
  host that cannot build the kernels runs the numpy engine instead of
  crashing (``BCK004``).  The sanctioned list is prefix-scoped (the
  kernels *package* including its provider submodule) and configurable
  via ``[tool.repro-lint] sanctioned-jit-modules``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.config import (
    DEFAULT_SANCTIONED_JIT_MODULES,
    DEFAULT_SANCTIONED_NUMPY_MODULES,
)
from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    register,
)

__all__ = [
    "NumpyImportScopeRule",
    "JitImportScopeRule",
]

#: Modules allowed to import numpy directly.  ``core.vectorized`` is the
#: dispatcher itself; ``utils.solvers`` hosts the batched primitives the
#: dispatcher calls into (splitting them out would create an import cycle).
#: This is the *default*; each run rescopes from ``project.config``
#: ([tool.repro-lint] sanctioned-numpy-modules in pyproject.toml).
SANCTIONED_NUMPY_MODULES = DEFAULT_SANCTIONED_NUMPY_MODULES

#: Packages allowed to import the jit toolchain (cffi).  Prefix
#: semantics: an entry sanctions the named module *and* everything under
#: it, because the kernels package keeps its provider in a submodule.
#: Rescoped per run from ``[tool.repro-lint] sanctioned-jit-modules``.
SANCTIONED_JIT_MODULES = DEFAULT_SANCTIONED_JIT_MODULES

#: Toolchain packages BCK004 confines to the sanctioned jit modules.
JIT_TOOLCHAIN_PACKAGES = ("cffi",)


def _is_numpy_import(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(
            item.name == "numpy" or item.name.startswith("numpy.")
            for item in node.names
        )
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module == "numpy" or module.startswith("numpy.")
    return False


def _jit_import_target(node: ast.AST) -> Optional[str]:
    """The toolchain package a node imports (``cffi``), if any."""
    if isinstance(node, ast.Import):
        for item in node.names:
            for pkg in JIT_TOOLCHAIN_PACKAGES:
                if item.name == pkg or item.name.startswith(pkg + "."):
                    return pkg
        return None
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level:  # relative import: never a toolchain package
            return None
        for pkg in JIT_TOOLCHAIN_PACKAGES:
            if module == pkg or module.startswith(pkg + "."):
                return pkg
    return None


@register
class NumpyImportScopeRule(Rule):
    id = "BCK002"
    family = "backend"
    description = (
        "numpy imported outside the sanctioned modules; ndarray work "
        "must go through the repro.core.vectorized dispatcher"
    )
    hint = (
        "call the batched primitive you need via repro.core.vectorized "
        "(or add one there) instead of importing numpy locally"
    )

    #: Per-run sanctioned list (rescoped from project.config in run()).
    _sanctioned: tuple[str, ...] = SANCTIONED_NUMPY_MODULES

    def run(self, project: Project) -> Iterator[Finding]:
        self._sanctioned = project.config.sanctioned_numpy_modules
        yield from super().run(project)

    def applies_to(self, module: SourceModule) -> bool:
        if not super().applies_to(module):
            return False
        return module.name not in self._sanctioned

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if _is_numpy_import(node):
                yield self.finding(
                    module,
                    node,
                    f"numpy import in {module.name}; only "
                    f"{', '.join(self._sanctioned)} may import it",
                )


@register
class JitImportScopeRule(Rule):
    id = "BCK004"
    family = "backend"
    description = (
        "cffi imported outside the sanctioned jit modules; compiled "
        "kernels must stay inside repro.core.kernels so hosts that cannot "
        "build them run the numpy engine instead of crashing"
    )
    hint = (
        "call the compiled kernel you need via repro.core.kernels "
        "(or add one there) instead of importing cffi locally"
    )

    #: Per-run sanctioned prefixes (rescoped from project.config in run()).
    _sanctioned: tuple[str, ...] = SANCTIONED_JIT_MODULES

    def run(self, project: Project) -> Iterator[Finding]:
        self._sanctioned = project.config.sanctioned_jit_modules
        yield from super().run(project)

    def applies_to(self, module: SourceModule) -> bool:
        if not super().applies_to(module):
            return False
        # Prefix semantics: sanctioning a package sanctions its submodules
        # (the provider lives under repro.core.kernels).
        return not any(
            module.name == root or module.name.startswith(root + ".")
            for root in self._sanctioned
        )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            pkg = _jit_import_target(node)
            if pkg is not None:
                yield self.finding(
                    module,
                    node,
                    f"{pkg} import in {module.name}; only "
                    f"{', '.join(self._sanctioned)} (and submodules) may "
                    "import the jit toolchain",
                )
