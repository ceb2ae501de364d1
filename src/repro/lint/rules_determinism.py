"""Determinism rules (DET0xx): bit-reproducibility of results and keys.

The experiment engine's core contract (PR 1-2) is that reruns are
byte-identical: cache keys are content hashes over canonical JSON, result
rows reduce in seed order, and the jit/numpy engines agree.  Every
rule here targets a way that contract has broken (or nearly broken) in
practice:

* ``DET001`` -- wall-clock reads (``time.time``/``datetime.now``) leak
  non-reproducible values into whatever consumes them;
* ``DET002`` -- module-level ``random.*`` draws from hidden global state
  instead of an explicit seeded ``random.Random``;
* ``DET003`` -- hashing JSON without ``sort_keys=True`` keys the cache on
  dict insertion order;
* ``DET004`` -- iterating a ``set`` feeds arbitrary ordering into rows,
  CSV output or key material;
* ``DET005`` -- ``==`` between computed floats in solver code, where the
  jit and numpy engines agree to 1e-9 but not to the last ulp.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    dotted_call_name,
    register,
)

__all__ = [
    "WallClockRule",
    "UnseededRandomRule",
    "UnsortedKeyJsonRule",
    "SetIterationRule",
    "FloatEqualityRule",
]

@register
class WallClockRule(Rule):
    id = "DET001"
    family = "determinism"
    description = (
        "wall-clock read (time.time/datetime.now/...) in library code; "
        "results must not depend on when they were computed"
    )
    hint = (
        "use time.monotonic()/time.perf_counter() for intervals; if a "
        "timestamp must appear in output, pass it in explicitly or add a "
        "'# repro-lint: allow[DET001] <reason>' pragma"
    )
    include_tests = True

    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_call_name(node.func, module.aliases)
            if name in self._BANNED:
                yield self.finding(
                    module, node, f"wall-clock call {name}() is not reproducible"
                )


@register
class UnseededRandomRule(Rule):
    id = "DET002"
    family = "determinism"
    description = (
        "module-level random.* call draws from hidden global state; "
        "randomness must flow through an explicit seeded random.Random"
    )
    hint = (
        "construct rng = random.Random(seed) at the boundary and thread "
        "it through (see repro.workloads for the pattern)"
    )
    include_tests = True

    _ALLOWED = {"random.Random"}

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_call_name(node.func, module.aliases)
            if name is None or name in self._ALLOWED:
                continue
            if name == "random" or not name.startswith("random."):
                continue
            # Only the module's own helpers: random.Random instances are
            # usually locals whose dotted name does not begin with
            # "random.", so anything left here is the global-state API.
            yield self.finding(
                module,
                node,
                f"{name}() uses the process-global RNG (unseeded between runs)",
            )


@register
class UnsortedKeyJsonRule(Rule):
    id = "DET003"
    family = "determinism"
    description = (
        "json.dumps without sort_keys=True in a function that hashes: "
        "cache keys must use canonical JSON"
    )
    hint = "pass sort_keys=True (and separators=(',', ':')) before hashing"
    include_tests = True

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dumps: list[ast.Call] = []
            hashes = False
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_call_name(node.func, module.aliases)
                if name is None:
                    continue
                if name.startswith("hashlib."):
                    hashes = True
                elif name == "json.dumps" and not self._sorted_keys(node):
                    dumps.append(node)
            if not hashes:
                continue
            for node in dumps:
                yield self.finding(
                    module,
                    node,
                    "json.dumps without sort_keys=True in a hashing function; "
                    "the digest depends on dict insertion order",
                )

    @staticmethod
    def _sorted_keys(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
            if keyword.arg is None:
                return True  # **kwargs: cannot prove, do not flag
        return False


@register
class SetIterationRule(Rule):
    id = "DET004"
    family = "determinism"
    description = (
        "iteration over a set: ordering is arbitrary and varies with "
        "PYTHONHASHSEED, so any derived sequence is not reproducible"
    )
    hint = "wrap in sorted(...) or iterate the original ordered source"
    include_tests = True

    #: Builtins whose output order mirrors iteration order.
    _ORDER_SINKS = {"list", "tuple", "enumerate", "iter"}

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    yield self._flag(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expr(generator.iter):
                        yield self._flag(module, generator.iter)
            elif isinstance(node, ast.Call):
                name = dotted_call_name(node.func, module.aliases)
                if name in self._ORDER_SINKS and node.args:
                    if self._is_set_expr(node.args[0]):
                        yield self._flag(module, node.args[0])
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and self._is_set_expr(node.args[0])
                ):
                    yield self._flag(module, node.args[0])

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _flag(self, module: SourceModule, node: ast.AST) -> Finding:
        return self.finding(
            module, node, "iteration over a set has arbitrary order"
        )


@register
class FloatEqualityRule(Rule):
    id = "DET005"
    family = "determinism"
    description = (
        "float equality against a computed value in solver code; the "
        "jit and numpy engines agree to 1e-9, not to the last ulp"
    )
    hint = (
        "compare with an explicit tolerance (abs(a - b) <= tol or "
        "math.isclose); exact compares are only safe against a stored "
        "sentinel such as 0.0"
    )
    packages = ("repro.core", "repro.utils", "repro.energy")
    include_tests = False

    #: Exact comparison against these literals is the sanctioned
    #: "parameter explicitly disabled / untouched default" idiom.
    _SENTINELS = (0.0, 1.0, -1.0)

    _ARITH = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.FloorDiv)

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for side in [node.left] + list(node.comparators):
                reason = self._computed_float(side)
                if reason:
                    yield self.finding(
                        module,
                        node,
                        f"exact float comparison against {reason}",
                    )
                    break

    def _computed_float(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._ARITH):
            return "an arithmetic expression"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            if node.value not in self._SENTINELS:
                return f"the float literal {node.value!r}"
        if isinstance(node, ast.UnaryOp):
            return self._computed_float(node.operand)
        return None
