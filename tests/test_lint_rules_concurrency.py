"""CON001-CON004: the solve service's locking-discipline rules."""

from __future__ import annotations

from tests.lint_helpers import run_lint, rule_ids


class TestLockOrderCON001:
    def test_opposite_nesting_orders_flagged(self, tmp_path):
        source = """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def forward():
                with a_lock:
                    with b_lock:
                        pass

            def backward():
                with b_lock:
                    with a_lock:
                        pass
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON001"]
        )
        assert "CON001" in rule_ids(findings)

    def test_consistent_order_allowed(self, tmp_path):
        source = """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def one():
                with a_lock:
                    with b_lock:
                        pass

            def two():
                with a_lock:
                    with b_lock:
                        pass
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON001"]
        )
        assert findings == []

    def test_multi_item_with_counts_as_ordered(self, tmp_path):
        source = """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def one():
                with a_lock, b_lock:
                    pass

            def two():
                with b_lock:
                    with a_lock:
                        pass
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON001"]
        )
        assert "CON001" in rule_ids(findings)

    def test_out_of_scope_package_not_flagged(self, tmp_path):
        source = """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def forward():
                with a_lock:
                    with b_lock:
                        pass

            def backward():
                with b_lock:
                    with a_lock:
                        pass
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["CON001"]
        )
        assert findings == []


class TestLockAcrossAwaitCON002:
    def test_await_under_sync_lock_flagged(self, tmp_path):
        source = """
            import asyncio

            class Server:
                async def respond(self, payload):
                    with self._lock:
                        await self._send(payload)
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON002"]
        )
        assert rule_ids(findings) == ["CON002"]

    def test_async_with_allowed(self, tmp_path):
        source = """
            import asyncio

            class Server:
                async def respond(self, payload):
                    async with self._write_lock:
                        await self._send(payload)
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON002"]
        )
        assert findings == []

    def test_sync_function_not_flagged(self, tmp_path):
        source = """
            class Worker:
                def publish(self, payload):
                    with self._lock:
                        self._send(payload)
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON002"]
        )
        assert findings == []

    def test_nested_def_inside_with_not_flagged(self, tmp_path):
        source = """
            class Server:
                async def respond(self, payload):
                    with self._lock:
                        async def later():
                            await self._send(payload)
                        self._task = later
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON002"]
        )
        assert findings == []


class TestMetricsLockCON003:
    def test_unlocked_mutation_flagged(self, tmp_path):
        source = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count += 1
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/metrics.py": source}, rules=["CON003"]
        )
        assert rule_ids(findings) == ["CON003"]

    def test_locked_mutation_allowed(self, tmp_path):
        source = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/metrics.py": source}, rules=["CON003"]
        )
        assert findings == []

    def test_subscript_assignment_flagged(self, tmp_path):
        source = """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._metrics = {}

                def register(self, name, metric):
                    self._metrics[name] = metric
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/metrics.py": source}, rules=["CON003"]
        )
        assert rule_ids(findings) == ["CON003"]

    def test_init_assignments_exempt(self, tmp_path):
        source = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0
                    self._recent = []
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/metrics.py": source}, rules=["CON003"]
        )
        assert findings == []

    def test_lockless_class_exempt(self, tmp_path):
        source = """
            class Snapshot:
                def refresh(self, value):
                    self._value = value
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/metrics.py": source}, rules=["CON003"]
        )
        assert findings == []


class TestSwallowedExceptionCON004:
    def test_except_exception_pass_flagged(self, tmp_path):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON004"]
        )
        assert rule_ids(findings) == ["CON004"]

    def test_bare_except_continue_flagged(self, tmp_path):
        source = """
            def drain(items):
                for item in items:
                    try:
                        item.close()
                    except:
                        continue
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON004"]
        )
        assert rule_ids(findings) == ["CON004"]

    def test_handled_broad_except_allowed(self, tmp_path):
        source = """
            import logging

            def load(path):
                try:
                    return open(path).read()
                except Exception as exc:
                    logging.warning("load failed: %s", exc)
                    return None
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON004"]
        )
        assert findings == []

    def test_narrow_except_pass_allowed(self, tmp_path):
        source = """
            import os

            def cleanup(path):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["CON004"]
        )
        assert findings == []

    def test_runs_on_tests_too(self, tmp_path):
        source = """
            def test_something():
                try:
                    assert 1 == 1
                except Exception:
                    pass
        """
        findings = run_lint(
            str(tmp_path), {"tests/test_sample.py": source}, rules=["CON004"]
        )
        assert rule_ids(findings) == ["CON004"]
