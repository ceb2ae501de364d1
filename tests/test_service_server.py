"""End-to-end service tests: transports, lifecycle, and the acceptance demo."""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.experiments.cache import ResultCache
from repro.service import protocol
from repro.service.client import (
    ServiceClient,
    demo_wire_requests,
    expected_result,
    run_demo,
)
from repro.service.server import SolveService


def run(coro):
    return asyncio.run(coro)


def solve_wire(request_id, **overrides):
    wire = {
        "kind": "solve",
        "id": request_id,
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
            {"name": "b", "release": 0.0, "deadline": 70.0, "workload": 15000.0},
        ],
    }
    wire.update(overrides)
    return wire


async def with_service(body, **kwargs):
    service = SolveService(**kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.drain()


class TestHandleMessage:
    def test_ping(self):
        async def body(service):
            return await service.handle_message({"kind": "ping", "id": "p"})

        response = run(with_service(body))
        assert response["ok"] is True
        assert response["result"]["pong"] is True

    def test_metrics_kind_returns_text_and_snapshot(self):
        async def body(service):
            return await service.handle_message({"kind": "metrics", "id": "m"})

        response = run(with_service(body))
        assert "repro_requests_total" in response["result"]["text"]
        assert "repro_queue_depth" in response["result"]["snapshot"]

    def test_metrics_export_the_engine(self):
        from repro.core import vectorized

        async def body(service):
            return await service.handle_message({"kind": "metrics", "id": "m"})

        text = run(with_service(body))["result"]["text"]
        engine = vectorized.get_backend()
        assert f'repro_numeric_engine{{engine="{engine}"}} 1' in text

    def test_metrics_show_a_demoted_engine(self, monkeypatch):
        """Kernels that fail their self-check: one warning, numpy engine,
        and the metrics page says so."""
        import warnings

        from repro.core import blocks, kernels
        from repro.core.kernels import _cffi_provider

        class FailingProvider:
            name = "cffi"

            def overhead_solve_small(self, *args):
                return (0.0, (), (), None)

        async def body(service):
            return await service.handle_message({"kind": "metrics", "id": "m"})

        kernels.clear()
        monkeypatch.setattr(_cffi_provider, "build", FailingProvider)
        monkeypatch.setattr(kernels, "_demotion_warned", False)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                text = run(with_service(body))["result"]["text"]
        finally:
            monkeypatch.undo()
            kernels.clear()
            blocks.block_energy_cache_clear()
        assert 'repro_numeric_engine{engine="numpy"} 1' in text
        assert 'engine="jit"' not in text
        assert [
            w for w in caught if issubclass(w.category, kernels.JitUnavailableWarning)
        ]

    def test_unknown_kind_rejected(self):
        async def body(service):
            return await service.handle_message({"kind": "teleport", "id": "t"})

        response = run(with_service(body))
        assert response["error"]["code"] == protocol.E_BAD_REQUEST
        assert "teleport" in response["error"]["message"]

    def test_solve_round_trip_matches_direct_execution(self):
        async def body(service):
            return await service.handle_message(solve_wire("s1"))

        response = run(with_service(body, batch_window_ms=0.0))
        assert response["ok"] is True
        direct = protocol.execute_request(protocol.request_from_wire(solve_wire("s1")))
        assert protocol.canonical_result_bytes(
            response["result"]
        ) == protocol.canonical_result_bytes(direct)

    def test_legacy_numeric_field_answered_byte_identically(self):
        async def body(service):
            return [
                await service.handle_message(solve_wire(f"n{k}", **extra))
                for k, extra in enumerate([{}, {"numeric": "scalar"}])
            ]

        plain, legacy = run(with_service(body, batch_window_ms=0.0))
        assert plain["ok"] is True and legacy["ok"] is True
        assert protocol.canonical_result_bytes(
            legacy["result"]
        ) == protocol.canonical_result_bytes(plain["result"])

    def test_malformed_solve_gets_error_envelope(self):
        async def body(service):
            return await service.handle_message(solve_wire("bad", scheme="quantum"))

        response = run(with_service(body))
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_UNKNOWN_SCHEME


class TestLifecycle:
    def test_draining_rejects_new_solves(self):
        async def body():
            service = SolveService()
            await service.start()
            await service.drain()
            response = await service.handle_message(solve_wire("late"))
            assert response["error"]["code"] == protocol.E_DRAINING

        run(body())

    def test_admitted_requests_answered_before_drain_returns(self):
        async def body(service):
            pending = [
                asyncio.create_task(service.handle_message(solve_wire(f"d{i}")))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the offers land
            await service.drain()
            responses = await asyncio.gather(*pending)
            assert all(r["ok"] for r in responses)

        async def scenario():
            service = SolveService(batch_window_ms=30.0)
            await service.start()
            await body(service)

        run(scenario())

    def test_deadline_expiry_before_dispatch(self):
        async def body(service):
            response = await service.handle_message(
                solve_wire("slow", timeout_ms=0.5)
            )
            assert response["error"]["code"] == protocol.E_DEADLINE_EXCEEDED
            assert "0.5 ms" in response["error"]["message"]
            assert (
                service.metrics.counter("repro_deadline_expired_total").value == 1
            )

        run(with_service(body, batch_window_ms=60.0))

    def test_cancel_pending_request(self):
        async def body(service):
            pending = asyncio.create_task(
                service.handle_message(solve_wire("victim"))
            )
            await asyncio.sleep(0)
            cancel = await service.handle_message(
                {"kind": "cancel", "id": "c", "target": "victim"}
            )
            assert cancel["result"]["cancelled"] is True
            response = await pending
            assert response["error"]["code"] == protocol.E_CANCELLED

        run(with_service(body, batch_window_ms=120.0))

    def test_queue_full_rejection_carries_retry_after(self):
        async def body(service):
            first = asyncio.create_task(service.handle_message(solve_wire("one")))
            await asyncio.sleep(0)  # "one" now occupies the single seat
            second = await service.handle_message(solve_wire("two"))
            assert second["error"]["code"] == protocol.E_QUEUE_FULL
            assert second["error"]["retry_after_ms"] > 0
            assert (await first)["ok"] is True

        run(with_service(body, capacity=1, batch_window_ms=120.0))

    def test_sweep_lane_shed_while_degraded(self):
        async def body(service):
            held = [
                asyncio.create_task(service.handle_message(solve_wire(f"h{i}")))
                for i in range(2)
            ]
            await asyncio.sleep(0)
            shed = await service.handle_message(solve_wire("bulk", lane="sweep"))
            assert shed["error"]["code"] == protocol.E_SHEDDING
            assert service.metrics.counter("repro_rejected_shed_total").value == 1
            assert all(r["ok"] for r in await asyncio.gather(*held))

        run(with_service(body, capacity=4, shed_threshold=0.5, batch_window_ms=120.0))

    def test_queue_full_envelope_has_no_shard_key(self):
        async def body():
            # Never started: offers accumulate until the bound trips.
            service = SolveService(capacity=4, shed_threshold=1.0)
            for i in range(4):
                request = protocol.request_from_wire(solve_wire(f"fill{i}"))
                assert service.queue.offer(request).admitted
            response = await service.handle_message(solve_wire("overflow"))
            await service.drain()
            return response

        response = run(body())
        assert response["ok"] is False
        assert set(response["error"]) == {"code", "message", "retry_after_ms"}

    def test_no_lost_or_duplicated_responses_across_drain(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache-drain"))
        wires = [solve_wire(f"d{i}") for i in range(24)]

        async def body():
            service = SolveService(cache=cache, capacity=64, batch_window_ms=5.0)
            await service.start()
            tasks = [
                asyncio.create_task(service.handle_message(dict(w)))
                for w in wires
            ]
            await asyncio.sleep(0)  # let every request enqueue
            await service.drain()
            return await asyncio.gather(*tasks)

        responses = run(body())
        ids = [r["id"] for r in responses]
        assert sorted(ids) == sorted(w["id"] for w in wires)
        assert len(set(ids)) == len(wires)
        assert all(r["ok"] for r in responses)


class TestTcpTransport:
    def test_pipelined_out_of_order_responses(self):
        async def scenario():
            service = SolveService()
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with ServiceClient(host, port) as client:
                    responses = await asyncio.gather(
                        client.request(solve_wire("a1")),
                        client.ping(),
                        client.request(solve_wire("a2")),
                    )
                assert [r["id"] for r in responses] == ["a1", "c1", "a2"]
                assert all(r["ok"] for r in responses)
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_garbage_line_answered_not_fatal(self):
        async def scenario():
            service = SolveService()
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"{not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["ok"] is False
                assert error["error"]["code"] == protocol.E_BAD_REQUEST
                # The connection survives: a well-formed ping still works.
                writer.write(protocol.encode_line({"kind": "ping", "id": "p"}))
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong["ok"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_http_metrics_scrape(self):
        async def scenario():
            service = SolveService()
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert b"text/plain" in head
            assert b"repro_requests_total" in body

        run(scenario())


class TestStdioTransport:
    def test_stdio_round_trip(self):
        lines = [
            json.dumps({"kind": "ping", "id": "p"}),
            json.dumps(solve_wire("s1")),
        ]
        instream = io.StringIO("\n".join(lines) + "\n")
        outstream = io.StringIO()

        async def scenario():
            service = SolveService(batch_window_ms=0.0)
            await service.serve_stdio(instream, outstream)

        run(scenario())
        responses = {
            r["id"]: r
            for r in (json.loads(line) for line in outstream.getvalue().splitlines())
        }
        assert responses["p"]["result"]["pong"] is True
        assert responses["s1"]["ok"] is True


class TestAcceptanceDemo:
    """The ISSUE acceptance gate, over the real TCP path."""

    def test_200_concurrent_requests_all_byte_identical(self, tmp_path):
        report = run(
            run_demo(None, n=200, clients=8, cache_dir=str(tmp_path / "cache"))
        )
        assert report.succeeded == report.total == 200
        assert report.mismatched == []
        assert report.failed == []
        assert len(set(report.schemes_seen)) >= 3
        assert report.batch_size_max > 1.0
        assert report.cache_hits > 0.0
        assert report.queue_depth_peak <= report.queue_capacity
        assert report.ok
        assert "repro_batch_size" in report.metrics_text

    def test_demo_requests_are_deterministic(self):
        assert demo_wire_requests(20, seed=7) == demo_wire_requests(20, seed=7)
        schemes = {w["scheme"] for w in demo_wire_requests(20)}
        assert len(schemes) >= 3


class TestCachePersistence:
    def test_second_service_reuses_on_disk_results(self, tmp_path):
        cache_root = str(tmp_path / "cache")

        async def one_round(service):
            response = await service.handle_message(solve_wire("r"))
            assert response["ok"]
            return response

        first = run(
            with_service(one_round, cache=ResultCache(cache_root), batch_window_ms=0.0)
        )
        second = run(
            with_service(one_round, cache=ResultCache(cache_root), batch_window_ms=0.0)
        )
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert protocol.canonical_result_bytes(
            first["result"]
        ) == protocol.canonical_result_bytes(second["result"])


class TestByteIdentity:
    def test_results_match_direct_cold_and_warm(self, tmp_path):
        """Served canonical bytes equal the direct in-process solve, on a
        cold cache and again on the warm repeat."""
        wires = [
            w
            for w in demo_wire_requests(12, unique=4, seed=3)
            if w.get("kind") == "solve"
        ]
        expected = [
            protocol.canonical_result_bytes(expected_result(dict(w)))
            for w in wires
        ]

        async def body(service):
            passes = []
            for _ in range(2):  # cold, then warm
                passes.append(
                    await asyncio.gather(
                        *[service.handle_message(dict(w)) for w in wires]
                    )
                )
            return passes

        passes = run(
            with_service(
                body,
                cache=ResultCache(str(tmp_path / "cache")),
                capacity=256,
                batch_window_ms=0.0,
            )
        )
        for label, responses in zip(("cold", "warm"), passes):
            assert all(r["ok"] for r in responses), label
            got = [protocol.canonical_result_bytes(r["result"]) for r in responses]
            assert got == expected, label
        assert {r["provenance"]["cache"] for r in passes[1]} == {"hit"}


class TestSignals:
    def test_sigterm_right_after_listening_line_drains(self, tmp_path):
        """The handlers are in place before the listening line is printed,
        so a SIGTERM sent the moment it appears drains with exit 0."""
        import os
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for attempt in range(3):
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(tmp_path / f"cache-{attempt}")],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            try:
                line = proc.stdout.readline()
                assert "listening on" in line
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0, err
            assert "drained cleanly" in out
