"""ServiceClient retry behaviour that needs no server."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.client import ServiceClient


class TestClientJitter:
    def test_seeded_clients_draw_identical_jitter(self):
        a = ServiceClient("127.0.0.1", 1, retry_seed=42)
        b = ServiceClient("127.0.0.1", 1, retry_seed=42)
        assert [a._retry_rng.random() for _ in range(8)] == [
            b._retry_rng.random() for _ in range(8)
        ]

    def test_unseeded_clients_desynchronize(self):
        a = ServiceClient("127.0.0.1", 1)
        b = ServiceClient("127.0.0.1", 1)
        draws_a = [a._retry_rng.random() for _ in range(8)]
        draws_b = [b._retry_rng.random() for _ in range(8)]
        assert draws_a != draws_b

    def test_jitter_out_of_range_rejected(self):
        client = ServiceClient("127.0.0.1", 1)
        wire = {"kind": "solve", "id": "j", "tasks": []}
        with pytest.raises(ValueError, match="jitter"):
            asyncio.run(client.request_with_retry(wire, jitter=1.5))
