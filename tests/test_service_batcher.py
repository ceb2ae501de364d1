"""Batcher tests: coalescing, engine provenance, cache reuse, error isolation."""

from __future__ import annotations

import time

import pytest

from repro.core import vectorized
from repro.experiments.cache import ResultCache, service_request_key
from repro.models import Task, TaskSet, paper_platform
from repro.service import protocol
from repro.service.batcher import Batcher, batch_key, form_batches
from repro.service.metrics import service_metrics
from repro.service.protocol import SolveRequest, canonical_result_bytes
from repro.service.queue import QueueEntry


def make_entry(request_id, *, tasks=None, platform=None, scheme="auto"):
    tasks = tasks if tasks is not None else TaskSet(
        [Task(0.0, 40.0, 8000.0, "a"), Task(0.0, 70.0, 15000.0, "b")]
    )
    request = SolveRequest(
        id=str(request_id),
        tasks=tasks,
        platform=platform if platform is not None else paper_platform(),
        scheme=scheme,
    )
    return QueueEntry(request=request, enqueued_at=time.monotonic())


@pytest.fixture
def batcher(tmp_path):
    instance = Batcher(cache=ResultCache(str(tmp_path / "cache")), metrics=service_metrics())
    yield instance
    instance.shutdown()


class TestFormBatches:
    def test_compatible_requests_coalesce(self):
        entries = [make_entry(i) for i in range(4)]
        batches = form_batches(entries, max_batch=8)
        assert len(batches) == 1
        assert [e.request.id for e in batches[0]] == ["0", "1", "2", "3"]

    def test_different_platforms_split(self):
        other = paper_platform(alpha_m=2000.0)
        entries = [make_entry(0), make_entry(1, platform=other), make_entry(2)]
        batches = form_batches(entries, max_batch=8)
        assert [[e.request.id for e in b] for b in batches] == [["0", "2"], ["1"]]

    def test_legacy_numeric_field_does_not_split(self):
        wire = {
            "id": "w",
            "tasks": [{"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0}],
        }
        requests = [
            protocol.request_from_wire({**wire, "numeric": numeric})
            for numeric in ("scalar", "numpy", "jit")
        ]
        assert len({batch_key(request) for request in requests}) == 1

    def test_oversized_group_splits_within_bound(self):
        entries = [make_entry(i) for i in range(10)]
        batches = form_batches(entries, max_batch=4)
        assert all(1 <= len(b) <= 4 for b in batches)
        flattened = [e.request.id for b in batches for e in b]
        assert flattened == [str(i) for i in range(10)]  # order preserved
        # An even 50-item group splits into two batches of 25, not 32 + 18.
        fifty = form_batches([make_entry(i) for i in range(50)], max_batch=32)
        assert [len(b) for b in fifty] == [25, 25]

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            form_batches([], max_batch=0)


class TestRunBatch:
    def test_responses_pair_with_entries(self, batcher):
        entries = [make_entry(i) for i in range(3)]
        results = batcher.run_batch(entries)
        assert [entry.request.id for entry, _ in results] == ["0", "1", "2"]
        for _, response in results:
            assert response["ok"] is True
            assert response["provenance"]["batch_size"] == 3

    def test_cache_hit_is_byte_identical_to_fresh_solve(self, batcher):
        [(_, first)] = batcher.run_batch([make_entry("x")])
        [(_, second)] = batcher.run_batch([make_entry("y")])  # same tasks/platform
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert canonical_result_bytes(first["result"]) == canonical_result_bytes(
            second["result"]
        )

    def test_cache_key_separates_scheme_and_backend(self):
        platform = paper_platform()
        config = [[0.0, 40.0, 8000.0, "a"]]
        keys = {
            service_request_key(platform, config, "common-release", "jit"),
            service_request_key(platform, config, "agreeable", "jit"),
            service_request_key(platform, config, "common-release", "numpy"),
        }
        assert len(keys) == 3

    def test_no_cache_mode_reports_off(self):
        batcher = Batcher(cache=None, metrics=service_metrics())
        try:
            [(_, response)] = batcher.run_batch([make_entry("x")])
        finally:
            batcher.shutdown()
        assert response["provenance"]["cache"] == "off"

    def test_infeasible_request_fails_alone(self, batcher):
        sporadic = TaskSet(
            [
                Task(0.0, 50.0, 4000.0, "x"),
                Task(60.0, 90.0, 3000.0, "y"),
                Task(30.0, 200.0, 2000.0, "z"),
            ]
        )
        entries = [
            make_entry("good"),
            make_entry("bad", tasks=sporadic, scheme="common-release"),
        ]
        results = {entry.request.id: resp for entry, resp in batcher.run_batch(entries)}
        assert results["good"]["ok"] is True
        assert results["bad"]["ok"] is False
        assert results["bad"]["error"]["code"] == protocol.E_INFEASIBLE

    def test_batch_matches_direct_execute(self, batcher):
        entry = make_entry("x")
        [(_, response)] = batcher.run_batch([entry])
        direct = protocol.execute_request(entry.request)
        assert canonical_result_bytes(response["result"]) == canonical_result_bytes(
            direct
        )

    def test_provenance_reports_the_engine(self, batcher):
        [(_, response)] = batcher.run_batch([make_entry("x")])
        assert response["provenance"]["backend"] == vectorized.get_backend()
        assert response["provenance"]["backend"] in ("jit", "numpy")

    def test_metrics_recorded(self, batcher):
        batcher.run_batch([make_entry(i) for i in range(2)])
        snapshot = batcher.metrics.snapshot()
        assert snapshot["repro_batches_total"]["value"] == 1
        assert snapshot["repro_batch_size"]["max"] == 2
        assert snapshot["repro_batched_requests_total"]["value"] == 2
        assert snapshot["repro_responses_total"]["value"] == 2

    def test_empty_batch_is_noop(self, batcher):
        assert batcher.run_batch([]) == []
