"""``repro serve`` with spans recorded around its public layer functions.

    python perfbench/traced_serve.py SPANS_PATH serve [repro serve flags]

Wraps the protocol, batcher, core and cache entry points the server calls
through module or class attributes, runs the normal ``repro serve`` entry
point, and writes the spans to ``SPANS_PATH`` once the server has drained
(after SIGTERM).
"""

from __future__ import annotations

import sys

from spans import Tracer

import repro.service.batcher as batcher
import repro.service.protocol as protocol
from repro.cli import main as repro_main
from repro.experiments.cache import ResultCache


def install(tracer: Tracer) -> None:
    tracer.wrap(
        protocol, "decode_line", "service.protocol.decode",
        key=lambda a, k, r: [str(r.get("id"))],
    )
    tracer.wrap(
        protocol, "request_from_wire", "service.protocol.validate",
        key=lambda a, k, r: [r.id],
    )
    tracer.wrap(
        protocol, "encode_line", "service.protocol.encode",
        key=lambda a, k, r: [str(a[0].get("id"))],
    )
    tracer.wrap(
        batcher, "execute_batch_requests", "service.batcher.execute",
        key=lambda a, k, r: [request.id for request in a[0]],
    )
    tracer.wrap(
        protocol, "execute_request", "core.execute",
        key=lambda a, k, r: [a[0].id],
    )
    tracer.wrap(ResultCache, "get", "experiments.cache.get")
    tracer.wrap(ResultCache, "put", "experiments.cache.put")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = repro_main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
