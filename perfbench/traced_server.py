"""Launch ``repro.service serve`` with per-layer spans recorded.

Usage::

    PYTHONPATH=src python perfbench/traced_server.py DUMP_FILE serve ...

Before the server starts, the public functions of each layer are
wrapped at the attribute their callers look up at call time (module
attributes for :mod:`repro.service.protocol`, class attributes for the
stores, filters, hash family, bit array and memory model), so nothing
under ``src/`` changes.  Each wrapper records one span per call on the
calling thread's CPU clock; a layer's self time is its span minus the
spans of wrapped calls made inside it.  ``SIGUSR1`` appends the running
totals to DUMP_FILE as one JSON line; the benchmark signals at quiet
points before and after a timed phase and takes the difference.
"""

from __future__ import annotations

import json
import signal
import sys
import time


def _count_arg(args, result) -> int:
    """Elements in the first argument after ``self``."""
    return len(args[1])


def _count_decoded(args, result) -> int:
    return len(result[0])


def _one(args, result) -> int:
    return 1


class SpanRecorder:
    """Per-layer call counts, items, inclusive and self CPU time."""

    def __init__(self):
        #: layer -> [calls, items, inclusive ns, self ns]
        self.totals = {}
        self.negative_self = 0
        self._stack = []

    def wrap(self, owner, attr: str, layer: str, count=_count_arg,
             materialize: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *materialize* drains a returned generator inside the span, so
        lazily deferred work is billed to the layer that defines it.
        """
        fn = getattr(owner, attr)
        totals = self.totals.setdefault(layer, [0, 0, 0, 0])
        stack = self._stack
        clock = time.thread_time_ns
        recorder = self

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                spent = clock() - start
                children = stack.pop()
                own = spent - children
                if own < 0:
                    recorder.negative_self += 1
                if stack:
                    stack[-1] += spent
            totals[0] += 1
            totals[1] += count(args, result)
            totals[2] += spent
            totals[3] += own
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        line = json.dumps({"totals": self.totals,
                           "negative_self": self.negative_self})
        with open(path, "a") as handle:
            handle.write(line + "\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer the serving path crosses."""
    from repro.bitarray.bitarray import BitArray
    from repro.bitarray.memory import MemoryModel
    from repro.core.membership import ShiftingBloomFilter
    from repro.hashing.family import make_family
    from repro.service import protocol
    from repro.store.generational import GenerationalStore
    from repro.store.router import ShardRouter
    from repro.store.sharded import ShardedFilterStore

    wrap = recorder.wrap
    wrap(protocol, "decode_elements", "protocol.decode_elements",
         count=_count_decoded)
    wrap(protocol, "encode_verdicts", "protocol.encode_verdicts", count=_one)
    wrap(protocol, "encode_frame", "protocol.encode_frame", count=_one)
    wrap(ShardRouter, "group", "router.group", materialize=True)
    wrap(ShardedFilterStore, "query_batch", "sharded.query_batch")
    wrap(ShardedFilterStore, "add_batch", "sharded.add_batch")
    wrap(GenerationalStore, "query_batch", "generational.query_batch")
    wrap(GenerationalStore, "add_batch", "generational.add_batch")
    wrap(ShiftingBloomFilter, "query_batch", "membership.query_batch")
    wrap(ShiftingBloomFilter, "add_batch", "membership.add_batch")
    wrap(type(make_family("vector64", seed=0)), "values_batch",
         "hashing.values_batch")
    wrap(BitArray, "test_pairs_batch", "bitarray.test_pairs_batch")
    wrap(BitArray, "set_offsets_batch", "bitarray.set_offsets_batch")
    wrap(MemoryModel, "read_cost_batch", "memory.read_cost_batch",
         count=_one)
    wrap(MemoryModel, "record_reads", "memory.record_reads", count=_one)
    wrap(MemoryModel, "record_writes", "memory.record_writes", count=_one)


def main(argv) -> int:
    dump_path, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    signal.signal(signal.SIGUSR1,
                  lambda signum, frame: recorder.dump(dump_path))
    from repro.service.__main__ import main as service_main

    return service_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
