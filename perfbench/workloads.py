"""Seeded inputs, in-process references and verdict oracles.

Every workload derives all of its inputs from one seed, builds a
reference structure in-process from the public library with the same
geometry the server hosts, and pre-encodes every request frame before
timing starts.  Every workload sends 16-element requests, two in
flight on each of two connections, so the coalescer flushes on its
timer and the server keeps idle slack.  A closed loop that saturates
the server instead (256-element requests flushed on size) measured the
host's vCPU speed more than the program: on a shared host its rate
swung 2x between and within runs.  Workload choice:

* ``bulk_lookups`` — QUERY requests against a 4-shard ShBF_M store:
  the sharded read path (decode, route, four shard kernels).
* ``ttl_lookups`` — the same requests against a 4-generation TTL ring:
  the generational OR sweep, never the router or the shards; the
  control for sharded-path changes.
* ``mixed_writes`` — as ``bulk_lookups``, but one request in five is an
  ADD of fresh keys: the add path, and the control for read-only
  changes.

``bulk_lookups`` and ``ttl_lookups`` replies must equal the reference
bit for bit, false positives included.  ``mixed_writes`` verdicts race
concurrent writes, so they are checked by an interval rule: at least
the preload-only reference, at most the final reference, and True for
every key whose ADD was acknowledged before the query was sent.
"""

from __future__ import annotations

import struct
from typing import List, Optional

import numpy as np

from repro.core.membership import ShiftingBloomFilter
from repro.errors import ProtocolError
from repro.hashing.family import make_family
from repro.service import protocol
from repro.store.generational import GenerationalStore
from repro.store.sharded import ShardedFilterStore
from repro.workloads.service import build_service_workload
from repro.workloads.ttl import build_ttl_workload

from loop import BenchError, Source, reply_payload

K = 8
SHARDS = 4
#: Bits per shard or generation filter at scale 1 (the server default).
M_BITS = 262144
#: Elements per setup ADD frame.
SETUP_CHUNK = 4096
#: Requests answered one at a time for the access-accounting pass.
ACCOUNTING_REQUESTS = 32
_U32 = struct.Struct("!I")


def _encode_query(request_id: int, elements) -> bytes:
    return protocol.encode_frame(
        request_id, protocol.OP_QUERY, protocol.encode_elements(elements))


def _encode_add(request_id: int, elements) -> bytes:
    return protocol.encode_frame(
        request_id, protocol.OP_ADD, protocol.encode_elements(elements))


def _expect_verdicts(request_id: int, verdicts) -> bytes:
    return protocol.encode_frame(
        request_id, protocol.STATUS_OK,
        protocol.encode_verdicts(np.asarray(verdicts, dtype=bool)))


def _expect_added(request_id: int, n: int) -> bytes:
    return protocol.encode_frame(
        request_id, protocol.STATUS_OK, _U32.pack(n))


def _chunks(elements, size: int) -> List[list]:
    elements = list(elements)
    return [elements[i:i + size] for i in range(0, len(elements), size)]


def _filter_factory(m: int):
    family = make_family("vector64", seed=0)
    return lambda _slot: ShiftingBloomFilter(m=m, k=K, family=family)


def _wrong_elements(frame: bytes, expected: bytes, size: int) -> int:
    """Elements of a bit-exact reply that differ from the expectation."""
    try:
        got = protocol.decode_verdicts(reply_payload(frame))
        want = protocol.decode_verdicts(reply_payload(expected))
    except (BenchError, ProtocolError):
        return size
    if got.shape != want.shape:
        return size
    return int(np.count_nonzero(got != want))


class Workload:
    """Shared shape: setup frames, a request source and a verdict oracle.

    Subclasses fill ``setup_batches`` (elements of each setup ADD frame,
    sent one at a time), ``accounting`` (``(frame, expected, size)``
    QUERY requests answered one at a time against the post-setup
    state), ``fpr_probe`` (one QUERY of every never-written key, see
    :meth:`_set_fpr_probe`) and ``source``, the timed request stream.
    """

    name = ""
    per_request = 16
    depth = 2
    connections = 2

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.m = max(4096, int(M_BITS * scale))
        self.setup_batches: List[list] = []
        self.accounting: List[tuple] = []
        self.source: Optional[Source] = None

    def scaled(self, n: int) -> int:
        return max(1, int(n * self.scale))

    def serve_args(self) -> List[str]:
        raise NotImplementedError

    def setup_frames(self) -> List[tuple]:
        """``(frame, expected reply)`` per setup ADD, encoded once."""
        if not hasattr(self, "_setup_frames"):
            self._setup_frames = [
                (_encode_add(0, batch), _expect_added(0, len(batch)))
                for batch in self.setup_batches]
        return self._setup_frames

    def new_session(self) -> Source:
        """Reset the request source for a freshly set-up server."""
        self.source.cursor = 0
        self.source.sent = 0
        return self.source

    # Hooks for the closed loop ------------------------------------------
    on_send = None

    def on_reply(self, index: int, frame: bytes, n_replies: int) -> int:
        return _wrong_elements(frame, self.source.expected[index],
                               self.source.sizes[index])

    def finish_session(self) -> int:
        """Elements failed by checks deferred until the session ends."""
        return 0

    def _set_fpr_probe(self, never_written, reference) -> None:
        """One QUERY of every never-written key against the post-setup
        state: its positive rate is ``fpr``, fixed by seed and family."""
        verdicts = np.asarray(reference.query_batch(never_written),
                              dtype=bool)
        self.fpr_probe = (_encode_query(0, never_written),
                          _expect_verdicts(0, verdicts),
                          len(never_written), int(verdicts.sum()))

    def _cyclic_queries(self, elements, verdicts) -> Source:
        """Fixed-size QUERY requests over *elements*, cycled in order."""
        per_request = self.per_request
        n_requests = len(elements) // per_request
        if n_requests < 2 * self.connections * self.depth:
            raise BenchError("request pool of %d is smaller than the "
                             "in-flight window" % n_requests)
        frames, expected = [], []
        for i in range(n_requests):
            lo, hi = i * per_request, (i + 1) * per_request
            frames.append(_encode_query(i, elements[lo:hi]))
            expected.append(_expect_verdicts(i, verdicts[lo:hi]))
        self.accounting = [
            (frames[i], expected[i], per_request)
            for i in range(min(ACCOUNTING_REQUESTS, n_requests))]
        return Source(frames, [per_request] * n_requests, expected)


class BulkLookups(Workload):
    name = "bulk_lookups"

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        # About 10 bits per element over the four shard filters.
        n_members = max(64, SHARDS * self.m // 10)
        workload = build_service_workload(n_members, seed=seed)
        reference = ShardedFilterStore(_filter_factory(self.m),
                                       n_shards=SHARDS)
        self.setup_batches = _chunks(workload.members, SETUP_CHUNK)
        reference.add_batch(list(workload.members))
        pool = workload.mixed_stream()
        verdicts = np.asarray(reference.query_batch(pool), dtype=bool)
        self.source = self._cyclic_queries(pool, verdicts)
        self._set_fpr_probe(list(workload.absent), reference)

    def serve_args(self) -> List[str]:
        return ["--shards", str(SHARDS), "--m", str(self.m),
                "--k", str(K), "--family", "vector64"]


class TTLLookups(Workload):
    name = "ttl_lookups"
    generations = 4
    rounds = 6

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        # Half-size generation filters hold a round's ~14k distinct keys
        # at ~9 bits each, so the ring's FPR (~3.5%) is measured from
        # well over a thousand positives.
        self.m = max(4096, self.m // 2)
        arrivals = self.scaled(20000)
        tracers = self.scaled(6000)
        self.rotate_items = arrivals + tracers
        workload = build_ttl_workload(
            self.rounds, arrivals, tracers, n_absent=self.scaled(48000),
            seed=seed)
        reference = GenerationalStore(
            _filter_factory(self.m), generations=self.generations,
            rotate_after_items=self.rotate_items)
        # Chunks of at most half a round: the last setup frame then
        # never rotates, so its access delta is a clean write bill.
        chunk = max(1, min(SETUP_CHUNK, self.rotate_items // 2))
        for round_elements in workload.rounds:
            for batch in _chunks(round_elements, chunk):
                self.setup_batches.append(batch)
                reference.add_batch(batch)
        self.rotations = reference.rotations
        self.head_seqs = [g.seq for g in reference.generation_stats()]
        live = range(self.rounds - self.generations, self.rounds)
        dead = range(0, self.rounds - self.generations)
        probes = (workload.expired_tracers(tuple(live))
                  + workload.expired_tracers(tuple(dead))
                  + list(workload.absent))
        order = np.random.default_rng(seed).permutation(len(probes))
        probes = [probes[i] for i in order]
        verdicts = np.asarray(reference.query_batch(probes), dtype=bool)
        self.source = self._cyclic_queries(probes, verdicts)
        self._set_fpr_probe(list(workload.absent), reference)

    def serve_args(self) -> List[str]:
        return ["--shards", "0", "--generations", str(self.generations),
                "--rotate-items", str(self.rotate_items),
                "--m", str(self.m), "--k", str(K), "--family", "vector64"]

    def check_ring(self, stats: dict) -> None:
        seqs = [g["seq"] for g in stats["generations"]]
        if seqs != self.head_seqs or self.rotations < 3:
            raise BenchError(
                "ring after fill has seqs %s, reference %s (%d rotations;"
                " at least 3 needed)" % (seqs, self.head_seqs,
                                         self.rotations))


class MixedWrites(Workload):
    name = "mixed_writes"
    add_every = 5
    #: Requests between an ADD and the first query that probes its keys,
    #: several in-flight windows, so most probes follow their ack.
    probe_lag = 40
    #: Fresh keys in each query request, the rest preload members and
    #: never-written keys in equal parts.
    fresh_per_query = 4
    #: Pre-encoded requests; the stream wraps after them, and from then
    #: on ADDs repeat keys (the oracle stays exact: a key acknowledged in
    #: an earlier pass must still answer True).
    stream_requests = 60000

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        n_members = max(64, SHARDS * self.m // 10)
        n_requests = self.scaled(self.stream_requests)
        workload = build_service_workload(n_members, seed=seed)
        self.members = list(workload.members)
        self.setup_batches = _chunks(self.members, SETUP_CHUNK)
        self.preload_ref = ShardedFilterStore(_filter_factory(self.m),
                                              n_shards=SHARDS)
        self.preload_ref.add_batch(self.members)
        pool = workload.mixed_stream()
        # Fresh keys are random 13-byte strings, the width of the flow
        # IDs, so batches keep the uniform-width hashing path real
        # traffic takes.  The oracle does not rely on their freshness.
        n_adds = n_requests // self.add_every + 1
        raw = np.random.default_rng(seed).bytes(13 * self.per_request
                                                * n_adds)
        fresh = [raw[i:i + 13] for i in range(0, len(raw), 13)]
        frames, sizes = [], []
        # ADD replies are checked in on_reply too, which notes the ack.
        self.add_expected = {}
        self.requests: List[tuple] = []   # (kind, elements, fresh_from)
        adds: List[int] = []
        cursor = 0
        n_plain = self.per_request - self.fresh_per_query
        for r in range(n_requests):
            if r % self.add_every == 0:
                batch = fresh[len(adds) * self.per_request:
                              (len(adds) + 1) * self.per_request]
                adds.append(r)
                frames.append(_encode_add(r, batch))
                self.add_expected[r] = _expect_added(r, len(batch))
                self.requests.append(("add", batch, None))
            else:
                source_add = next((a for a in reversed(adds)
                                   if a <= r - self.probe_lag), None)
                take = self.per_request if source_add is None else n_plain
                batch = [pool[(cursor + j) % len(pool)]
                         for j in range(take)]
                cursor += take
                if source_add is not None:
                    keys = self.requests[source_add][1]
                    offset = (r * self.fresh_per_query) % len(keys)
                    batch += [keys[(offset + j) % len(keys)]
                              for j in range(self.fresh_per_query)]
                frames.append(_encode_query(r, batch))
                self.requests.append(("query", batch, source_add))
            sizes.append(len(batch))
        self.source = Source(frames, sizes, [None] * len(frames))
        self._set_fpr_probe(list(workload.absent), self.preload_ref)
        acct = pool[:ACCOUNTING_REQUESTS * self.per_request]
        acct_verdicts = np.asarray(self.preload_ref.query_batch(acct))
        self.accounting = [
            (_encode_query(i, acct[lo:lo + self.per_request]),
             _expect_verdicts(i, acct_verdicts[lo:lo + self.per_request]),
             self.per_request)
            for i, lo in enumerate(range(0, len(acct), self.per_request))]

    def serve_args(self) -> List[str]:
        return ["--shards", str(SHARDS), "--m", str(self.m),
                "--k", str(K), "--family", "vector64"]

    def new_session(self) -> Source:
        self.sent_at = [0] * len(self.source.frames)
        self.acked_at = [0] * len(self.source.frames)
        self.replies: List[tuple] = []
        return super().new_session()

    def on_send(self, index: int, n_replies: int) -> None:
        self.sent_at[index] = n_replies

    def on_reply(self, index: int, frame: bytes, n_replies: int) -> int:
        kind = self.requests[index][0]
        if kind == "add":
            self.acked_at[index] = n_replies
            if frame == self.add_expected[index]:
                return 0
            return self.source.sizes[index]
        # sent_at[index] still belongs to this send: a request id is never
        # in flight twice, and the stream is far longer than the window.
        self.replies.append((index, frame, self.sent_at[index]))
        return 0

    def finish_session(self) -> int:
        """Check every query reply of the session by the interval rule."""
        n_sent = min(self.source.sent, len(self.source.frames))
        if n_sent == 0:
            return 0
        final_ref = ShardedFilterStore(_filter_factory(self.m),
                                       n_shards=SHARDS)
        final_ref.add_batch(self.members)
        for r in range(n_sent):
            kind, batch, _ = self.requests[r]
            if kind == "add":
                final_ref.add_batch(batch)
        failed = 0
        checked = []
        for index, frame, sent_at in self.replies:
            kind, batch, source_add = self.requests[index]
            try:
                got = protocol.decode_verdicts(reply_payload(frame))
            except (BenchError, ProtocolError):
                failed += len(batch)
                continue
            if got.shape != (len(batch),):
                failed += len(batch)
                continue
            acked = (source_add is not None
                     and 0 < self.acked_at[source_add]
                     <= sent_at)
            must = np.zeros(len(batch), dtype=bool)
            if acked:
                must[len(batch) - self.fresh_per_query:] = True
            checked.append((batch, got, must))
        if checked:
            elements = [e for batch, _, _ in checked for e in batch]
            got = np.concatenate([g for _, g, _ in checked])
            must = np.concatenate([m for _, _, m in checked])
            lower = np.asarray(self.preload_ref.query_batch(elements))
            upper = np.asarray(final_ref.query_batch(elements))
            bad = (got < lower) | (got > upper) | (must & ~got)
            failed += int(np.count_nonzero(bad))
        return failed


WORKLOADS = {
    "bulk_lookups": BulkLookups,
    "ttl_lookups": TTLLookups,
    "mixed_writes": MixedWrites,
}
