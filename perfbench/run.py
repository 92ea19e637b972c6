"""Wire-level serving benchmark for the set-query service.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload bulk_lookups --seed 1 \\
        --seconds 10 --trace 0

It starts real ``python -m repro.service serve`` processes, drives each
over loopback from this one process as a closed loop (at most two
connections, a fixed number of pipelined requests in flight on each),
checks every verdict against an in-process reference, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (elements of the
timed phase) and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics, from one untraced
and one traced server (see ``perfbench/METRICS.md``).  The exit code is
non-zero on any verdict mismatch or measurement error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import loop

HERE = os.path.dirname(os.path.abspath(__file__))

#: Server start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Closed-loop seconds before every timed phase (both processes warm).
WARMUP_S = 2.0
#: Length of one slice of a timed phase.  Rates and CPU costs are
#: whole-phase totals; ``lat_p99_ms`` is the median of the slices' p99,
#: so one stalled second does not decide it.  Each slice holds well over
#: a thousand requests.
SLICE_S = 2.5


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(round(q * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _environment(root: str, seed: int) -> dict:
    import numpy

    sha, dirty = None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, timeout=10,
            check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the source digest identifies the code
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


class Bench:
    """One run: servers, sessions and the numbers they produced."""

    def __init__(self, root: str, workload, seconds: float):
        self.root = root
        self.workload = workload
        self.seconds = seconds

    # ------------------------------------------------------------------
    def serve_argv(self, dump_path=None):
        if dump_path is None:
            head = [sys.executable, "-m", "repro.service"]
        else:
            head = [sys.executable, os.path.join(HERE, "traced_server.py"),
                    dump_path]
        return head + ["serve", "--port", "0"] + self.workload.serve_args()

    def start(self, dump_path=None):
        """Spawn, connect and fill one server; returns what it measured.

        The access delta of the last setup ADD frame is the write bill
        of a known element count (that frame never rotates a ring).
        """
        frames = self.workload.setup_frames()
        t0 = time.perf_counter()
        server = loop.Server(self.serve_argv(dump_path), self.root)
        conn = None
        try:
            conn = loop.Conn(server.port)
            for i, (frame, expected) in enumerate(frames):
                if i == len(frames) - 1:
                    before = loop.stats(conn)["access"]
                if conn.call(frame) != expected:
                    raise loop.BenchError("setup ADD frame %d failed" % i)
            after = loop.stats(conn)
            setup_s = time.perf_counter() - t0
        except BaseException:
            if conn is not None:
                conn.close()
            server.stop()
            raise
        write_words = after["access"]["write_words"] - before["write_words"]
        return server, conn, setup_s, {
            "stats": after,
            "write_words_per_add":
                write_words / len(self.workload.setup_batches[-1]),
        }

    def accounting(self, conn) -> float:
        """Access words per queried element over a fixed request list,
        answered one at a time against the post-setup state."""
        before = loop.stats(conn)["access"]["read_words"]
        elements = 0
        for frame, expected, size in self.workload.accounting:
            if conn.call(frame) != expected:
                raise loop.BenchError("accounting query answered wrongly")
            elements += size
        after = loop.stats(conn)["access"]["read_words"]
        return (after - before) / elements

    def fpr(self, conn) -> float:
        """Positive rate of the never-written probe, checked bit-exact."""
        frame, expected, size, positives = self.workload.fpr_probe
        if conn.call(frame) != expected:
            raise loop.BenchError("never-written probe answered wrongly")
        return positives / size

    def session(self, server, conn, seconds: float, on_quiet=None):
        """Warm up, then time a closed-loop phase on a set-up server.

        *on_quiet* runs at the quiet points just before and just after
        the timed phase, with the idle control connection.
        """
        workload = self.workload
        conns = [conn] + [loop.Conn(server.port)
                          for _ in range(workload.connections - 1)]
        try:
            source = workload.new_session()
            drive = dict(depth=workload.depth, server_pid=server.pid,
                         on_send=workload.on_send,
                         on_reply=workload.on_reply)
            warm = loop.run_closed_loop(conns, source, seconds=WARMUP_S,
                                        **drive)
            quiet_before = on_quiet(conn) if on_quiet else None
            timed = loop.run_closed_loop(conns, source, seconds=seconds,
                                         checkpoints=max(
                                             1, round(seconds / SLICE_S)),
                                         **drive)
            quiet_after = on_quiet(conn) if on_quiet else None
        finally:
            for extra in conns[1:]:
                extra.close()
        deferred = workload.finish_session()
        timed.warm_failed = warm.failed
        timed.deferred_failed = deferred
        timed.quiet = (quiet_before, quiet_after)
        return timed


def _slices(phase):
    """Per-slice (elements/s, server us/elem, generator us/elem)."""
    rows = []
    prev = (0.0, 0, 0, 0, 0)
    for mark in phase.marks:
        dt = mark[0] - prev[0]
        de = mark[1] - prev[1]
        if de <= 0 or dt <= 0:
            raise loop.BenchError("empty timed slice")
        rows.append((de / dt, (mark[2] - prev[2]) / de / 1e3,
                     (mark[3] - prev[3]) / de / 1e3))
        prev = mark
    return rows


def _slice_p99(phase):
    """Median over slices of each slice's p99 latency, and the smallest
    number of samples beyond a slice's p99."""
    bounds = [0] + [mark[4] for mark in phase.marks]
    values, beyond = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        window = sorted(phase.latencies_ms[lo:hi])
        values.append(_percentile(window, 0.99))
        beyond.append(len(window) - int(round(0.99 * len(window))))
    return statistics.median(values), min(beyond)


def _totals(phase):
    """Whole-phase (elements/s, server us/elem, generator us/elem)."""
    seconds, elements, server_ns, gen_ns, _ = phase.marks[-1]
    return (elements / seconds, server_ns / elements / 1e3,
            gen_ns / elements / 1e3)


def _phase_failed(phase) -> int:
    return phase.failed + phase.deferred_failed


def end_to_end(bench: Bench):
    workload = bench.workload
    setups = []
    server = conn = None
    try:
        for i in range(SETUP_REPEATS):
            server, conn, setup_s, _ = bench.start()
            setups.append(setup_s)
            if i < SETUP_REPEATS - 1:
                conn.close()
                server.stop()
        if hasattr(workload, "check_ring"):
            workload.check_ring(loop.stats(conn))
        bench.accounting(conn)
        fpr = bench.fpr(conn)
        phase = bench.session(server, conn, bench.seconds)
        rss = loop.peak_rss_mb(server.pid)
    finally:
        if conn is not None:
            conn.close()
        if server is not None:
            server.stop()
    rate, server_us, _ = _totals(phase)
    timed_elements = phase.marks[-1][1]
    lat = sorted(phase.latencies_ms)
    p99, beyond = _slice_p99(phase)
    if beyond < 10:
        raise loop.BenchError("a slice had only %d samples beyond its p99"
                              % beyond)
    failed = _phase_failed(phase)
    attempted = phase.elements
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "elems_per_s": (rate, "1/s", timed_elements),
        "lat_p50_ms": (_percentile(lat, 0.50), "ms", len(lat)),
        "lat_p99_ms": (p99, "ms", len(phase.marks)),
        "server_cpu_us_per_elem": (server_us, "us", timed_elements),
        "server_rss_mb": (rss, "MiB", 1),
        "served_frac": ((attempted - failed) / attempted, "ratio",
                        attempted),
        "fpr": (fpr, "ratio", workload.fpr_probe[2]),
    }
    correct = failed == 0 and phase.warm_failed == 0
    detail = {"slices": [[round(v, 4) for v in row]
                         for row in _slices(phase)]}
    return correct, attempted, failed, metrics, detail


# ----------------------------------------------------------------------
# Per-layer (traced) run
# ----------------------------------------------------------------------
def _hist_delta(before: dict, after: dict, name: str, kinds):
    """Bucket-count delta of histogram *name* over the given kinds."""
    def series(snapshot):
        out = {}
        for entry in snapshot["metrics"]:
            if (entry["name"] == name
                    and entry["labels"].get("kind") in kinds):
                for index, n in entry["buckets"].items():
                    out[int(index)] = out.get(int(index), 0) + n
                out["resolution"] = entry["resolution"]
        return out

    a, b = series(before), series(after)
    resolution = b.pop("resolution", 1.0)
    a.pop("resolution", None)
    return resolution, {i: b[i] - a.get(i, 0) for i in b
                        if b[i] - a.get(i, 0)}


def _hist_quantile(resolution, buckets, q: float) -> float:
    """Upper bucket edge holding the *q*-quantile (registry semantics)."""
    total = sum(buckets.values())
    if total == 0:
        raise loop.BenchError("histogram saw no observation")
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= q * total:
            return resolution * (1 << index)
    return resolution * (1 << max(buckets))


def _flush_counts(snapshot: dict) -> dict:
    out = {}
    for entry in snapshot["metrics"]:
        if entry["name"] == "repro_coalescer_flushes_total":
            cause = entry["labels"]["cause"]
            out[cause] = out.get(cause, 0) + entry["value"]
    return out


def _complete_lines(path: str) -> list:
    """Newline-terminated lines of *path* (none if it does not exist)."""
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    return text.splitlines()[:text.count("\n")]


#: Layers whose call count must be nonzero in a traced timed phase.
_EXPECTED_LAYERS = {
    "all": ["protocol.decode_elements", "protocol.encode_verdicts",
            "protocol.encode_frame", "membership.query_batch",
            "hashing.values_batch", "bitarray.test_pairs_batch",
            "memory.read_cost_batch", "memory.record_reads"],
    "bulk_lookups": ["router.group", "sharded.query_batch"],
    "ttl_lookups": ["generational.query_batch"],
    "mixed_writes": ["router.group", "sharded.query_batch",
                     "sharded.add_batch", "membership.add_batch",
                     "bitarray.set_offsets_batch", "memory.record_writes"],
}


def per_layer(bench: Bench):
    workload = bench.workload
    half = bench.seconds / 2.0
    metrics = {}

    def coalescer_snapshot(conn):
        return loop.metrics(conn)

    # Untraced server: generator cost, coalescer behaviour, billing.
    server = conn = None
    try:
        server, conn, _, info = bench.start()
        if hasattr(workload, "check_ring"):
            workload.check_ring(info["stats"])
        read_words = bench.accounting(conn)
        plain = bench.session(server, conn, half,
                              on_quiet=coalescer_snapshot)
    finally:
        if conn is not None:
            conn.close()
        if server is not None:
            server.stop()
    plain_rate, _, loadgen_us = _totals(plain)
    before, after = plain.quiet
    kinds = ("query", "add")
    res, batch = _hist_delta(before, after,
                             "repro_coalescer_batch_elements", kinds)
    res_w, wait = _hist_delta(before, after,
                              "repro_coalescer_wait_seconds", kinds)
    flushes_a, flushes_b = _flush_counts(before), _flush_counts(after)
    flushes = {c: flushes_b[c] - flushes_a.get(c, 0) for c in flushes_b}
    metrics.update({
        "loadgen.cpu_us_per_elem": (loadgen_us, "us"),
        "coalescer.batch_elems_p50": (_hist_quantile(res, batch, 0.5),
                                      "count"),
        "coalescer.wait_ms_p50": (_hist_quantile(res_w, wait, 0.5) * 1e3,
                                  "ms"),
        "coalescer.wait_ms_p99": (_hist_quantile(res_w, wait, 0.99) * 1e3,
                                  "ms"),
        "coalescer.size_flush_frac": (
            flushes.get("size", 0) / max(1, sum(flushes.values())),
            "ratio"),
        "memory.read_words_per_query": (read_words, "count"),
        "memory.write_words_per_add": (info["write_words_per_add"],
                                       "count"),
    })

    # Traced server: per-layer self CPU time from the span totals.
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=bench.root)
    dump = os.path.join(tmp, "spans.jsonl")
    server = conn = None
    try:
        server, conn, _, _ = bench.start(dump)

        def span_snapshot(_conn):
            """Server CPU now, and the span totals it dumps on SIGUSR1."""
            dumped = _complete_lines(dump)
            cpu = loop.process_cpu_ns(server.pid)
            server.signal(signal.SIGUSR1)
            deadline = time.monotonic() + 10
            while len(_complete_lines(dump)) == len(dumped):
                if time.monotonic() > deadline:
                    raise loop.BenchError("traced server did not dump")
                time.sleep(0.01)
            return cpu, json.loads(_complete_lines(dump)[-1])

        traced = bench.session(server, conn, half, on_quiet=span_snapshot)
    finally:
        if conn is not None:
            conn.close()
        if server is not None:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    (cpu0, spans0), (cpu1, spans1) = traced.quiet
    if spans1["negative_self"] != spans0["negative_self"]:
        raise loop.BenchError("%d spans had negative self time"
                              % (spans1["negative_self"]
                                 - spans0["negative_self"]))
    layer = {name: [b - a for a, b in zip(spans0["totals"][name], row)]
             for name, row in spans1["totals"].items()}
    elements = traced.elements
    missing = [name for name in (_EXPECTED_LAYERS["all"]
                                 + _EXPECTED_LAYERS[workload.name])
               if layer[name][0] == 0]
    if missing:
        raise loop.BenchError("wrapped layers recorded no call: %s"
                              % ", ".join(missing))
    if workload.name == "ttl_lookups" and layer["router.group"][0]:
        raise loop.BenchError("ttl_lookups reached the shard router")

    def self_us(*names):
        return sum(layer[n][3] for n in names) / elements / 1e3

    def calls(name):
        return layer[name][0]

    named = {
        "protocol.decode_us_per_elem": self_us("protocol.decode_elements"),
        "router.group_us_per_elem": self_us("router.group"),
        "sharded.query_self_us_per_elem": self_us("sharded.query_batch"),
        "sharded.add_self_us_per_elem": self_us("sharded.add_batch"),
        "generational.query_self_us_per_elem": self_us(
            "generational.query_batch"),
        "membership.query_self_us_per_elem": self_us(
            "membership.query_batch"),
        "membership.add_self_us_per_elem": self_us("membership.add_batch"),
        "hashing.values_batch_us_per_elem": self_us("hashing.values_batch"),
        "bitarray.test_pairs_us_per_elem": self_us(
            "bitarray.test_pairs_batch"),
        "bitarray.set_offsets_us_per_elem": self_us(
            "bitarray.set_offsets_batch"),
        "memory.accounting_us_per_elem": self_us(
            "memory.read_cost_batch", "memory.record_reads",
            "memory.record_writes"),
    }
    encode = self_us("protocol.encode_verdicts", "protocol.encode_frame")
    server_cpu = (cpu1 - cpu0) / elements / 1e3
    unattributed = server_cpu - sum(named.values()) - encode
    if unattributed < 0:
        raise loop.BenchError("named self times exceed the traced server "
                              "CPU (%.3f us/elem)" % unattributed)
    for name, value in named.items():
        metrics[name] = (value, "us")
    sharded_calls = calls("sharded.query_batch")
    gen_items = layer["generational.query_batch"][1]
    metrics.update({
        "protocol.encode_us_per_req": (
            encode * elements / traced.requests, "us"),
        "server.unattributed_us_per_elem": (unattributed, "us"),
        "server.traced_cpu_us_per_elem": (server_cpu, "us"),
        "sharded.kernel_calls_per_batch": (
            calls("membership.query_batch") / sharded_calls
            if sharded_calls else 0.0, "count"),
        "generational.probes_per_elem": (
            layer["membership.query_batch"][1] / gen_items
            if gen_items else 0.0, "count"),
        "hashing.hashed_per_elem": (
            layer["hashing.values_batch"][1] / elements, "count"),
        "trace.overhead_frac": (1.0 - _totals(traced)[0] / plain_rate,
                                "ratio"),
    })
    failed = _phase_failed(plain) + _phase_failed(traced)
    attempted = plain.elements + traced.elements
    correct = (failed == 0 and plain.warm_failed == 0
               and traced.warm_failed == 0)
    return correct, attempted, failed, {
        name: (value, unit, None) for name, (value, unit) in metrics.items()
    }, {"layers": layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests run tiny scales)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "service",
                                       "__main__.py")):
        print("perfbench: no repro sources under %s/src; run from the "
              "root of a checkout" % root, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    env = _environment(root, args.seed)
    env["loadavg_before"] = loop.loadavg()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    # The pre-encoded inputs are millions of long-lived objects; frozen,
    # they are never rescanned by a collection pausing the generator.
    gc.freeze()
    bench = Bench(root, workload, args.seconds)
    try:
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics, detail = measure(bench)
    except loop.BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    env["loadavg_after"] = loop.loadavg()
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(detail, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print("%-40s %14.6g %-6s%s" % (
            name, value, unit,
            "" if samples is None else " (n=%d)" % samples))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
