"""Server process control, frame I/O and the closed-loop load generator.

The generator is deliberately dumb on the hot path: every request frame
and (where the answer is known in advance) every expected reply frame
is encoded before timing starts, so during a timed phase it only
writes bytes, reads bytes and compares bytes.  One generator process
drives at most two loopback connections; each connection keeps a fixed
number of requests in flight and sends the next one as soon as a reply
arrives (a closed loop).
"""

from __future__ import annotations

import gc
import json
import os
import re
import selectors
import signal
import socket
import struct
import subprocess
import time
from typing import Callable, List, Optional, Sequence

_LEN = struct.Struct("!I")
_META = struct.Struct("!IB")
_READY = re.compile(rb"listening on [^:]+:(\d+) ")

#: Longest a single reply may take before the run is declared failed.
REPLY_TIMEOUT_S = 20.0


class BenchError(RuntimeError):
    """The benchmark could not produce a valid measurement."""


# ----------------------------------------------------------------------
# Process readings
# ----------------------------------------------------------------------
def process_cpu_ns(pid: int) -> int:
    """On-CPU nanoseconds of every thread of *pid*.

    ``/proc/<pid>/task/*/schedstat`` counts scheduler runtime in ns; the
    ``stat`` file's 10 ms ticks are too coarse for second-long phases.
    """
    total = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open("%s/%s/schedstat" % (task_dir, tid)) as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # a thread that ended between listdir and open
    return total


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of *pid* in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM line for pid %d" % pid)


def loadavg() -> List[float]:
    with open("/proc/loadavg") as handle:
        return [float(v) for v in handle.read().split()[:3]]


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro.service serve`` process on an ephemeral port."""

    def __init__(self, argv: Sequence[str], root: str,
                 ready_timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            list(argv), cwd=root, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL)
        try:
            self.port = self._await_ready(ready_timeout)
        except BaseException:
            self.stop()
            raise
        self.pid = self.proc.pid

    def _await_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise BenchError("server not ready after %.0f s"
                                     % timeout)
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError("server exited before it was ready "
                                     "(code %s)" % self.proc.poll())
                line += chunk
        match = _READY.search(line)
        if match is None:
            raise BenchError("unexpected readiness line %r" % line)
        return int(match.group(1))

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """Terminate the process and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
class Conn:
    """A blocking loopback connection with a frame reassembly buffer."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(REPLY_TIMEOUT_S)
        self.buf = bytearray()

    def frames(self) -> List[bytes]:
        """Receive once; return every complete frame now buffered."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("server closed the connection")
        buf = self.buf
        buf += chunk
        out = []
        pos = 0
        end = len(buf)
        while end - pos >= 4:
            size = _LEN.unpack_from(buf, pos)[0] + 4
            if end - pos < size:
                break
            out.append(bytes(buf[pos:pos + size]))
            pos += size
        del buf[:pos]
        return out

    def call(self, frame: bytes) -> bytes:
        """Send one frame and wait for its reply (nothing else in flight)."""
        self.sock.sendall(frame)
        while True:
            frames = self.frames()
            if frames:
                if len(frames) != 1 or self.buf:
                    raise BenchError("unexpected extra reply frames")
                return frames[0]

    def close(self) -> None:
        self.sock.close()


def reply_payload(frame: bytes) -> bytes:
    """The OK payload of a reply frame; raises on an error reply."""
    status = frame[8]
    if status & 0x7F != 0:
        raise BenchError("server error reply: %r" % frame[9:200])
    return frame[9:]


def control(conn: Conn, op: int, payload: bytes = b"") -> bytes:
    """Issue one control request (STATS, METRICS) on an idle conn."""
    frame = _LEN.pack(len(payload) + 5) + _META.pack(0xFFFFFFFF, op) \
        + payload
    return reply_payload(conn.call(frame))


def stats(conn: Conn) -> dict:
    return json.loads(control(conn, 7))


def metrics(conn: Conn) -> dict:
    return json.loads(control(conn, 14, b"json"))


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
class Source:
    """The cyclic request stream one closed loop consumes.

    ``frames[i]`` is request *i* (its request id is *i*), ``sizes[i]`` its
    element count and ``expected[i]`` the exact reply frame when it is
    known before the run (``None`` defers the check to ``on_reply``).
    The stream is far longer than the in-flight window, so a request id
    is never in flight twice.
    """

    def __init__(self, frames, sizes, expected):
        self.frames = frames
        self.sizes = sizes
        self.expected = expected
        self.cursor = 0
        self.sent = 0

    def take(self) -> int:
        index = self.cursor
        self.cursor = index + 1 if index + 1 < len(self.frames) else 0
        self.sent += 1
        return index


class PhaseResult:
    """What one closed-loop phase measured."""

    def __init__(self):
        self.elements = 0          # elements whose reply arrived
        self.failed = 0            # elements answered wrongly or not at all
        self.requests = 0
        self.latencies_ms: List[float] = []
        #: (t, elements, server_ns, gen_ns, latencies so far) per slice
        self.marks: List[tuple] = []


def run_closed_loop(
    conns: Sequence[Conn],
    source: Source,
    depth: int,
    seconds: float,
    server_pid: int,
    on_reply: Callable[[int, bytes, int], int],
    checkpoints: int = 1,
    on_send: Optional[Callable[[int, int], None]] = None,
) -> PhaseResult:
    """Drive *source* through *conns* for *seconds*, then drain.

    Each connection keeps *depth* requests in flight.  A reply equal to
    ``source.expected[id]`` is correct; otherwise ``on_reply(id, frame,
    n_replies)`` returns how many of the request's elements failed.
    ``on_send(id, n_replies)`` lets a workload note what had been
    acknowledged when a request left.  The phase is split into
    *checkpoints* equal slices, each ending in a mark of elapsed time,
    elements done and CPU spent.  The cyclic garbage collector is off
    during the phase, so no collection pause of the generator lands in
    the latencies.
    """
    result = PhaseResult()
    frames, sizes, expected = source.frames, source.sizes, source.expected
    sent_at = {}
    n_replies = 0
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    perf = time.perf_counter
    latencies = result.latencies_ms
    t_start = perf()
    server0 = process_cpu_ns(server_pid)
    gen0 = time.process_time_ns()
    slice_s = seconds / checkpoints
    next_mark = t_start + slice_s
    t_end = t_start + seconds
    sending = True
    elements = failed = requests = 0

    def send(conn):
        index = source.take()
        if on_send is not None:
            on_send(index, n_replies)
        sent_at[index] = perf()
        conn.sock.sendall(frames[index])

    gc.disable()
    try:
        for conn in conns:
            for _ in range(depth):
                send(conn)
        while sent_at:
            events = sel.select(REPLY_TIMEOUT_S)
            if not events:
                raise BenchError("no reply within %.0f s" % REPLY_TIMEOUT_S)
            for key, _ in events:
                conn = key.data
                for frame in conn.frames():
                    index = _META.unpack_from(frame, 4)[0]
                    n_replies += 1
                    size = sizes[index]
                    if frame != expected[index]:
                        failed += on_reply(index, frame, n_replies)
                    now = perf()
                    latencies.append((now - sent_at.pop(index)) * 1e3)
                    elements += size
                    requests += 1
                    if sending:
                        if now >= next_mark:
                            result.marks.append((
                                now - t_start, elements,
                                process_cpu_ns(server_pid) - server0,
                                time.process_time_ns() - gen0,
                                len(latencies)))
                            next_mark += slice_s
                            if now >= t_end - 1e-9 or len(
                                    result.marks) >= checkpoints:
                                sending = False
                        if sending:
                            send(conn)
    finally:
        gc.enable()
        sel.close()
    result.elements = elements
    result.failed = failed
    result.requests = requests
    return result
