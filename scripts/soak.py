#!/usr/bin/env python3
"""Soak the TCP query service and assert a clean drain.

Spawns `impactc serve --listen 127.0.0.1:0`, hammers it with concurrent
pipelined clients (valid, malformed and health requests) for a fixed
duration, then sends SIGTERM and checks:

  - the server drains and exits 0;
  - every connection's responses are one-JSON-per-line, strictly in
    request order (the `line` field of each response is increasing and
    matches what that client sent);
  - at least one request was actually answered.

Severed connections (fault injection) and shed requests are expected
under load; ordering within whatever did arrive must still hold. Run
with IMPACT_FAULTS set to soak the failure paths, e.g.:

  IMPACT_FAULTS=slow_read:0.05,drop_conn:0.02,slow_cell:0.1 \
      python3 scripts/soak.py --seconds 30 --clients 8 -- \
      dune exec bin/impactc.exe -- serve --listen 127.0.0.1:0
"""

import argparse
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time

BANNER = re.compile(r"impactc serve: listening on ([0-9.]+):([0-9]+)")

QUERIES = [
    '{"loop": "add", "level": "Conv", "issue": 2}',
    '{"loop": "sum", "level": "Lev1", "issue": 4}',
    '{"loop": "dotprod", "level": "Lev2", "issue": 2}',
    '{"loop": "vecadd", "level": "Conv", "issue": 8}',
    '{"loop": "nope", "level": "Conv", "issue": 2}',
    "definitely not json",
    '{"op": "health"}',
]


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.conns = 0
        self.responses = 0
        self.ok = 0
        self.severed = 0
        self.errors = []

    def fail(self, msg):
        with self.lock:
            self.errors.append(msg)


def one_connection(host, port, rnd, stats):
    n = 1 + rnd % 12
    lines = [QUERIES[(rnd + i) % len(QUERIES)] for i in range(n)]
    sent_at = {}  # wire line number -> request text
    ln = 0
    payload = []
    for q in lines:
        ln += 1
        sent_at[ln] = q
        payload.append(q)
    try:
        with socket.create_connection((host, port), timeout=30) as s:
            s.settimeout(60)
            s.sendall(("\n".join(payload) + "\n").encode())
            s.shutdown(socket.SHUT_WR)
            buf = b""
            while True:
                try:
                    chunk = s.recv(65536)
                except (ConnectionResetError, BrokenPipeError, socket.timeout):
                    with stats.lock:
                        stats.severed += 1
                    break
                if not chunk:
                    break
                buf += chunk
    except (ConnectionRefusedError, ConnectionResetError, BrokenPipeError, OSError):
        # Drain or fault injection closed the door on us; fine.
        with stats.lock:
            stats.severed += 1
        return
    complete, _, partial = buf.rpartition(b"\n")
    if partial:
        # A mid-line sever (drop_conn) legitimately leaves a partial
        # tail; it must be the *last* thing on the wire.
        with stats.lock:
            stats.severed += 1
    prev = 0
    got = complete.split(b"\n") if complete else []
    for raw in got:
        try:
            r = json.loads(raw)
        except json.JSONDecodeError:
            stats.fail("response is not JSON: %r" % raw[:120])
            return
        line = r.get("line")
        if not isinstance(line, int) or line <= prev:
            stats.fail("responses out of order: line %r after %d" % (line, prev))
            return
        if line not in sent_at:
            stats.fail("response for a line never sent: %d" % line)
            return
        prev = line
        with stats.lock:
            stats.responses += 1
            if r.get("ok") is True:
                stats.ok += 1
    with stats.lock:
        stats.conns += 1


def client_loop(host, port, seed, deadline, stats):
    rnd = seed
    while time.time() < deadline and not stats.errors:
        rnd = (rnd * 1103515245 + 12345) & 0x7FFFFFFF
        one_connection(host, port, rnd, stats)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--drain-timeout", type=int, default=60)
    ap.add_argument("server", nargs=argparse.REMAINDER,
                    help="server command after `--` (must print the serve banner)")
    args = ap.parse_args()
    cmd = args.server[1:] if args.server[:1] == ["--"] else args.server
    cmd = cmd or ["dune", "exec", "bin/impactc.exe", "--",
                  "serve", "--listen", "127.0.0.1:0"]

    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True)
    host = port = None
    banner_deadline = time.time() + 120
    stderr_lines = []
    while time.time() < banner_deadline:
        line = proc.stderr.readline()
        if not line:
            break
        stderr_lines.append(line)
        m = BANNER.search(line)
        if m:
            host, port = m.group(1), int(m.group(2))
            break
    if port is None:
        proc.kill()
        sys.exit("soak: server never printed its listen banner:\n" + "".join(stderr_lines))
    print("soak: server pid %d on %s:%d, %d clients for %ds"
          % (proc.pid, host, port, args.clients, args.seconds))

    # Keep draining stderr so the server never blocks on a full pipe.
    drain = threading.Thread(
        target=lambda: stderr_lines.extend(iter(proc.stderr.readline, "")), daemon=True)
    drain.start()

    stats = Stats()
    deadline = time.time() + args.seconds
    threads = [threading.Thread(target=client_loop,
                                args=(host, port, 1000 + i, deadline, stats))
               for i in range(args.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=args.drain_timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        sys.exit("soak: server did not drain within %ds of SIGTERM" % args.drain_timeout)
    drain.join(timeout=5)

    drained = [l for l in stderr_lines if "impactc serve: drained" in l]
    print("soak: %d clean connections, %d responses (%d ok), %d severed"
          % (stats.conns, stats.responses, stats.ok, stats.severed))
    for l in drained:
        print("soak: " + l.strip())
    if stats.errors:
        sys.exit("soak: FAILED:\n  " + "\n  ".join(stats.errors[:10]))
    if code != 0:
        sys.exit("soak: server exited %d, want 0" % code)
    if not drained:
        sys.exit("soak: server exited 0 but never reported a drain")
    if stats.ok == 0:
        sys.exit("soak: no request was ever answered ok")
    print("soak: PASS (exit 0, clean drain)")


if __name__ == "__main__":
    main()
