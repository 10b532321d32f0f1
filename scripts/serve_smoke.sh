#!/usr/bin/env bash
# jsceresd serving smoke, multi-process edition: start the daemon with 3
# worker processes and persistence dirs, hit it with concurrent clients
# (registry app, inline source, repeats, one fault-injected), assert the
# content-addressed cache actually hit, time pings, warm hits and streamed
# jobs on one kept-alive connection, crash one worker mid-run (both an
# injected abort and a raw kill -9) and require the supervisor to restart
# it with every non-killed job succeeding, drive the schema-2 streaming
# protocol with concurrent clients (plus a kill -9 mid-stream drill that
# must still end every stream in a terminal frame), hold an inline source
# that needs escaping to the bytes an --in-process daemon answers, then
# shut down cleanly and restart to prove the persisted cache serves a
# warm hit with zero new interpreter ticks. Run from anywhere; needs only python3 and
# the release binaries. The operator-facing story is docs/OPERATIONS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release
cargo build --release --bins

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; for pid in ${daemon_pid:-} ${inproc_pid:-}; do kill "$pid" 2>/dev/null; done; true' EXIT

start_daemon() { # out-file err-file [flag...]
    local out=$1 err=$2
    shift 2
    "$BIN/jsceresd" --addr 127.0.0.1:0 "$@" > "$out" 2> "$err" &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        grep -q "^listening on " "$out" 2>/dev/null && break
        kill -0 "$daemon_pid" 2>/dev/null || {
            echo "FAIL: daemon died before binding" >&2
            cat "$err" >&2
            exit 1
        }
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$out" | head -1)
    [ -n "$addr" ] || { echo "FAIL: no ready line" >&2; exit 1; }
}

# The daemon under test: 3 worker processes, persistent cache and spill.
start_process_daemon() { # out-file err-file
    start_daemon "$1" "$2" --workers 3 --cache-dir "$tmp/cache" --spill-dir "$tmp/spill"
}

echo "== jsceresd serve smoke (cold start, 3 worker processes) =="
start_process_daemon "$tmp/daemon.out" "$tmp/daemon.err"
echo "daemon up at $addr (pid $daemon_pid)"

# Phase 1 — cache behavior under concurrency, plus the supervised-retry
# fault drill (same checks as the single-process era: the wire surface
# must not have drifted).
python3 - "$addr" <<'EOF'
import json, socket, sys, threading

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

def rpc(line):
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)

# Warm the cache serially first so the repeats below must hit.
cold = rpc('{"id":"warm","app":"haar","mode":"light"}')
assert cold["ok"] and not cold["cached"], cold

requests = [
    ('{"id":"r1","app":"haar","mode":"light"}', True),
    ('{"id":"r2","app":"haar","mode":"light"}', True),
    ('{"id":"r3","source":"var s = 0; for (var i = 0; i < 7; i++) { s += i; }","mode":"dep"}', None),
    ('{"id":"r4","app":"haar","mode":"light","inject":"error"}', False),
]
results = [None] * len(requests)
def worker(i, line):
    results[i] = rpc(line)
threads = [threading.Thread(target=worker, args=(i, line))
           for i, (line, _) in enumerate(requests)]
for t in threads: t.start()
for t in threads: t.join()

for (line, want_cached), r in zip(requests, results):
    assert r["ok"], f"{line} -> {r}"
    if want_cached is not None:
        assert r["cached"] == want_cached, f"{line} -> {r}"

# The injected request must have gone through the supervisor's retry
# path (transient error on attempt 1), never the cache.
injected = results[3]
assert injected["attempts"] == 2, f"fault not supervised: {injected}"

stats = rpc('{"op":"stats"}')
assert stats["stats_schema"] == 4, stats
assert stats["backend"] == "process", stats
c = stats["counters"]
assert c["cache_hits"] > 0, f"no cache hits: {stats}"
assert c["jobs_failed"] == 0, f"unexpected failures: {stats}"
assert c["requests"] >= 5, stats
print(f"OK phase 1: {c['requests']} requests, {c['cache_hits']} cache hits, "
      f"{c['jobs_ok']} jobs ok, injected request supervised in "
      f"{injected['attempts']} attempts")
EOF

# Phase 1b — latency on one kept-alive connection. Every other phase
# opens a fresh connection per request, which hides a reply that waits
# for the client's delayed ACK (40 ms or more). After one untimed ping,
# time 20 pings, 20 warm hits of the entry phase 1 primed and 5 streamed
# jobs on distinct tiny inline sources; each median must stay under
# 20 ms.
python3 - "$addr" <<'EOF'
import json, socket, statistics, sys, time

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

with socket.create_connection((host, int(port)), timeout=120) as s:
    replies = s.makefile("rb")

    def request(line):
        """Send one request line in one write; return the ms until its
        terminal line, and that line."""
        start = time.perf_counter()
        s.sendall(line.encode() + b"\n")
        while True:
            raw = replies.readline()
            assert raw.endswith(b"\n"), f"connection closed after {raw!r}"
            reply = json.loads(raw)
            if reply.get("type") not in ("accepted", "phase", "partial", "notice"):
                return (time.perf_counter() - start) * 1e3, reply

    request('{"op":"ping"}')
    pings = [request('{"op":"ping"}')[0] for _ in range(20)]
    hits = []
    for _ in range(20):
        ms, r = request('{"id":"hot","app":"haar","mode":"light"}')
        assert r["ok"] and r["cached"], r
        hits.append(ms)
    streams = []
    for i in range(5):
        ms, r = request('{"id":"ka%d","stream":true,"source":"var ka%d = %d;","mode":"light"}'
                        % (i, i, i))
        assert r["type"] == "result" and r["ok"] and not r["cached"], r
        streams.append(ms)

medians = {"ping": statistics.median(pings), "warm hit": statistics.median(hits),
           "streamed job": statistics.median(streams)}
line = ", ".join(f"{k} {v:.2f} ms" for k, v in medians.items())
assert all(v < 20 for v in medians.values()), \
    f"kept-alive median at or above 20 ms (a delayed-ACK wait?): {line}"
print(f"OK phase 1b: kept-alive medians {line}")
EOF

# Phase 1c — an inline source crosses the worker pipe inside the job
# line. One source holding `"`, `\`, a newline, a tab, U+0001 and a
# non-ASCII letter, sent one-shot and with stream:true, must get the
# same terminal line, byte for byte, from this daemon and from a second,
# --in-process daemon, whose jobs never leave the process.
process_pid=$daemon_pid process_addr=$addr
start_daemon "$tmp/inproc.out" "$tmp/inproc.err" --in-process
inproc_pid=$daemon_pid inproc_addr=$addr
daemon_pid=$process_pid addr=$process_addr
python3 - "$addr" "$inproc_addr" <<'EOF'
import json, socket, sys

def terminal(addr, line):
    """Send one request line; return its terminal response line, raw."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        for raw in s.makefile("rb"):
            if json.loads(raw).get("type") not in ("accepted", "phase", "partial", "notice"):
                return raw
    raise AssertionError(f"no terminal line for {line}")

source = 'var s = "q\\"b\\\\s\u0001é";\n\tfor (var i = 0; i < 3; i++) { s += i; }'
for request in [
    {"id": "esc", "source": source, "mode": "light"},
    {"id": "esc", "stream": True, "source": source, "mode": "dep"},
]:
    line = json.dumps(request, ensure_ascii=False)
    process, inproc = (terminal(addr, line) for addr in sys.argv[1:3])
    assert process == inproc, f"{line}:\n  process    {process!r}\n  in-process {inproc!r}"
    reply = json.loads(process)
    assert reply["ok"] and not reply["cached"], reply
print("OK phase 1c: an escaped inline source gets the same terminal line, "
      "one-shot and streamed, from worker processes and in process")
EOF
python3 - "$inproc_addr" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=120) as s:
    s.sendall(b'{"op":"shutdown"}\n')
    assert json.loads(s.makefile("rb").readline())["ok"]
EOF
wait "$inproc_pid" || { echo "FAIL: in-process daemon exited non-zero" >&2; exit 1; }
inproc_pid=

# Phase 2 — crash a worker process mid-run, twice over: an injected
# abort racing three real jobs, then a raw kill -9 of a live worker.
# The supervisor must report the restarts and every non-killed job must
# succeed.
workers_before=$(pgrep -P "$daemon_pid" | head -3 | tr '\n' ' ')
echo "worker pids: $workers_before"
victim=$(pgrep -P "$daemon_pid" | head -1)
python3 - "$addr" <<'EOF'
import json, socket, sys, threading

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

def rpc(line):
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)

# An injected crash aborts its worker process mid-job while three real
# jobs run on the other workers.
jobs = [
    '{"id":"j1","source":"var a = 0; for (var i = 0; i < 40; i++) { a += i; }","mode":"dep"}',
    '{"id":"j2","source":"var b = 0; for (var i = 0; i < 41; i++) { b += i; }","mode":"dep"}',
    '{"id":"j3","source":"var c = 0; for (var i = 0; i < 42; i++) { c += i; }","mode":"dep"}',
]
results = [None] * len(jobs)
def worker(i, line):
    results[i] = rpc(line)
threads = [threading.Thread(target=worker, args=(i, line))
           for i, line in enumerate(jobs)]
for t in threads: t.start()
crash = rpc('{"id":"boom","source":"var x = 1;","inject":"crash"}')
for t in threads: t.join()

assert not crash["ok"] and crash["status"] == "worker-crashed", crash
for line, r in zip(jobs, results):
    assert r["ok"], f"non-killed job must survive the crash: {line} -> {r}"

stats = rpc('{"op":"stats"}')
c = stats["counters"]
assert c["worker_restarts"] >= 1, f"restart not reported: {stats}"
assert c["jobs_failed"] == 1, f"only the crashed job may fail: {stats}"
print(f"OK phase 2a: injected crash -> {c['worker_restarts']} worker "
      f"restart(s), {c['jobs_ok']} jobs ok, {c['jobs_failed']} failed")
EOF

if [ -n "${victim:-}" ]; then
    kill -9 "$victim" 2>/dev/null || true
    echo "killed worker pid $victim"
    python3 - "$addr" <<'EOF'
import json, socket, sys, threading

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

def rpc(line):
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)

# Enough jobs that every worker slot (including the killed one) gets
# work: the dead worker is detected on dispatch, restarted, and the job
# retried on the fresh process — so every client still succeeds.
jobs = ['{"id":"k%d","source":"var k%d = 0; for (var i = 0; i < %d; i++) { k%d += i; }","mode":"dep"}'
        % (i, i, 50 + i, i) for i in range(6)]
results = [None] * len(jobs)
def worker(i, line):
    results[i] = rpc(line)
threads = [threading.Thread(target=worker, args=(i, line))
           for i, line in enumerate(jobs)]
for t in threads: t.start()
for t in threads: t.join()
for line, r in zip(jobs, results):
    assert r["ok"], f"job must survive a kill -9'd worker: {line} -> {r}"

stats = rpc('{"op":"stats"}')
c = stats["counters"]
assert c["worker_restarts"] >= 2, f"kill -9 restart not reported: {stats}"
assert c["jobs_failed"] == 1, f"a kill during idle must cost no jobs: {stats}"
print(f"OK phase 2b: kill -9 -> {c['worker_restarts']} total restart(s), "
      f"all {len(jobs)} jobs ok")
EOF
fi

# Phase 3 — the schema-2 streaming protocol: three concurrent streaming
# clients must each see a clean frame sequence (accepted → phase frames →
# partial → result) with no cross-client leakage, then a kill -9 of every
# worker mid-stream must still end the victim's stream in a terminal
# frame (the job retries on a fresh worker and succeeds).
stream_victims=$(pgrep -P "$daemon_pid" | tr '\n' ' ')
echo "streaming drill; current worker pids: $stream_victims"
python3 - "$addr" $stream_victims <<'EOF'
import json, os, signal, socket, sys, threading

addr = sys.argv[1]
victims = [int(p) for p in sys.argv[2:]]
host, port = addr.rsplit(":", 1)

def stream(line, on_frame=None):
    """Send one streaming request; collect frames until the terminal."""
    frames = []
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while True:
            nl = buf.find(b"\n")
            if nl < 0:
                chunk = s.recv(65536)
                if not chunk:
                    return frames
                buf += chunk
                continue
            frame = json.loads(buf[:nl])
            buf = buf[nl + 1:]
            frames.append(frame)
            if on_frame:
                on_frame(frame)
            if frame["type"] in ("result", "error"):
                return frames

def rpc(line):
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)

def check_stream(frames, job_id, want_ok=True):
    assert frames, f"{job_id}: empty stream"
    for i, f in enumerate(frames):
        assert f["schema"] == 2, f
        assert f["id"] == job_id, f"cross-client frame leakage: {f}"
        assert f["seq"] == i + 1, f"gap in seq: {f}"
    assert frames[0]["type"] == "accepted", frames[0]
    assert all(f["type"] not in ("result", "error") for f in frames[:-1])
    if want_ok:
        assert frames[-1]["type"] == "result" and frames[-1]["ok"], frames[-1]

# 3a — concurrent streaming clients over the shared worker pool.
jobs = ['{"id":"s%d","stream":true,"source":"var v%d = 0; for (var i = 0; i < %d; i++) { v%d += i; }","mode":"dep"}'
        % (i, i, 200000 + i, i) for i in range(3)]
streams = [None] * len(jobs)
threads = [threading.Thread(target=lambda i=i, l=l: streams.__setitem__(i, stream(l)))
           for i, l in enumerate(jobs)]
for t in threads: t.start()
for t in threads: t.join()
for i, frames in enumerate(streams):
    check_stream(frames, f"s{i}")
    phases = [f["phase"] for f in frames if f["type"] == "phase"]
    assert phases[:2] == ["parse", "rewrite"], phases
    assert "interp" in phases and "analyze" in phases, phases
    assert any(f["type"] == "partial" for f in frames), frames
stats = rpc('{"op":"stats"}')
c = stats["counters"]
assert c["streams"] >= 3, stats
assert c["frames_streamed"] >= 3 * 6, stats
print(f"OK phase 3a: 3 concurrent streams, {c['frames_streamed']} frames streamed")

# 3b — kill -9 every worker while a heavy streaming job is mid-interp.
# The rewrite frame comes from the worker already running the job, so a
# kill sent once it arrives hits the job mid-run. The supervisor restarts
# the pool and retries the job on a fresh worker: the client's stream
# must still end in a terminal frame, with no failed jobs beyond the
# phase-2 injected crash, and the retry restarts the phase sequence at
# parse.
rewrite_seen = threading.Event()
def on_frame(f):
    if f["type"] == "phase" and f.get("phase") == "rewrite":
        rewrite_seen.set()
heavy = ('{"id":"victim","stream":true,"source":'
         '"var w = 0; for (var i = 0; i < 12000000; i++) { w += i % 5; }","mode":"dep"}')
out = [None]
t = threading.Thread(target=lambda: out.__setitem__(0, stream(heavy, on_frame)))
t.start()
assert rewrite_seen.wait(timeout=60), "no rewrite frame before the drill"
for pid in victims:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
t.join(timeout=120)
assert not t.is_alive(), "stream did not terminate after the worker kill"
frames = out[0]
check_stream(frames, "victim")
phases = [f["phase"] for f in frames if f["type"] == "phase"]
assert phases.count("parse") == 2, f"the retry must restart at parse: {phases}"
retry = phases[phases.index("parse", phases.index("parse") + 1):]
assert "interp" in retry and "analyze" in retry, phases
stats = rpc('{"op":"stats"}')
c = stats["counters"]
assert c["worker_restarts"] >= 3, f"mid-stream kill not restarted: {stats}"
assert c["jobs_failed"] == 1, f"the killed stream must retry, not fail: {stats}"
print(f"OK phase 3b: kill -9 mid-stream -> terminal {frames[-1]['type']!r} "
      f"after {len(frames)} frames, {c['worker_restarts']} total restarts")
EOF

python3 - "$addr" <<'EOF'
import json, socket, sys
addr = sys.argv[1]
host, port = addr.rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=120) as s:
    s.sendall(b'{"op":"shutdown"}\n')
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
assert json.loads(buf)["ok"]
EOF

# Clean drain despite the crashes: exit 0, a drained summary that
# reports the worker restarts.
code=0
wait "$daemon_pid" || code=$?
daemon_pid=
if [ "$code" -ne 0 ]; then
    echo "FAIL: daemon exited $code after shutdown" >&2
    cat "$tmp/daemon.err" >&2
    exit 1
fi
grep -q "^drained:" "$tmp/daemon.err" || {
    echo "FAIL: no drained summary" >&2
    cat "$tmp/daemon.err" >&2
    exit 1
}
grep -qE "drained:.* [1-9][0-9]* worker restarts" "$tmp/daemon.err" || {
    echo "FAIL: drained summary must report the worker restarts" >&2
    cat "$tmp/daemon.err" >&2
    exit 1
}
sed -n 's/^drained/daemon: drained/p' "$tmp/daemon.err"

# Phase 4 — warm start: a fresh daemon on the same --cache-dir must
# serve the phase-1 entry as a cache hit without a single interpreter
# tick.
echo "== warm start from persisted cache =="
start_process_daemon "$tmp/daemon2.out" "$tmp/daemon2.err"
echo "daemon up at $addr (pid $daemon_pid)"
python3 - "$addr" <<'EOF'
import json, socket, sys

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

def rpc(line):
    with socket.create_connection((host, int(port)), timeout=120) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)

warm = rpc('{"id":"restart","app":"haar","mode":"light"}')
assert warm["ok"] and warm["cached"], f"warm start must hit the persisted cache: {warm}"

stats = rpc('{"op":"stats"}')
c = stats["counters"]
assert c["interp_ticks"] == 0, f"warm-start hit must cost zero ticks: {stats}"
assert stats["cache"]["loaded"] > 0, f"no entries loaded from disk: {stats}"
print(f"OK phase 4: warm hit from {stats['cache']['loaded']} persisted "
      f"entries, 0 new interpreter ticks")

bye = rpc('{"op":"shutdown"}')
assert bye["ok"], bye
EOF

code=0
wait "$daemon_pid" || code=$?
daemon_pid=
if [ "$code" -ne 0 ]; then
    echo "FAIL: restarted daemon exited $code" >&2
    cat "$tmp/daemon2.err" >&2
    exit 1
fi

echo "serve smoke OK"
