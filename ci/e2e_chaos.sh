#!/usr/bin/env bash
# Fault-tolerance gate for the signaling plane. Three phases:
#
#   1. crash-restart sweep — qosbbd runs on a journal while chaos-mode
#      loadgen (RetryingClient per thread, client-assigned RequestIds)
#      hammers it; the harness SIGKILLs the server as soon as its journal
#      has changed since the server last started (so every kill lands
#      under live load, however short the runs) and restarts it on the
#      SAME port and journal, at least CHAOS_KILLS times. Exactly-once is asserted from the outside: every acked
#      admission must still be releasable at the end (teardown answered
#      "unknown flow" = LOST), and after full reconciliation the broker
#      must hold zero live flows (a leftover = DUPLICATED admission).
#      Reruns take a new --seed, and the RequestId ranges of all runs must
#      be pairwise disjoint.
#      Every restart must log a journal-recovery line, and the tail it
#      replayed must be within the anchor rule's bound:
#      tail_bytes <= max(4 x anchor_bytes, 1 MiB) + one slab.
#
#   2. overload shedding — a fresh qosbbd with tight budgets
#      (--max-inflight / --max-inflight-conn / --deadline-ms /
#      --brownout-inflight) under a 2x closed-loop offered load: the
#      server must SHED (kOverloadedReply > 0), never stall (loadgen's
#      one-reply-per-request accounting still balances, exit 0), and the
#      p99 of ACCEPTED admits stays bounded. A concurrent probe watches
#      Health/SnapshotDigest stay answerable throughout.
#
#   3. transport chaos — chaos loadgen through chaos_proxy (torn writes,
#      stalls, RSTs) against a journaled server: the retry/dedup contract
#      must hold across transport faults, not just process death.
#
# Usage: ci/e2e_chaos.sh [build_dir]
# Env:   CHAOS_KILLS (20)         SIGKILL-restart cycles in phase 1
#        CHAOS_REQUESTS (60000)   chaos-mode admits per loadgen run, phase 1
#        CHAOS_THREADS (8)
#        OVERLOAD_REQUESTS (20000) closed-loop admits in phase 2
#        OVERLOAD_P99_US (500000) accepted-admit p99 ceiling, microseconds
#        PROXY_REQUESTS (600)     chaos-mode admits in phase 3
#        E2E_LOG_DIR (/tmp/e2e_chaos)

set -euo pipefail

build_dir="${1:-build}"
kills="${CHAOS_KILLS:-20}"
chaos_requests="${CHAOS_REQUESTS:-60000}"
chaos_threads="${CHAOS_THREADS:-8}"
overload_requests="${OVERLOAD_REQUESTS:-20000}"
overload_p99_us="${OVERLOAD_P99_US:-500000}"
proxy_requests="${PROXY_REQUESTS:-600}"
log_dir="${E2E_LOG_DIR:-/tmp/e2e_chaos}"

qosbbd="$build_dir/tools/qosbbd"
loadgen="$build_dir/tools/loadgen"
chaos_proxy="$build_dir/tools/chaos_proxy"
for bin in "$qosbbd" "$loadgen" "$chaos_proxy"; do
  if [[ ! -x "$bin" ]]; then
    echo "e2e_chaos: missing binary $bin" >&2
    exit 2
  fi
done

rm -rf "$log_dir"
mkdir -p "$log_dir"

# One dispatch slab's journal bytes, an upper bound: the server's 256-op
# slab cap times 512 B, well above any record loadgen's requests frame to.
slab_bytes=$((256 * 512))

server_pid=""
proxy_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null || true
  [[ -n "$proxy_pid" ]] && kill -9 "$proxy_pid" 2>/dev/null || true
}
trap cleanup EXIT

wait_port_file() {
  local file="$1" pid="$2"
  for _ in $(seq 1 100); do
    [[ -s "$file" ]] && return 0
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.1
  done
  [[ -s "$file" ]]
}

# ---------------------------------------------------------------------------
echo "e2e_chaos: phase 1 — crash-restart sweep ($kills kills," \
  "$chaos_requests requests x $chaos_threads threads)"

journal="$log_dir/chaos.wal"
port_file="$log_dir/p1.port"
"$qosbbd" --port=0 --port-file="$port_file" --journal="$journal" \
  2>"$log_dir/p1.server.0.log" &
server_pid=$!
wait_port_file "$port_file" "$server_pid" || {
  echo "e2e_chaos: qosbbd failed to start" >&2
  cat "$log_dir/p1.server.0.log" >&2
  exit 1
}
port="$(cat "$port_file")"

journal_size() { stat -c %s "$journal" 2>/dev/null || echo 0; }

run=0
spawn_chaos_loadgen() {
  run=$((run + 1))
  "$loadgen" --port="$port" --mode=chaos \
    --connections="$chaos_threads" --requests="$chaos_requests" \
    --teardown-every=3 --reply-timeout-ms=500 --max-attempts=400 \
    --seed="$run" --json-out="$log_dir/p1.loadgen.run$run.json" \
    2>>"$log_dir/p1.loadgen.log" &
  loadgen_pid=$!
}
spawn_chaos_loadgen

# Return once the journal's size differs from $1 (its size when the server
# last started) while loadgen is alive: the server has then served ops of
# a live run, so the kill that follows lands under load. A run that ends
# first is extended by a rerun against the surviving journal (flows are
# reconciled, and the new seed gives the run RequestIds no earlier run
# used; the per-run JSONs are all checked at the end). Bounded: after ~10 s
# the kill goes ahead anyway and the "crossed a crash" check judges it.
wait_kill_point() {
  local base="$1"
  for _ in $(seq 1 1000); do
    if ! kill -0 "$loadgen_pid" 2>/dev/null; then
      wait "$loadgen_pid" || {
        echo "e2e_chaos: chaos loadgen FAILED mid-sweep" >&2
        cat "$log_dir/p1.loadgen.log" >&2
        exit 1
      }
      spawn_chaos_loadgen
      base="$(journal_size)"
    elif [[ "$(journal_size)" != "$base" ]]; then
      return 0
    fi
    sleep 0.01
  done
}

kills_done=0
restarts_verified=0
anchored_restarts=0
max_tail=0
start_size="$(journal_size)"
while ((kills_done < kills)); do
  wait_kill_point "$start_size"
  kill -9 "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  kills_done=$((kills_done + 1))
  restart_log="$log_dir/p1.server.$kills_done.log"
  "$qosbbd" --port="$port" --port-file="$port_file" --journal="$journal" \
    2>"$restart_log" &
  server_pid=$!
  # The restarted server must come back on the same port with its state
  # recovered from the journal before the next kill.
  ok=""
  for _ in $(seq 1 100); do
    if grep -q '^qosbbd: journal recovered' "$restart_log" 2>/dev/null &&
       grep -q '^qosbbd: listening' "$restart_log" 2>/dev/null; then
      ok=1
      break
    fi
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [[ -z "$ok" ]]; then
    echo "e2e_chaos: restart $kills_done did not recover" >&2
    cat "$restart_log" >&2
    exit 1
  fi
  start_size="$(journal_size)"
  # Bounded recovery: the replayed tail is at most the anchor threshold
  # plus the one slab whose append crossed it.
  anchor_bytes=""
  tail_bytes=""
  recovered_re='^qosbbd: journal recovered .* anchor_bytes=\([0-9]*\)'
  recovered_re+=' tail_bytes=\([0-9]*\).*'
  read -r anchor_bytes tail_bytes < <(sed -n "s/$recovered_re/\1 \2/p" \
    "$restart_log") || true
  if [[ -z "$tail_bytes" ]]; then
    echo "e2e_chaos: restart $kills_done logged no anchor_bytes/tail_bytes" >&2
    cat "$restart_log" >&2
    exit 1
  fi
  tail_bound=$((4 * anchor_bytes > 1048576 ? 4 * anchor_bytes : 1048576))
  tail_bound=$((tail_bound + slab_bytes))
  if ((tail_bytes > tail_bound)); then
    echo "e2e_chaos: restart $kills_done replayed a $tail_bytes-byte tail" \
      "(anchor $anchor_bytes B, bound $tail_bound B)" >&2
    exit 1
  fi
  if ((tail_bytes > max_tail)); then max_tail=$tail_bytes; fi
  if ((anchor_bytes > 0)); then anchored_restarts=$((anchored_restarts + 1)); fi
  restarts_verified=$((restarts_verified + 1))
done

loadgen_rc=0
wait "$loadgen_pid" || loadgen_rc=$?
if [[ "$loadgen_rc" -ne 0 ]]; then
  echo "e2e_chaos: chaos loadgen exited $loadgen_rc" >&2
  cat "$log_dir/p1.loadgen.log" >&2
  exit 1
fi
python3 - "$log_dir"/p1.loadgen.run*.json <<'EOF'
import json, sys
total = {"admits": 0, "resends": 0, "reconnects": 0}
ranges = []
for path in sys.argv[1:]:
    d = json.load(open(path))
    ranges.append((d["rid_lo"], d["rid_hi"], path))
    assert d["lost_acked"] == 0, \
        f"{path}: lost acked admissions: {d['lost_acked']}"
    assert d["exhausted"] == 0, \
        f"{path}: ops with exhausted retries: {d['exhausted']}"
    assert d["live_flows_final"] == 0, \
        f"{path}: duplicated admissions: {d['live_flows_final']} flows left"
    assert d["admits"] + d["rejects"] == d["requests"], \
        f"{path}: reply accounting broke"
    for k in total:
        total[k] += d[k]
# Zero reconnects would mean every kill landed between runs — the sweep
# never actually crashed the server under live load.
assert total["reconnects"] > 0, "no loadgen op ever crossed a server crash"
# Every run (one per seed) must have used its own RequestIds: the journal's
# dedup window outlives a run, so a reused rid would replay an old decision.
ranges.sort()
for (_, hi, a), (lo, _, b) in zip(ranges, ranges[1:]):
    assert hi < lo, f"{a} and {b} share RequestIds [{lo}, {hi}]"
print(f"e2e_chaos: phase 1 OK — {total['admits']} acked admits over "
      f"{len(sys.argv) - 1} run(s), {total['resends']} resends, "
      f"{total['reconnects']} reconnects, 0 lost, 0 duplicated")
EOF
kill -TERM "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "e2e_chaos: phase 1 survived $restarts_verified SIGKILL restarts" \
  "($anchored_restarts from an anchor, longest tail $max_tail B)"

# ---------------------------------------------------------------------------
echo "e2e_chaos: phase 2 — overload shedding ($overload_requests requests" \
  "at 2x budget)"

port_file="$log_dir/p2.port"
"$qosbbd" --port=0 --port-file="$port_file" \
  --max-inflight=64 --max-inflight-conn=32 --deadline-ms=200 \
  --brownout-inflight=48 2>"$log_dir/p2.server.log" &
server_pid=$!
wait_port_file "$port_file" "$server_pid" || {
  echo "e2e_chaos: overload qosbbd failed to start" >&2
  exit 1
}

# Probe runs alongside the overload: health must stay answerable (it
# bypasses the budgets) even while admits are being shed.
"$loadgen" --port-file="$port_file" --mode=probe --requests=40 \
  --probe-interval-ms=25 --json-out="$log_dir/p2.probe.json" \
  2>"$log_dir/p2.probe.log" &
probe_pid=$!

# 8 conns x pipeline 64 = 512 offered in-flight against a global budget of
# 64 — an 8x overshoot; the per-conn budget (32) trips as well.
overload_rc=0
"$loadgen" --port-file="$port_file" --connections=8 --pipeline=64 \
  --requests="$overload_requests" \
  --json-out="$log_dir/p2.loadgen.json" 2>"$log_dir/p2.loadgen.log" ||
  overload_rc=$?
if [[ "$overload_rc" -ne 0 ]]; then
  echo "e2e_chaos: overloaded loadgen exited $overload_rc (stall or lost" \
    "replies under shedding)" >&2
  cat "$log_dir/p2.loadgen.log" >&2
  exit 1
fi
probe_rc=0
wait "$probe_pid" || probe_rc=$?
if [[ "$probe_rc" -ne 0 ]]; then
  echo "e2e_chaos: probe exited $probe_rc" >&2
  cat "$log_dir/p2.probe.log" >&2
  exit 1
fi
kill -TERM "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

python3 - "$log_dir/p2.loadgen.json" "$log_dir/p2.probe.json" \
  "$overload_p99_us" <<'EOF'
import json, sys
load = json.load(open(sys.argv[1]))
probe = json.load(open(sys.argv[2]))
p99_cap = float(sys.argv[3])
assert load["sheds"] > 0, "2x overload produced zero sheds"
assert load["decode_errors"] == 0 and load["protocol_errors"] == 0
assert load["admits"] + load["rejects"] + load["admit_sheds"] == \
    load["requests"], "overload reply accounting broke"
p99 = load["latency_us"]["p99"]
assert p99 <= p99_cap, \
    f"accepted-admit p99 {p99:.0f}us exceeds cap {p99_cap:.0f}us"
assert probe["health_ok"] == probe["rounds"], "health probe starved"
assert probe["server_shed_total"] > 0, "server reported zero sheds"
print(f"e2e_chaos: phase 2 OK — {load['sheds']} sheds "
      f"(rate {load['shed_rate']:.2f}), {load['admits']} accepted, "
      f"p99 {p99:.0f}us <= {p99_cap:.0f}us, health answered "
      f"{probe['health_ok']}/{probe['rounds']}")
EOF

# ---------------------------------------------------------------------------
echo "e2e_chaos: phase 3 — transport chaos through chaos_proxy" \
  "($proxy_requests requests)"

port_file="$log_dir/p3.port"
proxy_port_file="$log_dir/p3.proxy.port"
"$qosbbd" --port=0 --port-file="$port_file" --journal="$log_dir/p3.wal" \
  2>"$log_dir/p3.server.log" &
server_pid=$!
wait_port_file "$port_file" "$server_pid" || {
  echo "e2e_chaos: phase-3 qosbbd failed to start" >&2
  exit 1
}
"$chaos_proxy" --port-file="$proxy_port_file" \
  --upstream-port-file="$port_file" \
  --chunk-max=9 --stall-prob=0.05 --stall-ms=80 --rst-prob=0.002 \
  --seed=1337 2>"$log_dir/p3.proxy.log" &
proxy_pid=$!
wait_port_file "$proxy_port_file" "$proxy_pid" || {
  echo "e2e_chaos: chaos_proxy failed to start" >&2
  exit 1
}

proxy_chaos_rc=0
"$loadgen" --port-file="$proxy_port_file" --mode=chaos \
  --connections=4 --requests="$proxy_requests" --teardown-every=3 \
  --reply-timeout-ms=500 --max-attempts=400 \
  --json-out="$log_dir/p3.loadgen.json" 2>"$log_dir/p3.loadgen.log" ||
  proxy_chaos_rc=$?
if [[ "$proxy_chaos_rc" -ne 0 ]]; then
  echo "e2e_chaos: chaos-through-proxy loadgen exited $proxy_chaos_rc" >&2
  cat "$log_dir/p3.loadgen.log" >&2
  tail -5 "$log_dir/p3.proxy.log" >&2 || true
  exit 1
fi
kill -TERM "$proxy_pid" 2>/dev/null || true
wait "$proxy_pid" 2>/dev/null || true
proxy_pid=""
kill -TERM "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

python3 - "$log_dir/p3.loadgen.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["lost_acked"] == 0 and d["exhausted"] == 0
assert d["live_flows_final"] == 0
print(f"e2e_chaos: phase 3 OK — {d['admits']} acked through faults, "
      f"{d['resends']} resends, {d['reconnects']} reconnects")
EOF

trap - EXIT
echo "e2e_chaos: PASS"
