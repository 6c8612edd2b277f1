#!/usr/bin/env bash
# End-to-end gate for the federated control plane. One scenario:
#
#   K journaled qosbbd daemons each serve one domain of the partitioned
#   multi-domain topology (--topo=multidomain --domain-index=d) while
#   loadgen --mode=federated — a FederatedFront over SocketMembers —
#   drives a seeded mix of intra-domain delegations and inter-domain 2PC
#   admissions against the fleet. Mid-run the harness SIGKILLs one member and restarts it on the
#   SAME port and journal, at least FED_KILLS times; every restart must log
#   a journal-recovery line before the next kill.
#
# Exactly-once across the crashes is asserted from the outside by
# loadgen's own strict exit accounting, re-checked here from its JSON:
#
#   * lost_acked == 0      — every acked admission still released cleanly;
#   * exhausted == 0       — no admit or release ran out of retries;
#   * live_flows_final == 0 — every member drained to zero live flows (a
#                            leftover = a sub-op executed twice);
#   * poisoned_txns == 0   — no member op exhausted its transport budget
#                            mid-2PC (the coordinator never lost track);
#   * ack_failures == 0    — every commit/abort was acked ok;
#   * audit_ok == 1        — replaying the coordinator's per-member sub-op
#                            log through a fresh in-process broker produced
#                            BIT-IDENTICAL state digests to every live
#                            member, i.e. each member executed exactly the
#                            coordinator's op sequence, once each, even
#                            across SIGKILL + journal recovery;
#   * reconnects > 0       — at least one kill landed under live load (a
#                            sweep that never crossed a crash proves
#                            nothing);
#   * inter_admits > 0     — the sweep actually exercised 2PC, not just
#                            intra delegation;
#   * rid ranges disjoint  — no two runs (one per seed) share a RequestId,
#                            so no member dedup window can answer a run
#                            with an earlier run's decision.
#
# Usage: ci/e2e_federation.sh [build_dir]
# Env:   FED_DOMAINS (3)       federation size K
#        FED_KILLS (3)         SIGKILL-restart cycles of the victim member
#        FED_REQUESTS (20000)  coordinator ops per loadgen run
#        FED_VICTIM (1)        which member the harness kills
#        E2E_LOG_DIR (/tmp/e2e_federation)

set -euo pipefail

build_dir="${1:-build}"
domains="${FED_DOMAINS:-3}"
kills="${FED_KILLS:-3}"
requests="${FED_REQUESTS:-20000}"
victim="${FED_VICTIM:-1}"
log_dir="${E2E_LOG_DIR:-/tmp/e2e_federation}"

qosbbd="$build_dir/tools/qosbbd"
loadgen="$build_dir/tools/loadgen"
for bin in "$qosbbd" "$loadgen"; do
  if [[ ! -x "$bin" ]]; then
    echo "e2e_federation: missing binary $bin" >&2
    exit 2
  fi
done
if ((victim < 0 || victim >= domains)); then
  echo "e2e_federation: FED_VICTIM=$victim out of [0, $domains)" >&2
  exit 2
fi

rm -rf "$log_dir"
mkdir -p "$log_dir"

declare -a member_pids=()
cleanup() {
  for pid in "${member_pids[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
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

echo "e2e_federation: booting $domains journaled members" \
  "($requests coordinator ops, $kills kills of member $victim)"

for ((d = 0; d < domains; d++)); do
  "$qosbbd" --topo=multidomain --domains="$domains" --domain-index="$d" \
    --port=0 --port-file="$log_dir/member.port.$d" \
    --journal="$log_dir/member.$d.wal" \
    2>"$log_dir/member.$d.log" &
  member_pids[$d]=$!
done
for ((d = 0; d < domains; d++)); do
  wait_port_file "$log_dir/member.port.$d" "${member_pids[$d]}" || {
    echo "e2e_federation: member $d failed to start" >&2
    cat "$log_dir/member.$d.log" >&2
    exit 1
  }
done
victim_port="$(cat "$log_dir/member.port.$victim")"

run=0
spawn_loadgen() {
  run=$((run + 1))
  # --seed=$run gives every run its own RequestId space (loadgen folds the
  # seed into the rid's high bits), so the members' dedup windows never
  # see a recycled RequestId meaning a different operation. The op-log replay
  # audit compares against a FRESH broker, so it is meaningful only for
  # run 1 (members still carry flow-id/path state into later runs);
  # extension runs keep every other strict check.
  local audit=0
  ((run == 1)) && audit=1
  "$loadgen" --mode=federated --port-file-prefix="$log_dir/member.port" \
    --domains="$domains" --requests="$requests" --audit="$audit" \
    --reply-timeout-ms=500 --max-attempts=400 --seed="$run" \
    --json-out="$log_dir/fed.run$run.json" \
    2>>"$log_dir/loadgen.log" &
  loadgen_pid=$!
}
spawn_loadgen

kills_done=0
while ((kills_done < kills)); do
  sleep 0.3
  if ! kill -0 "$loadgen_pid" 2>/dev/null; then
    # The workload finished before all the kills landed: extend the sweep
    # with a fresh run (new seed, disjoint rids). Every run's JSON is
    # checked at the end.
    wait "$loadgen_pid" || {
      echo "e2e_federation: loadgen FAILED mid-sweep" >&2
      cat "$log_dir/loadgen.log" >&2
      exit 1
    }
    spawn_loadgen
    sleep 0.2
  fi
  kill -9 "${member_pids[$victim]}" 2>/dev/null || true
  wait "${member_pids[$victim]}" 2>/dev/null || true
  kills_done=$((kills_done + 1))
  restart_log="$log_dir/member.$victim.restart$kills_done.log"
  "$qosbbd" --topo=multidomain --domains="$domains" \
    --domain-index="$victim" --port="$victim_port" \
    --journal="$log_dir/member.$victim.wal" \
    2>"$restart_log" &
  member_pids[$victim]=$!
  # The restarted member must recover its journal (replayed bookings +
  # retained dedup window) and start listening before the next kill.
  ok=""
  for _ in $(seq 1 100); do
    if grep -q '^qosbbd: journal recovered' "$restart_log" 2>/dev/null &&
       grep -q '^qosbbd: listening' "$restart_log" 2>/dev/null; then
      ok=1
      break
    fi
    kill -0 "${member_pids[$victim]}" 2>/dev/null || break
    sleep 0.1
  done
  if [[ -z "$ok" ]]; then
    echo "e2e_federation: restart $kills_done of member $victim did not" \
      "recover" >&2
    cat "$restart_log" >&2
    exit 1
  fi
done

loadgen_rc=0
wait "$loadgen_pid" || loadgen_rc=$?
if [[ "$loadgen_rc" -ne 0 ]]; then
  echo "e2e_federation: loadgen exited $loadgen_rc" >&2
  cat "$log_dir/loadgen.log" >&2
  exit 1
fi

python3 - "$log_dir"/fed.run*.json <<'EOF'
import json, sys
total = {"admits": 0, "inter_admits": 0, "reconnects": 0, "resends": 0,
         "prepares": 0, "aborts": 0}
audited = 0
ranges = []
for path in sys.argv[1:]:
    d = json.load(open(path))
    ranges.append((d["rid_lo"], d["rid_hi"], path))
    assert d["lost_acked"] == 0, \
        f"{path}: lost acked admissions: {d['lost_acked']}"
    assert d["exhausted"] == 0, \
        f"{path}: ops with exhausted retries: {d['exhausted']}"
    assert d["live_flows_final"] == 0, \
        f"{path}: duplicated admissions: {d['live_flows_final']} member " \
        "flows left"
    assert d["poisoned_txns"] == 0, \
        f"{path}: poisoned transactions: {d['poisoned_txns']}"
    assert d["ack_failures"] == 0, \
        f"{path}: ack failures: {d['ack_failures']}"
    assert d["audit_ok"] != 0, \
        f"{path}: member op-log replay digests diverged"
    audited += d["audit_ok"] == 1
    assert d["admits"] > 0, f"{path}: sweep admitted nothing"
    assert d["inter_admits"] > 0, f"{path}: sweep never exercised 2PC"
    for k in total:
        total[k] += d[k]
assert audited >= 1, "no run performed the op-log replay audit"
# Every run (one per seed) must have used its own RequestIds.
ranges.sort()
for (_, hi, a), (lo, _, b) in zip(ranges, ranges[1:]):
    assert hi < lo, f"{a} and {b} share RequestIds [{lo}, {hi}]"
# Zero reconnects would mean every kill landed between runs — the sweep
# never actually crossed a member crash under live load.
assert total["reconnects"] > 0, "no coordinator op ever crossed a crash"
print(f"e2e_federation: {total['admits']} acked admits "
      f"({total['inter_admits']} inter-domain, {total['prepares']} prepares,"
      f" {total['aborts']} aborts) over {len(sys.argv) - 1} run(s), "
      f"{total['resends']} resends, {total['reconnects']} reconnects, "
      f"0 lost, 0 duplicated, digests bit-identical")
EOF

echo "e2e_federation: PASS ($kills_done SIGKILL restarts of member $victim)"
