#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end cluster failover exercise.
#
# Boots a two-shard cluster behind ecripse-router and runs a short naive-MC
# sweep through the router end to end (submit, read back, merged list, event
# stream, DELETE conflict). Then batch-submits a spread of naive-MC jobs slow
# enough to be caught mid-run, SIGKILLs one shard, and requires every job — including the dead shard's — to reach "done" through
# the router (journaled specs re-enqueue on the ring successor and re-run
# deterministically). Finally asserts the cluster metrics roll-up reflects
# the kill. Artifacts (logs, data dirs) land in $SMOKE_DIR for CI upload.
#
# Usage: scripts/cluster_smoke.sh  (from the repository root)
set -u

SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d /tmp/cluster-smoke.XXXXXX)}"
mkdir -p "$SMOKE_DIR"
ROUTER_PORT="${ROUTER_PORT:-18100}"
S1_PORT="${S1_PORT:-18101}"
S2_PORT="${S2_PORT:-18102}"
ROUTER="http://127.0.0.1:$ROUTER_PORT"
JOBS=10          # distinct seeds, so the ring spreads them across both shards
JOB_N=8000       # ~2-4s of naive MC per job: long enough to die mid-run
DONE_TIMEOUT=240 # seconds for the whole batch to finish after the kill

PIDS=()
fail() {
    echo "FAIL: $*" >&2
    echo "--- router log ---" >&2; tail -40 "$SMOKE_DIR/router.log" >&2 || true
    echo "--- s1 log ---" >&2;     tail -20 "$SMOKE_DIR/s1.log" >&2 || true
    echo "--- s2 log ---" >&2;     tail -20 "$SMOKE_DIR/s2.log" >&2 || true
    echo "artifacts: $SMOKE_DIR" >&2
    exit 1
}
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

json() { python3 -c "import sys,json; d=json.load(sys.stdin); print($1)"; }

wait_http() { # url attempts
    for _ in $(seq 1 "$2"); do
        curl -fsS -o /dev/null "$1" && return 0
        sleep 0.2
    done
    return 1
}

echo "== build =="
go build -o "$SMOKE_DIR/ecripsed" ./cmd/ecripsed || fail "build ecripsed"
go build -o "$SMOKE_DIR/ecripse-router" ./cmd/ecripse-router || fail "build ecripse-router"

echo "== boot two shards + router =="
"$SMOKE_DIR/ecripsed" -addr "127.0.0.1:$S1_PORT" -workers 2 -node-id s1 \
    -data-dir "$SMOKE_DIR/s1-data" -fsync=false -log-level warn \
    >"$SMOKE_DIR/s1.log" 2>&1 &
S1_PID=$!; PIDS+=("$S1_PID")
"$SMOKE_DIR/ecripsed" -addr "127.0.0.1:$S2_PORT" -workers 2 -node-id s2 \
    -data-dir "$SMOKE_DIR/s2-data" -fsync=false -log-level warn \
    >"$SMOKE_DIR/s2.log" 2>&1 &
PIDS+=("$!")
"$SMOKE_DIR/ecripse-router" -addr "127.0.0.1:$ROUTER_PORT" \
    -shards "s1=http://127.0.0.1:$S1_PORT,s2=http://127.0.0.1:$S2_PORT" \
    -data-dir "$SMOKE_DIR/router-data" -fsync=false \
    -probe-interval 500ms -probe-fails 2 \
    >"$SMOKE_DIR/router.log" 2>&1 &
PIDS+=("$!")

wait_http "http://127.0.0.1:$S1_PORT/healthz" 50 || fail "s1 never answered /healthz"
wait_http "http://127.0.0.1:$S2_PORT/healthz" 50 || fail "s2 never answered /healthz"
wait_http "$ROUTER/healthz" 50 || fail "router never answered /healthz"

# The sweep runs before the batch, so its points neither queue behind the
# slow jobs nor let the shards drain them before the kill.
echo "== sweep through the router: submit, read back, list, stream, conflict =="
SWEEP='{"base":{"estimator":"naive","n":200,"seed":77},"vdd":{"values":[0.7,0.8,0.9]}}'
SRESP=$(curl -fsS -XPOST -H 'Content-Type: application/json' \
    -d "$SWEEP" "$ROUTER/v1/sweeps") || fail "sweep submit"
SID=$(echo "$SRESP" | json 'd["id"]') || fail "sweep submit response malformed: $SRESP"
case "$SID" in
    s1-sw*|s2-sw*) ;;
    *) fail "sweep ID $SID carries no shard prefix" ;;
esac
[ "$(curl -fsS "$ROUTER/v1/sweeps/$SID" | json 'd["num_points"]')" = "3" ] \
    || fail "sweep $SID not readable by ID through the router"
[ "$(curl -fsS "$ROUTER/v1/sweeps" | json "any(s['id'] == '$SID' for s in d)")" = "True" ] \
    || fail "sweep $SID missing from the merged GET /v1/sweeps"
# The stream ends by itself once the sweep is terminal: the terminal
# "sweep" event, then "done" last.
EVENTS=$(curl -fsS -N --max-time 120 "$ROUTER/v1/sweeps/$SID/events" | sed -n 's/^event: //p' | tr '\n' ' ') \
    || fail "sweep $SID event stream"
case "$EVENTS" in
    *"sweep "*"done ") ;;
    *) fail "sweep $SID events did not end with sweep ... done: $EVENTS" ;;
esac
SSTATE=$(curl -fsS "$ROUTER/v1/sweeps/$SID" | json 'd["state"]')
[ "$SSTATE" = "done" ] || fail "sweep $SID ended '$SSTATE'"
SDEL=$(curl -s -o /dev/null -w '%{http_code}' -XDELETE "$ROUTER/v1/sweeps/$SID")
[ "$SDEL" = "409" ] || fail "DELETE of finished sweep $SID answered $SDEL, want 409"
echo "sweep $SID done through the router; events: $EVENTS"

echo "== batch submit $JOBS naive-MC jobs through the router =="
BATCH="["
for i in $(seq 1 "$JOBS"); do
    [ "$i" -gt 1 ] && BATCH+=","
    BATCH+="{\"estimator\":\"naive\",\"n\":$JOB_N,\"seed\":$i}"
done
BATCH+="]"
RESP=$(curl -fsS -XPOST -H 'Content-Type: application/json' \
    -d "$BATCH" "$ROUTER/v1/jobs:batch") || fail "batch submit"
mapfile -t IDS < <(echo "$RESP" | json '"\n".join(it["job"]["id"] for it in d)') \
    || fail "batch response malformed: $RESP"
[ "${#IDS[@]}" -eq "$JOBS" ] || fail "batch returned ${#IDS[@]} jobs, want $JOBS: $RESP"

S1_JOBS=0; S2_JOBS=0
for id in "${IDS[@]}"; do
    case "$id" in
        s1-*) S1_JOBS=$((S1_JOBS + 1)) ;;
        s2-*) S2_JOBS=$((S2_JOBS + 1)) ;;
        *) fail "job ID $id carries no shard prefix" ;;
    esac
done
echo "ring spread: $S1_JOBS jobs on s1, $S2_JOBS on s2"
[ "$S1_JOBS" -gt 0 ] && [ "$S2_JOBS" -gt 0 ] \
    || fail "ring placed nothing on one shard — the kill would exercise nothing"

echo "== trace propagation: client traceparent -> router -> shard =="
TP_ID="4bf92f3577b34da6a3ce929d0e0e4736"
TRESP=$(curl -fsS -XPOST -H 'Content-Type: application/json' \
    -H "Traceparent: 00-$TP_ID-00f067aa0ba902b7-01" \
    -d '{"estimator":"naive","n":200,"seed":4242}' "$ROUTER/v1/jobs") \
    || fail "traced submit"
TID=$(echo "$TRESP" | json 'd["id"]') || fail "traced submit response malformed: $TRESP"
for _ in $(seq 1 100); do
    TSTATE=$(curl -fsS "$ROUTER/v1/jobs/$TID" | json 'd["state"]' 2>/dev/null || echo "?")
    [ "$TSTATE" = "done" ] && break
    sleep 0.2
done
[ "$TSTATE" = "done" ] || fail "traced job $TID stuck in '$TSTATE'"
# The trace served through the router carries the client's trace ID and the
# shard-side engine span — one tree, one ID, across the dispatch hop.
TJSON=$(curl -fsS "$ROUTER/v1/jobs/$TID/trace") || fail "router trace fetch"
[ "$(echo "$TJSON" | json 'd["trace_id"]')" = "$TP_ID" ] \
    || fail "router-served trace lost the client trace ID: $TJSON"
[ "$(echo "$TJSON" | json 'any(s["name"]=="run" for s in d["spans"])')" = "True" ] \
    || fail "router-served trace lacks the shard engine span: $TJSON"
# And the owning shard itself adopted the same ID rather than minting one.
case "$TID" in s1-*) SHARD_URL="http://127.0.0.1:$S1_PORT" ;; *) SHARD_URL="http://127.0.0.1:$S2_PORT" ;; esac
DIRECT_ID=$(curl -fsS "$SHARD_URL/v1/jobs/$TID/trace" | json 'd["trace_id"]') \
    || fail "direct shard trace fetch"
[ "$DIRECT_ID" = "$TP_ID" ] || fail "shard minted its own trace ID $DIRECT_ID, want $TP_ID"
echo "trace $TP_ID propagated router -> $(echo "$TID" | cut -d- -f1)"

echo "== SIGKILL s1 mid-run =="
sleep 1 # let s1 start running its share
kill -9 "$S1_PID" || fail "kill s1"

echo "== wait for every job to complete through the router =="
DEADLINE=$(( $(date +%s) + DONE_TIMEOUT ))
for id in "${IDS[@]}"; do
    while :; do
        STATE=$(curl -fsS "$ROUTER/v1/jobs/$id" | json 'd["state"]' 2>/dev/null || echo "?")
        [ "$STATE" = "done" ] && break
        [ "$STATE" = "failed" ] || [ "$STATE" = "canceled" ] && fail "job $id reached $STATE"
        [ "$(date +%s)" -ge "$DEADLINE" ] && fail "job $id stuck in '$STATE' after ${DONE_TIMEOUT}s"
        sleep 0.5
    done
done
echo "all $JOBS jobs done (including the $S1_JOBS from the killed shard)"

echo "== assert the metrics roll-up reflects the failover =="
PROM=$(curl -fsS "$ROUTER/metrics?format=prometheus") || fail "prometheus scrape"
echo "$PROM" | grep -q 'ecripse_router_shard_up{shard="s1"} 0' \
    || fail "s1 still reported up after the kill"
echo "$PROM" | grep -q 'ecripse_router_shard_up{shard="s2"} 1' \
    || fail "s2 not reported up"
echo "$PROM" | grep -q 'ecripsed_jobs{shard="s2",state="done"}' \
    || fail "no shard-labeled job series for s2"
REDISPATCHED=$(echo "$PROM" | sed -n 's/^ecripse_router_redispatched_total //p')
[ "${REDISPATCHED:-0}" -ge "$S1_JOBS" ] \
    || fail "redispatched_total=$REDISPATCHED, want >= $S1_JOBS"
DOWN=$(echo "$PROM" | sed -n 's/^ecripse_router_shard_down_events_total //p')
[ "${DOWN:-0}" -ge 1 ] || fail "no shard-down event recorded"

echo "PASS: $JOBS jobs completed across the kill; $REDISPATCHED redispatched"
