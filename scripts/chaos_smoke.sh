#!/bin/sh
# chaos_smoke.sh proves the distributed layer survives real chaos, end
# to end with real processes:
#
#   - every publish travels through a deterministic lossy proxy
#     (lmbench -chaos-net) injecting frame delays, drops, truncations,
#     duplicates and flips at a >=10% frame fault rate,
#   - the store daemon is kill -9'd while its first ingest session is
#     live, then restarted on the SAME address (its startup scrub
#     sweeps the debris the kill left behind),
#   - two identical `lmreport -publish` runs both land despite all of
#     the above and dedupe onto ONE content-addressed run whose
#     database is byte-identical to the committed golden
#     results/simulated.db, and
#   - `lmbench -store-scrub` over the survivor reports a clean store.
#
# Driven by `make chaos-net`.
set -eu

GO=${GO:-go}
bin=$(mktemp -t lmbench-chaos-smoke.XXXXXX)
lmr=$(mktemp -t lmreport-chaos-smoke.XXXXXX)
err=$(mktemp -t lmbench-chaos-err1.XXXXXX)
err2=$(mktemp -t lmbench-chaos-err2.XXXXXX)
perr=$(mktemp -t lmbench-chaos-proxy.XXXXXX)
pout=$(mktemp -t lmbench-chaos-proxyout.XXXXXX)
puberr=$(mktemp -t lmbench-chaos-pub.XXXXXX)
puberr2=$(mktemp -t lmbench-chaos-pub2.XXXXXX)
dir=$(mktemp -d -t lmbench-chaos-dir.XXXXXX)
got=$(mktemp -t lmbench-chaos-got.XXXXXX)
killed="$dir/.daemon-killed"
dpid=
ppid=
wpid=
pubpid=
cleanup() {
    for p in "$dpid" "$ppid" "$wpid" "$pubpid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$bin" "$lmr" "$err" "$err2" "$perr" "$pout" "$puberr" "$puberr2" "$dir" "$got"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/lmbench
$GO build -o "$lmr" ./cmd/lmreport

# Daemon #1 (doomed): ephemeral ingest + HTTP ports, announced on
# stderr. The HTTP side exposes /metrics, which is how the killer below
# knows an ingest session is live.
"$bin" -store-listen 127.0.0.1:0 -store-dir "$dir" -store-http 127.0.0.1:0 2>"$err" &
dpid=$!
ingest=
api=
i=0
while [ $i -lt 100 ]; do
    ingest=$(sed -n 's|^results store daemon on \([^ ]*\).*|\1|p' "$err")
    api=$(sed -n 's|^store api: http://\([^/ ]*\).*|\1|p' "$err")
    [ -n "$ingest" ] && [ -n "$api" ] && break
    kill -0 "$dpid" 2>/dev/null || { echo "chaos-smoke: daemon died at boot:" >&2; cat "$err" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ingest" ] && [ -n "$api" ] || { echo "chaos-smoke: daemon never announced" >&2; cat "$err" >&2; exit 1; }

# The chaos proxy in front of the ingest address: a 30% frame fault
# rate (>= the 10% floor), seeded so the fault stream is reproducible,
# budgeted so the chaos eventually stops and retries converge. Delays
# dominate the mix to hold ingest sessions open long enough for the
# kill -9 to land mid-stream.
plan='seed=7,delay=0.20,delayfor=50ms,drop=0.04,trunc=0.03,dup=0.02,flip=0.01,budget=12'
"$bin" -chaos-net "$plan" -chaos-listen 127.0.0.1:0 -chaos-target "$ingest" >"$pout" 2>"$perr" &
ppid=$!
proxy=
i=0
while [ $i -lt 100 ]; do
    proxy=$(sed -n 's|^chaos proxy \([^ ]*\).*|\1|p' "$pout")
    [ -n "$proxy" ] && break
    kill -0 "$ppid" 2>/dev/null || { echo "chaos-smoke: proxy died at boot:" >&2; cat "$perr" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$proxy" ] || { echo "chaos-smoke: proxy never announced" >&2; exit 1; }

# The killer: the moment /metrics shows a live ingest session, the
# daemon dies with kill -9 — no drain, no fsync courtesy, exactly the
# crash the scrub machinery exists for.
(
    j=0
    while [ $j -lt 3000 ]; do
        n=$(curl -s "http://$api/metrics" 2>/dev/null |
            sed -n 's/^lmbench_store_ingest_sessions_total \([0-9.]*\).*/\1/p')
        case $n in
        '' | 0 | 0.*) ;;
        *)
            kill -9 "$dpid" 2>/dev/null || true
            : >"$killed"
            exit 0
            ;;
        esac
        sleep 0.02
        j=$((j + 1))
    done
) &
wpid=$!

# The first evaluation, publishing through the chaos with retries.
# Safe to retry blindly: runs are content-addressed, so a half-landed
# publish is finished idempotently by the next attempt.
"$lmr" -publish "$proxy" -publish-retries 15 -run-label chaos 2>"$puberr" >/dev/null &
pubpid=$!

# Wait for the kill, then restart the daemon on the SAME ingest
# address — its startup scrub sweeps the torn-write debris. The port
# may linger briefly after the kill, so creep up on the bind.
i=0
while [ ! -f "$killed" ] && [ $i -lt 600 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -f "$killed" ] || { echo "chaos-smoke: daemon was never killed mid-ingest" >&2; cat "$puberr" >&2; exit 1; }
wait "$dpid" 2>/dev/null || true
dpid=
wpid=
restarted=
i=0
while [ $i -lt 20 ]; do
    : >"$err2"
    "$bin" -store-listen "$ingest" -store-dir "$dir" -store-http 127.0.0.1:0 2>"$err2" &
    dpid=$!
    j=0
    while [ $j -lt 50 ]; do
        if grep -q '^results store daemon on ' "$err2" && grep -q '^store api: ' "$err2"; then
            restarted=1
            break
        fi
        kill -0 "$dpid" 2>/dev/null || break
        sleep 0.1
        j=$((j + 1))
    done
    [ -n "$restarted" ] && break
    kill "$dpid" 2>/dev/null || true
    dpid=
    sleep 0.2
    i=$((i + 1))
done
[ -n "$restarted" ] || { echo "chaos-smoke: could not rebind $ingest after the kill:" >&2; cat "$err2" >&2; exit 1; }
grep -q '^startup scrub: ' "$err2" || { echo "chaos-smoke: restarted daemon skipped its startup scrub" >&2; exit 1; }
api=$(sed -n 's|^store api: http://\([^/ ]*\).*|\1|p' "$err2")

# The first publish must converge onto the restarted daemon.
wait "$pubpid" || { pubpid=; echo "chaos-smoke: first publish failed:" >&2; cat "$puberr" >&2; exit 1; }
pubpid=
run1=$(sed -n 's/^published run //p' "$puberr")
[ -n "$run1" ] || { echo "chaos-smoke: first publish announced no run" >&2; cat "$puberr" >&2; exit 1; }

# The identical evaluation again, still through the proxy: it must
# dedupe onto the same content-addressed run.
run2=$("$lmr" -publish "$proxy" -publish-retries 15 2>&1 >/dev/null |
    tee "$puberr2" | sed -n 's/^published run //p')
if [ -z "$run2" ] || [ "$run2" != "$run1" ]; then
    echo "chaos-smoke: second run '$run2' did not dedupe onto first run '$run1'" >&2
    cat "$puberr2" >&2
    exit 1
fi
count=$(curl -fsS "http://$api/api/runs" | grep -c '"run_id"')
[ "$count" = 1 ] || { echo "chaos-smoke: store holds $count runs, want 1 (no dedupe)" >&2; exit 1; }

# The survivor's database is byte-identical to the committed golden.
curl -fsS "http://$api/api/runs/latest/db" -o "$got"
cmp -s "$got" results/simulated.db ||
    { echo "chaos-smoke: stored run differs from results/simulated.db" >&2; exit 1; }

# Graceful drain on SIGTERM, then an offline scrub must report clean.
kill -TERM "$dpid"
wait "$dpid" 2>/dev/null || true
dpid=
"$bin" -store-scrub -store-dir "$dir" | grep -q 'store clean' ||
    { echo "chaos-smoke: post-crash scrub found damage" >&2; "$bin" -store-scrub -store-dir "$dir" >&2 || true; exit 1; }

# The proxy reports what it injected on the way out.
kill -TERM "$ppid" 2>/dev/null || true
wait "$ppid" 2>/dev/null || true
ppid=
stats=$(sed -n 's/^chaos proxy: //p' "$perr")
echo "chaos-smoke: ok (run deduped, db byte-identical, store clean; $stats)"
