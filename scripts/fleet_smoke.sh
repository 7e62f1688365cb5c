#!/bin/sh
# fleet_smoke.sh is the CLI drill for remote fleet execution. It boots
# two `lmbench -fleet-listen` worker daemons on ephemeral ports, runs a
# short evaluation across both with -fleet-connect, kill -9s daemon A
# as soon as the first unit has finished, and proves the fleet database
# is byte-identical (equal SHA-256) to the serial run's: the orphaned
# units are re-dispatched to daemon B. Driven by `make fleet-smoke`.
set -eu

GO=${GO:-go}
bin=$(mktemp -t lmbench-fleet.XXXXXX)
serial=$(mktemp -t lmbench-fleet-serial.XXXXXX)
fleet=$(mktemp -t lmbench-fleet-fleet.XXXXXX)
trace=$(mktemp -t lmbench-fleet-trace.XXXXXX)
errA=$(mktemp -t lmbench-fleet-errA.XXXXXX)
errB=$(mktemp -t lmbench-fleet-errB.XXXXXX)
errRun=$(mktemp -t lmbench-fleet-errRun.XXXXXX)
pidA=
pidB=
runpid=
cleanup() {
    for p in "$pidA" "$pidB" "$runpid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -f "$bin" "$serial" "$fleet" "$trace" "$errA" "$errB" "$errRun"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/lmbench

"$bin" -machine all-sim -fast -quiet -only table2,table7 -out "$serial" > /dev/null

# Each daemon announces its bound address on stderr; :0 keeps the
# smoke free of port collisions.
"$bin" -fleet-listen 127.0.0.1:0 2>"$errA" &
pidA=$!
"$bin" -fleet-listen 127.0.0.1:0 2>"$errB" &
pidB=$!
a=
b=
i=0
while [ $i -lt 100 ]; do
    a=$(sed -n 's/^fleet worker daemon on //p' "$errA")
    b=$(sed -n 's/^fleet worker daemon on //p' "$errB")
    [ -n "$a" ] && [ -n "$b" ] && break
    for p in "$pidA" "$pidB"; do
        kill -0 "$p" 2>/dev/null || { echo "fleet-smoke: daemon died at boot:" >&2; cat "$errA" "$errB" >&2; exit 1; }
    done
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$a" ] || [ -z "$b" ]; then
    echo "fleet-smoke: daemons never announced their addresses" >&2
    cat "$errA" "$errB" >&2
    exit 1
fi

# The fleet run; its trace shows when the first unit has finished.
"$bin" -machine all-sim -fast -quiet -only table2,table7 \
    -fleet-connect "$a" -fleet-connect "$b" -trace "$trace" -out "$fleet" >/dev/null 2>"$errRun" &
runpid=$!
i=0
while ! grep -q '"kind":"experiment_finished"' "$trace" 2>/dev/null; do
    if ! kill -0 "$runpid" 2>/dev/null || [ $i -ge 1000 ]; then
        echo "fleet-smoke: no unit finished while the run was live" >&2
        cat "$errRun" >&2
        exit 1
    fi
    sleep 0.01
    i=$((i + 1))
done
kill -0 "$runpid" 2>/dev/null || { echo "fleet-smoke: the run ended before daemon A could be killed" >&2; exit 1; }
kill -9 "$pidA"
wait "$pidA" 2>/dev/null || true
pidA=
if ! wait "$runpid"; then
    runpid=
    echo "fleet-smoke: fleet run failed after daemon A was killed:" >&2
    cat "$errRun" >&2
    exit 1
fi
runpid=

sum() {
    if command -v sha256sum > /dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

s=$(sum "$serial")
f=$(sum "$fleet")
if [ "$s" != "$f" ]; then
    echo "fleet-smoke: FLEET DIVERGED: serial $s != fleet $f" >&2
    exit 1
fi
echo "fleet-smoke: ok (serial == 2-daemon fleet with daemon A killed mid-run, sha256 $s)"
