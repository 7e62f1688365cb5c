#!/bin/sh
# store_smoke.sh boots a results-store daemon on ephemeral ports,
# publishes the same short evaluation twice and proves the service end
# to end:
#
#   - both publishes dedupe onto ONE content-addressed run (a
#     deterministic run is byte-identical on re-execution, through the
#     wire protocol and the store),
#   - the comparison table answers with a strong ETag and a second
#     conditional GET revalidates to 304, and
#   - the regression report between identical runs is empty.
#
# Driven by `make store-smoke`.
set -eu

GO=${GO:-go}
bin=$(mktemp -t lmbench-store-smoke.XXXXXX)
err=$(mktemp -t lmbench-store-smoke-err.XXXXXX)
dir=$(mktemp -d -t lmbench-store-smoke-dir.XXXXXX)
hdr=$(mktemp -t lmbench-store-smoke-hdr.XXXXXX)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$bin" "$err" "$dir" "$hdr"
}
trap cleanup EXIT INT TERM

$GO build -o "$bin" ./cmd/lmbench

# The daemon announces both bound addresses on stderr; :0 keeps the
# smoke free of port collisions.
"$bin" -store-listen 127.0.0.1:0 -store-dir "$dir" -store-http 127.0.0.1:0 2>"$err" &
pid=$!

ingest=
api=
i=0
while [ $i -lt 100 ]; do
    ingest=$(sed -n 's|^results store daemon on \([^ ]*\).*|\1|p' "$err")
    api=$(sed -n 's|^store api: http://\([^/ ]*\).*|\1|p' "$err")
    [ -n "$ingest" ] && [ -n "$api" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "store-smoke: daemon exited before serving:" >&2
        cat "$err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ingest" ] || [ -z "$api" ]; then
    echo "store-smoke: daemon never announced its addresses" >&2
    cat "$err" >&2
    exit 1
fi

# Publish the identical configuration twice; the announced run IDs
# must match (content-addressed dedupe).
run1=$("$bin" -machine 'Linux/i686' -fast -publish "$ingest" -run-label smoke 2>&1 >/dev/null | sed -n 's/^published run //p')
run2=$("$bin" -machine 'Linux/i686' -fast -publish "$ingest" 2>&1 >/dev/null | sed -n 's/^published run //p')
if [ -z "$run1" ] || [ "$run1" != "$run2" ]; then
    echo "store-smoke: second run '$run2' did not dedupe onto first run '$run1'" >&2
    exit 1
fi
curl -fsS "http://$api/api/runs" | grep -c '"run_id"' | grep -qx 1

# The comparison table: first GET carries a strong ETag, the second
# revalidates to 304.
url="http://$api/api/compare?ref=smoke&got=latest"
curl -fsS -D "$hdr" "$url" | grep -q '^benchmark'
etag=$(tr -d '\r' <"$hdr" | sed -n 's/^[Ee][Tt]ag: //p')
[ -n "$etag" ] || { echo "store-smoke: comparison carried no ETag" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "$url")
if [ "$code" != 304 ]; then
    echo "store-smoke: conditional re-GET returned $code, want 304" >&2
    exit 1
fi

# The regression report between identical runs is empty.
curl -fsS "http://$api/api/regressions?base=smoke&head=latest" | grep -q '^no significant changes'

echo "store-smoke: ok (run ${run1%"${run1#????????????}"} via $ingest, api $api)"
