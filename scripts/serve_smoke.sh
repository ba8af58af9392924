#!/bin/sh
# Serve smoke: build wfqserve + wfqload, boot a real server on an
# ephemeral loopback port, drive a quick closed-loop load through the
# wire protocol, and fail if any envelope was lost or duplicated (the
# load generator exits nonzero on a conservation violation). Then run
# the server-backed pipeline example against the same server.
set -eu

BIN="$(mktemp -d)"
PORTFILE="$BIN/port"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/wfqserve" ./cmd/wfqserve
go build -o "$BIN/wfqload" ./cmd/wfqload

"$BIN/wfqserve" -addr 127.0.0.1:0 -portfile "$PORTFILE" &
SERVE_PID=$!

# Wait for the portfile (the server writes it once bound).
i=0
while [ ! -s "$PORTFILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve_smoke: server never bound" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR="$(cat "$PORTFILE")"
echo "serve_smoke: server on $ADDR"

"$BIN/wfqload" -addr "$ADDR" -quick

# Open-loop profiles against the same server: Poisson, then bursty
# overload into a tight admission cap (typed rejections, conservation
# still holds).
"$BIN/wfqload" -addr "$ADDR" -profile poisson -queue smoke-poisson \
    -rate 4000 -duration 500ms -conns 16 -consumers 8
"$BIN/wfqload" -addr "$ADDR" -profile bursty -queue smoke-bursty \
    -rate 8000 -duration 500ms -conns 16 -consumers 2 -depth 128

# Every request armed with a 2 ms deadline, 128 producer connections
# and one consumer: each connection's session re-arms one completion
# record per request, and thousands of requests expire into tombstones,
# under the same per-envelope conservation audit.
"$BIN/wfqload" -addr "$ADDR" -profile closed -queue smoke-armed \
    -users 128 -conns 128 -consumers 1 -armed 1 -deadline 2ms -duration 500ms

# The pipeline demo, pointed at the external server.
go run ./examples/pipeline -addr "$ADDR" -items 5000

echo "serve_smoke: OK"
