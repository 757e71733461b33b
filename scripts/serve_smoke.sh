#!/bin/sh
# serve_smoke.sh — boot hpmvmd, run the client-based end-to-end checks
# (scripts/servesmoke, built on internal/client), then verify graceful
# SIGTERM shutdown — once for a single server, once for a 2-worker
# process fleet (byte-identity then spans worker processes, and the
# checker pins its probe to each of them). All protocol assertions —
# cache byte-identity, warm-start dispositions, sampled estimates,
# stream reassembly, stable error codes — live in the Go checker; this
# wrapper only owns process lifecycle.
#
# Usage: scripts/serve_smoke.sh [port]   (default 18080; the fleet
# coordinator takes port+10)
set -eu

PORT="${1:-18080}"
TMP="$(mktemp -d)"
PID=
trap '[ -z "$PID" ] || kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "serve-smoke: building hpmvmd + servesmoke"
go build -o "$TMP/hpmvmd" ./cmd/hpmvmd
go build -o "$TMP/servesmoke" ./scripts/servesmoke

# smoke NAME PORT EXTRA HPMVMD-ARGS...: boot hpmvmd with the given
# arguments, wait for liveness, run the protocol checker and then EXTRA
# (a command handed the address), SIGTERM the daemon and wait for it —
# and, for a fleet, its whole process tree — to exit.
smoke() {
    name="$1" addr="127.0.0.1:$2" extra="$3"
    shift 3
    "$TMP/hpmvmd" -addr "$addr" "$@" &
    PID=$!

    # The daemon calibrates every workload at startup; a coordinator
    # opens its listener only after every worker forked, published its
    # port and answered healthz.
    i=0
    until curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 150 ]; then
            echo "serve-smoke: FAIL — $name did not become healthy" >&2
            exit 1
        fi
        sleep 0.2
    done

    echo "serve-smoke: protocol checks against the $name"
    "$TMP/servesmoke" -url "http://$addr"
    "$extra" "$addr"

    echo "serve-smoke: draining the $name"
    kill -TERM "$PID"
    i=0
    while kill -0 "$PID" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 150 ]; then
            echo "serve-smoke: FAIL — $name did not exit on SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$PID" 2>/dev/null || true
    PID=
}

fleet_checks() {
    if ! curl -sf "http://$1/v1/healthz" | grep -q '"workers":2'; then
        echo "serve-smoke: FAIL — healthz does not report 2 workers" >&2
        exit 1
    fi
}

smoke "single server" "$PORT" : -cache 16
smoke "2-worker fleet" "$((PORT + 10))" fleet_checks -workers 2 -jobs 1

echo "serve-smoke: OK — protocol checks passed on the single server and byte-identically across the 2-worker fleet, clean drains"
