#!/usr/bin/env bash
# CI smoke test for the SCF job server: start scfd, kill -9 it mid-job,
# restart it over the same spool, submit a burst of small jobs beside the
# resumed one, verify every burst job converges and the killed job
# resumes from its checkpoint and converges, and assert a clean graceful
# drain. Exits non-zero on any failure.
set -euo pipefail

ADDR=127.0.0.1:8089
BASE="http://$ADDR"
SPOOL="$(mktemp -d)"
WORK="$(mktemp -d)"
SCFD="$WORK/scfd"
SCFD_PID=""

cleanup() {
    [ -n "$SCFD_PID" ] && kill -9 "$SCFD_PID" 2>/dev/null || true
    rm -rf "$SPOOL" "$WORK"
}
trap cleanup EXIT

go build -o "$SCFD" ./cmd/scfd

start_scfd() {
    "$SCFD" -addr "$ADDR" -spool "$SPOOL" -workers 2 \
        -weights acme=3,blue=1,guest=1 &
    SCFD_PID=$!
    for _ in $(seq 1 100); do
        if curl -fs "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "serve_smoke: scfd did not become healthy" >&2
    exit 1
}

json_field() { # json_field <file-or-> <field>: first string/number value
    grep -o "\"$2\":\"\?[^,\"}]*\"\?" "$1" | head -1 | sed 's/.*://; s/"//g'
}

submit() { # submit <spec>: print the new job's id; honour 429 Retry-After, 20 tries
    local code retry
    for _ in $(seq 1 20); do
        code="$(curl -s -o "$WORK/body" -D "$WORK/headers" -w '%{http_code}' \
            -X POST -d "$1" "$BASE/v1/jobs")"
        case "$code" in
        202)
            grep -o '"id":"[^"]*"' "$WORK/body" | cut -d'"' -f4
            return 0 ;;
        429)
            retry="$(grep -i '^retry-after:' "$WORK/headers" | tr -dc '0-9')"
            sleep "${retry:-1}" ;;
        *)
            echo "serve_smoke: submit $1: HTTP $code: $(cat "$WORK/body")" >&2
            return 1 ;;
        esac
    done
    echo "serve_smoke: submit $1 still refused after 20 tries" >&2
    return 1
}

echo "== phase 1: start scfd, submit a long job, kill -9 mid-run =="
start_scfd

LONG_SPEC='{"tenant":"acme","molecule":"waters:6","basis":"sto-3g"}'
SUBMIT="$(curl -fs -X POST -d "$LONG_SPEC" "$BASE/v1/jobs")"
LONG_ID="$(echo "$SUBMIT" | grep -o '"id":"[^"]*"' | cut -d'"' -f4)"
[ -n "$LONG_ID" ] || { echo "serve_smoke: submit failed: $SUBMIT" >&2; exit 1; }
echo "long job: $LONG_ID"

# Wait for at least one checkpointed iteration, then kill without mercy.
for _ in $(seq 1 300); do
    [ -f "$SPOOL/$LONG_ID/ckpt.json" ] && break
    sleep 0.2
done
[ -f "$SPOOL/$LONG_ID/ckpt.json" ] || { echo "serve_smoke: no checkpoint appeared" >&2; exit 1; }
CKPT_ITER="$(json_field "$SPOOL/$LONG_ID/ckpt.json" iteration)"
echo "checkpoint at iteration $CKPT_ITER; killing scfd (SIGKILL)"
kill -9 "$SCFD_PID"
wait "$SCFD_PID" 2>/dev/null || true
SCFD_PID=""
[ ! -f "$SPOOL/$LONG_ID/result.json" ] || { echo "serve_smoke: job finished before the kill; smoke needs a longer job" >&2; exit 1; }

echo "== phase 2: restart over the same spool, submit a burst, expect resume =="
start_scfd

TENANTS=(acme blue guest)
MOLECULES=(h2 water waters:2)
BASES=(sto-3g 6-31g)
BURST_IDS=()
for i in $(seq 0 29); do
    spec="{\"tenant\":\"${TENANTS[i % 3]}\",\"molecule\":\"${MOLECULES[i / 3 % 3]}\",\"basis\":\"${BASES[i / 9 % 2]}\"}"
    id="$(submit "$spec")" || exit 1
    [ -n "$id" ] || { echo "serve_smoke: no id for $spec" >&2; exit 1; }
    BURST_IDS+=("$id")
done
echo "burst: submitted ${#BURST_IDS[@]} jobs"

# Every burst job must end done and converged.
for id in "${BURST_IDS[@]}"; do
    for _ in $(seq 1 600); do
        JOB="$(curl -fs "$BASE/v1/jobs/$id")" ||
            { echo "serve_smoke: status of burst job $id unavailable" >&2; exit 1; }
        case "$JOB" in *'"state":"done"'* | *'"state":"failed"'*) break ;; esac
        sleep 0.5
    done
    case "$JOB" in *'"state":"done"'*) ;; *)
        echo "serve_smoke: burst job $id did not finish: $JOB" >&2; exit 1 ;;
    esac
    case "$JOB" in *'"converged":true'*) ;; *)
        echo "serve_smoke: burst job $id did not converge: $JOB" >&2; exit 1 ;;
    esac
done
echo "burst: all ${#BURST_IDS[@]} jobs done and converged"

# The killed job must finish too — resumed from its checkpoint.
for _ in $(seq 1 600); do
    [ -f "$SPOOL/$LONG_ID/result.json" ] && break
    sleep 0.5
done
RESULT="$SPOOL/$LONG_ID/result.json"
[ -f "$RESULT" ] || { echo "serve_smoke: killed job never finished after restart" >&2; exit 1; }
grep -q '"converged":true' "$RESULT" || { echo "serve_smoke: resumed job did not converge: $(cat "$RESULT")" >&2; exit 1; }
RESUMED_FROM="$(json_field "$RESULT" resumedFrom)"
[ -n "$RESUMED_FROM" ] && [ "$RESUMED_FROM" -ge 1 ] || { echo "serve_smoke: job did not resume from a checkpoint: $(cat "$RESULT")" >&2; exit 1; }
echo "killed job resumed from iteration $RESUMED_FROM and converged"

echo "== phase 3: graceful drain =="
kill -TERM "$SCFD_PID"
DRAIN_OK=0
for _ in $(seq 1 120); do
    if ! kill -0 "$SCFD_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
    sleep 0.5
done
if [ "$DRAIN_OK" != 1 ]; then echo "serve_smoke: scfd did not drain within 60s" >&2; exit 1; fi
STATUS=0
wait "$SCFD_PID" 2>/dev/null || STATUS=$?
SCFD_PID=""
[ "$STATUS" -eq 0 ] || { echo "serve_smoke: scfd exited with status $STATUS" >&2; exit 1; }

echo "serve_smoke: OK"
