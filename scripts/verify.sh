#!/usr/bin/env bash
# Tier-1 verification: build, tests, formatting and lints — fully offline.
# The workspace has no external dependencies, so no network is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> fault_sweep smoke (fixed seed, all five protocols must meet demand)"
cargo run --release -q -p dmf-bench --bin fault_sweep -- --seed 42 --fault-rate 0.05 --trials 1 >/dev/null

echo "==> simulator golden gate (plain, traced, multi-pass, pinned and fault-injected runs byte-identical to results/sim_golden.txt)"
{
  target/release/dmfstream simulate 2:1:1:1:1:1:9 --demand 20 --trace 2>&1
  target/release/dmfstream simulate 2:1:1:1:1:1:9 --demand 20 --storage 3 2>&1
  target/release/dmfstream fault 2:1:1:1:1:1:9 --demand 20 --seed 42 --fault-rate 0.05 \
    --backend row-column --trace 2>&1
  target/release/fault_sweep --seed 42 --fault-rate 0.05 --trials 1 2>&1
} > /tmp/dmf_sim_golden.txt
diff results/sim_golden.txt /tmp/dmf_sim_golden.txt

echo "==> examples golden gate (stdout of every example byte-identical to results/examples_golden.txt)"
for example in quickstart pcr_master_mix storage_constrained chip_walkthrough dilution_engine; do
  cargo run --release -q --example "$example"
done > /tmp/dmf_examples_golden.txt
diff results/examples_golden.txt /tmp/dmf_examples_golden.txt

echo "==> dmfstream check --all-protocols (static verifier, exit 1 on any error)"
cargo run --release -q --bin dmfstream -- check --all-protocols

echo "==> dmfstream check --all-protocols --backend row-column (PIN/* rules on the paper oracles)"
cargo run --release -q --bin dmfstream -- check --all-protocols --backend row-column

echo "==> dmfstream check --all-protocols --deep (FLOW/FEAS dataflow analyses, strictest gate)"
cargo run --release -q --bin dmfstream -- check --all-protocols --deep --deny warn \
  --json /tmp/dmf_check_findings.json > /tmp/dmf_check_deep.txt
grep -q '^findings json parse OK: ' /tmp/dmf_check_deep.txt || {
  echo "deep check: --json round-trip did not report back"
  exit 1
}
grep -q '"version":1' /tmp/dmf_check_findings.json || {
  echo "deep check: findings JSON missing version header"
  exit 1
}

echo "==> broken-pipe gate (stdout closed early by head: exit 0, empty stderr)"
set +e
target/release/dmfstream simulate 2:1:1:1:1:1:9 --demand 2000 --trace 2>/tmp/dmf_epipe.err | head -1 >/dev/null
epipe_code=${PIPESTATUS[0]}
set -e
[ "$epipe_code" -eq 0 ] && [ ! -s /tmp/dmf_epipe.err ] || {
  echo "broken-pipe gate: exit $epipe_code, stderr: $(head -c 300 /tmp/dmf_epipe.err)"
  exit 1
}

echo "==> infeasible request gate (FEAS001 must reject 1:2 pre-planning, exit 1)"
if infeasible_out=$(target/release/dmfstream check 1:2 --demand 4 2>&1); then
  echo "infeasible gate: check 1:2 exited 0; output: $infeasible_out"
  exit 1
fi
printf '%s' "$infeasible_out" | grep -q 'FEAS001' || {
  echo "infeasible gate: diagnostics did not cite FEAS001: $infeasible_out"
  exit 1
}
if target/release/dmfstream plan 1:2 --demand 4 >/dev/null 2>&1; then
  echo "infeasible gate: plan 1:2 exited 0"
  exit 1
fi

echo "==> bench_backends (demand met under every backend; direct yield bounds pinned yields; wear-aware peak < wear-blind; every figure equals results/BENCH_backends.json)"
cargo run --release -q -p dmf-bench --bin bench_backends -- /tmp/dmf_bench_backends.json >/dev/null

echo "==> batch determinism smoke (check --jobs 4 output must match --jobs 1)"
cargo run --release -q --bin dmfstream -- check --all-protocols --jobs 1 > /tmp/dmf_check_j1.txt
cargo run --release -q --bin dmfstream -- check --all-protocols --jobs 4 > /tmp/dmf_check_j4.txt
diff /tmp/dmf_check_j1.txt /tmp/dmf_check_j4.txt

echo "==> registry gate (--list-algorithms names the four paper baselines; unknown --algo and --scheduler exit 2 typed)"
algo_list=$(target/release/dmfstream plan --list-algorithms)
for key in mm rma mtcs rsm; do
  printf '%s\n' "$algo_list" | grep -Eq "^  $key " || {
    echo "registry gate: --list-algorithms is missing '$key': $algo_list"
    exit 1
  }
done
target/release/dmfstream plan --list-schedulers | grep -q '^  srs ' || {
  echo "registry gate: --list-schedulers is missing srs"
  exit 1
}
set +e
unknown_out=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 4 --algo nonesuch 2>&1)
unknown_code=$?
set -e
[ "$unknown_code" -eq 2 ] || {
  echo "registry gate: unknown --algo exited $unknown_code, expected 2"
  exit 1
}
printf '%s' "$unknown_out" | grep -q 'unknown mixing algorithm "nonesuch" (registered: mm, rma, mtcs, rsm)' || {
  echo "registry gate: unknown --algo error was not typed: $unknown_out"
  exit 1
}
printf '%s' "$unknown_out" | grep -q 'list-algorithms' || {
  echo "registry gate: unknown --algo error did not suggest --list-algorithms: $unknown_out"
  exit 1
}
# The scheduler registry is the second instance of the same generic type:
# its unknown-name error must carry its own kind and keys.
set +e
unknown_sched_out=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 4 --scheduler nonesuch 2>&1)
unknown_sched_code=$?
set -e
[ "$unknown_sched_code" -eq 2 ] || {
  echo "registry gate: unknown --scheduler exited $unknown_sched_code, expected 2"
  exit 1
}
printf '%s' "$unknown_sched_out" | grep -q 'unknown scheduler "nonesuch" (registered: mms, srs)' || {
  echo "registry gate: unknown --scheduler error was not typed: $unknown_sched_out"
  exit 1
}

echo "==> bench_plan (warm hit >= 10x cold and >= half the committed speedup; >= 500 batch requests; jobs curve scaled to this machine)"
# bench_plan reads the committed results/BENCH_plan.json (which must carry
# a jobs_curve) and enforces every bound itself, exiting non-zero on a miss.
cargo run --release -q -p dmf-bench --bin bench_plan -- /tmp/dmf_bench_plan.json >/dev/null

echo "==> bench_obs (tracing overhead gate: enabled sweep <= 10% over disabled)"
cargo run --release -q -p dmf-bench --bin bench_obs -- /tmp/dmf_bench_obs.json >/dev/null

echo "==> profile smoke (exporters: folded stacks well-formed, chrome trace parses back)"
profile_out=$(target/release/dmfstream profile 2:1:1:1:1:1:9 --demand 20 \
  --folded /tmp/dmf_profile.folded --chrome /tmp/dmf_profile.trace.json)
printf '%s\n' "$profile_out" | grep -q '^chrome trace parse OK: [1-9][0-9]* events$' || {
  echo "profile smoke: chrome trace did not parse back: $profile_out"
  exit 1
}
[ -s /tmp/dmf_profile.folded ] || { echo "profile smoke: folded output empty"; exit 1; }
grep -Eq '^[A-Za-z0-9_]+(;[A-Za-z0-9_]+)* [0-9]+$' /tmp/dmf_profile.folded || {
  echo "profile smoke: folded stacks malformed"
  exit 1
}
grep -q '^dmfstream_profile;engine_plan' /tmp/dmf_profile.folded || {
  echo "profile smoke: folded stacks missing the engine_plan tree"
  exit 1
}

echo "==> multi-pass profile smoke (per-pass forest/schedule spans nest under stage_split_passes)"
target/release/dmfstream profile 2:1:1:1:1:1:9 --demand 20 --storage 3 \
  --folded /tmp/dmf_profile_multipass.folded >/dev/null
for stage in stage_build_forest stage_schedule; do
  grep -q "^dmfstream_profile;engine_plan;stage_split_passes;$stage " /tmp/dmf_profile_multipass.folded || {
    echo "multi-pass profile smoke: no $stage stack under stage_split_passes"
    exit 1
  }
done

echo "==> serve smoke (served plan must match dmfstream plan; clean shutdown)"
serve_log=$(mktemp)
target/release/dmfstream serve --port 0 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "^listening on " "$serve_log" && break
  sleep 0.05
done
serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -1)
[ -n "$serve_addr" ] || { echo "serve smoke: server never announced its address"; exit 1; }
plan_summary=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 20 | head -1)
served=$(target/release/dmfstream request 2:1:1:1:1:1:9 --demand 20 --connect "$serve_addr")
served_summary=$(printf '%s' "$served" | sed -n 's/.*"summary":"\([^"]*\)".*/\1/p')
[ "$served_summary" = "$plan_summary" ] || {
  echo "serve smoke: served summary '$served_summary' != plan output '$plan_summary'"
  exit 1
}
stats=$(target/release/dmfstream request --op stats --connect "$serve_addr")
printf '%s' "$stats" | grep -q '"planned":1' || {
  echo "serve smoke: stats did not report the planned request: $stats"
  exit 1
}
# A named algorithm must thread through the protocol to the server's
# engine: the served plan must match the local plan under the same --algo.
plan_rma=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 20 --algo rma)
plan_rma_summary=${plan_rma%%$'\n'*}
served_rma=$(target/release/dmfstream request 2:1:1:1:1:1:9 --demand 20 --algo rma --connect "$serve_addr")
served_rma_summary=$(printf '%s' "$served_rma" | sed -n 's/.*"summary":"\([^"]*\)".*/\1/p')
[ "$served_rma_summary" = "$plan_rma_summary" ] || {
  echo "serve smoke: served --algo rma summary '$served_rma_summary' != plan output '$plan_rma_summary'"
  exit 1
}
# `request` ships raw parts so the server-side feasibility gate answers.
rejected=$(target/release/dmfstream request 1:2 --demand 4 --connect "$serve_addr" || true)
printf '%s' "$rejected" | grep -q '"error":"infeasible"' || {
  echo "serve smoke: 1:2 was not rejected as infeasible: $rejected"
  exit 1
}
printf '%s' "$rejected" | grep -q 'FEAS001' || {
  echo "serve smoke: infeasible rejection did not cite FEAS001: $rejected"
  exit 1
}
stats=$(target/release/dmfstream request --op stats --connect "$serve_addr")
printf '%s' "$stats" | grep -q '"infeasible":1' || {
  echo "serve smoke: stats did not count the infeasible request: $stats"
  exit 1
}
# A hostile line of 200k '[' must be answered bad_request, not overflow
# the connection thread's stack and abort the server.
exec 3<>"/dev/tcp/${serve_addr%:*}/${serve_addr##*:}"
{ head -c 200000 /dev/zero | tr '\0' '['; echo; } >&3
hostile_reply=""
read -r -t 10 hostile_reply <&3 || true
exec 3<&-
printf '%s' "$hostile_reply" | grep -q '"error":"bad_request"' || {
  echo "serve smoke: deeply nested line was not answered bad_request: $hostile_reply"
  exit 1
}
# A 2 MiB line with no newline passes the 1 MiB line cap: it must be
# answered too_large and then EOF. The server may hang up before the last
# bytes are written, so the write is allowed to fail.
exec 3<>"/dev/tcp/${serve_addr%:*}/${serve_addr##*:}"
{ head -c 2097152 /dev/zero | tr '\0' 'x' >&3; } 2>/dev/null || true
oversized_reply=""
read -r -t 10 oversized_reply <&3 || true
set +e
read -r -t 5 _ <&3
oversized_eof=$?
set -e
exec 3<&-
printf '%s' "$oversized_reply" | grep -q '"error":"too_large"' || {
  echo "serve smoke: unterminated 2 MiB line was not answered too_large: ${oversized_reply:0:200}"
  exit 1
}
[ "$oversized_eof" -eq 1 ] || {
  echo "serve smoke: connection stayed open after too_large (read status $oversized_eof)"
  exit 1
}
# A 1,000,000-byte string member must be refused bad_request within 2 s
# (the parser is linear in the line length).
exec 3<>"/dev/tcp/${serve_addr%:*}/${serve_addr##*:}"
printf '{"op":"plan","ratio":"%s","demand":20}\n' "$(head -c 1000000 /dev/zero | tr '\0' '1')" >&3
long_reply=""
read -r -t 2 long_reply <&3 || true
exec 3<&-
printf '%s' "$long_reply" | grep -q '"error":"bad_request"' || {
  echo "serve smoke: a 1 MB string member was not answered bad_request within 2 s: ${long_reply:0:200}"
  exit 1
}
served=$(target/release/dmfstream request 2:1:1:1:1:1:9 --demand 20 --connect "$serve_addr")
served_summary=$(printf '%s' "$served" | sed -n 's/.*"summary":"\([^"]*\)".*/\1/p')
[ "$served_summary" = "$plan_summary" ] || {
  echo "serve smoke: after the hostile lines, served summary '$served_summary' != plan output '$plan_summary'"
  exit 1
}
stats=$(target/release/dmfstream request --op stats --connect "$serve_addr")
printf '%s' "$stats" | grep -q '"too_large":1' || {
  echo "serve smoke: stats did not count the too_large refusal: $stats"
  exit 1
}
target/release/dmfstream request --op shutdown --connect "$serve_addr" >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "serve smoke: server did not shut down within 10s"
  exit 1
fi
trap - EXIT
wait "$serve_pid" || { echo "serve smoke: server exited non-zero"; exit 1; }

echo "verify: OK"
