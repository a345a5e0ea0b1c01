#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): release build + root-package tests
# and the crate suites listed below, the determinism and byte-identity
# passes over the real binary, fmt and clippy on every target, the
# frozen benchmark's build, then the performance gate (scripts/bench.sh:
# bench_snapshot measures its rows and applies every gate itself).
# Pass --workspace to run every crate's test suite instead.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace so the CLI and experiment binaries rebuild too: the root
# package alone only pulls them in as libraries, leaving stale bins in
# target/release.
cargo build --release --workspace
if [[ "${1:-}" == "--workspace" ]]; then
    cargo test --workspace -q
else
    cargo test -q
    # Crate-local cases the root package does not run: the table
    # generator's (LALR-not-SLR, ε-productions, conflicts, precedence,
    # the C grammar's known conflicts, and the differential against the
    # reference lookahead pass) and the FMLR engine's (Figure 6 and the
    # MAPR kill switch, the stack-metadata property).
    cargo test -q -p superc-grammar -p superc-csyntax -p superc-fmlr
    # The crates that declare counters or render them: the counter
    # helpers, the stats structs' own cases (the cpp cache on/off
    # counter test among them) and the `--stats` table's; and the bench
    # gate table's own cases (bounds, cross-run compare, --update).
    cargo test -q -p superc-cpp -p superc-bdd -p superc-cond -p superc-util -p superc \
        -p superc-bench
fi
# Re-run the parallel determinism suite with a wider, oversubscribed jobs
# ladder than the default 1,2,8 — cheap extra scheduling coverage.
SUPERC_PAR_JOBS="1,2,3,5,8,16" cargo test -q --test parallel

# Never-crash gate: the pathological corpus (tests/fixtures/robustness,
# also exercised in-process by tests/robustness.rs) must exit cleanly
# under tight budgets — no panic escapes the firewall, and the full
# report (degradation warnings included) is byte-identical for any job
# count AND with the deterministic fast path disabled (--no-fastpath is
# an extra matrix leg everywhere a byte-identity reference exists).
ROBUST_BIN="$PWD/target/release/superc"
ROBUST_UNITS=(bomb.c deep_nest.c self_include.c typedef_maze.c paste_mess.c ok.c)
ref=""
have_ref=0
for fp in fastpath no-fastpath; do
    extra=()
    [[ "$fp" == no-fastpath ]] && extra=(--no-fastpath)
    for j in 1 2 8; do
        out=$(cd tests/fixtures/robustness && "$ROBUST_BIN" --jobs "$j" \
            --parse-budget 400 --max-subparsers 64 --include-depth 8 \
            ${extra[@]+"${extra[@]}"} "${ROBUST_UNITS[@]}" 2>&1) || {
            echo "verify: pathological corpus failed at --jobs $j ($fp)" >&2
            exit 1
        }
        if grep -qi "panic" <<<"$out"; then
            echo "verify: panic escaped the firewall at --jobs $j ($fp):" >&2
            echo "$out" >&2
            exit 1
        fi
        if [[ "$have_ref" == 0 ]]; then
            ref="$out"
            have_ref=1
        elif [[ "$out" != "$ref" ]]; then
            echo "verify: pathological output diverged at --jobs $j ($fp)" >&2
            diff <(echo "$ref") <(echo "$out") >&2 || true
            exit 1
        fi
    done
done
if ! grep -q "budget exceeded" <<<"$ref"; then
    echo "verify: tight budgets never tripped on the pathological corpus" >&2
    exit 1
fi
echo "verify: pathological corpus OK"

# Kernel-corpus smoke: generate a small (≤200 unit) kernelgen corpus on
# disk and push it through the CLI's pooled corpus driver at several job
# counts. Gates that the end-to-end binary path (disk I/O, include
# resolution, worker pool) succeeds on kernel-shaped input and that the
# full report is byte-identical at every job count and with
# --no-fastpath (the fast path may only change speed, never output).
KGEN_DIR=$(mktemp -d)
trap 'rm -rf "$KGEN_DIR"' EXIT
./target/release/kernelgen --units 128 --kernel --out "$KGEN_DIR" >/dev/null
ref=""
have_ref=0
for fp in fastpath no-fastpath; do
    extra=()
    [[ "$fp" == no-fastpath ]] && extra=(--no-fastpath)
    for j in 1 2 8; do
        out=$(cd "$KGEN_DIR" && "$ROBUST_BIN" --jobs "$j" \
            ${extra[@]+"${extra[@]}"} -I include src/*.c 2>&1) || {
            echo "verify: kernel corpus failed at --jobs $j ($fp)" >&2
            exit 1
        }
        if grep -qi "panic" <<<"$out"; then
            echo "verify: panic in kernel corpus run at --jobs $j ($fp):" >&2
            echo "$out" >&2
            exit 1
        fi
        if [[ "$have_ref" == 0 ]]; then
            ref="$out"
            have_ref=1
        elif [[ "$out" != "$ref" ]]; then
            echo "verify: kernel corpus output diverged at --jobs $j ($fp)" >&2
            diff <(echo "$ref") <(echo "$out") >&2 || true
            exit 1
        fi
    done
done
# Absent path rows through the CLI on a disk tree: eight empty search
# dirs ahead of the real one make every <...> include fail eight more
# probes before it resolves, and the report must not change.
EMPTY_DIRS=()
for d in 1 2 3 4 5 6 7 8; do
    mkdir -p "$KGEN_DIR/empty$d"
    EMPTY_DIRS+=(-I "empty$d")
done
out=$(cd "$KGEN_DIR" && "$ROBUST_BIN" --jobs 2 "${EMPTY_DIRS[@]}" \
    -I include src/*.c 2>&1) || {
    echo "verify: kernel corpus failed behind empty -I dirs" >&2
    exit 1
}
if [[ "$out" != "$ref" ]]; then
    echo "verify: kernel corpus output changed behind empty -I dirs" >&2
    diff <(echo "$ref") <(echo "$out") >&2 || true
    exit 1
fi
echo "verify: kernel corpus smoke OK"

# --stats leg: every `--stats` row names one declared counter with its
# class (superc_util::counters). Behavior and mode rows must be
# identical at every job count, and behavior rows also under
# --no-fastpath, which may move only the mode rows. Schedule and timing
# rows are free to differ. Rows are compared as `name class value`:
# column padding follows the widest cell, which a timing row can set.
stats_rows() { # classes... < table -> the rows of those classes
    awk -v want=" $* " 'NF == 3 && index(want, " " $2 " ") { print $1, $2, $3 }'
}
behavior_ref=""
for fp in fastpath no-fastpath; do
    extra=()
    [[ "$fp" == no-fastpath ]] && extra=(--no-fastpath)
    mode_ref=""
    for j in 1 2 8; do
        table=$(cd "$KGEN_DIR" && "$ROBUST_BIN" --jobs "$j" --stats \
            ${extra[@]+"${extra[@]}"} -I include src/*.c 2>/dev/null) || {
            echo "verify: kernel corpus --stats failed at --jobs $j ($fp)" >&2
            exit 1
        }
        rows=$(stats_rows behavior mode <<<"$table")
        if ! grep -q '^fmlr\.merges behavior ' <<<"$rows"; then
            echo "verify: --stats printed no counter rows at --jobs $j ($fp)" >&2
            exit 1
        fi
        if [[ -z "$mode_ref" ]]; then
            mode_ref="$rows"
        elif [[ "$rows" != "$mode_ref" ]]; then
            echo "verify: --stats behavior/mode rows diverged at --jobs $j ($fp)" >&2
            diff <(echo "$mode_ref") <(echo "$rows") >&2 || true
            exit 1
        fi
        rows=$(stats_rows behavior <<<"$table")
        if [[ -z "$behavior_ref" ]]; then
            behavior_ref="$rows"
        elif [[ "$rows" != "$behavior_ref" ]]; then
            echo "verify: --stats behavior rows diverged at --jobs $j ($fp)" >&2
            diff <(echo "$behavior_ref") <(echo "$rows") >&2 || true
            exit 1
        fi
    done
done
echo "verify: --stats counter rows OK"

# Warm re-run byte-identity: `--warm` re-runs the corpus through the
# pooled runner with the unit result memo enabled, and `--edit` rewrites
# a file between batches so only its dependents recompute. The final
# warm batch's report must be byte-for-byte identical to a fresh
# process run over the (now edited) tree — in the plain corpus driver
# and in every lint output format across the --profiles grid. Both legs
# exit nonzero here (the kernel corpus contains #error units and denied
# findings), so `|| true` keeps set -e out of the way; the comparison
# below is the actual gate.
WARM_HDR=include/linux/types.h
WARM_UNIT=src/unit0.c
for f in "$WARM_HDR" "$WARM_UNIT"; do
    if [[ ! -f "$KGEN_DIR/$f" ]]; then
        echo "verify: kernelgen layout changed: $f missing" >&2
        exit 1
    fi
done
cp "$KGEN_DIR/$WARM_HDR" "$KGEN_DIR/$WARM_HDR.edited"
printf 'int warm_probe_hdr;\n' >>"$KGEN_DIR/$WARM_HDR.edited"
cp "$KGEN_DIR/$WARM_UNIT" "$KGEN_DIR/$WARM_UNIT.edited"
printf 'int warm_probe_unit;\n' >>"$KGEN_DIR/$WARM_UNIT.edited"
warm=$(cd "$KGEN_DIR" && "$ROBUST_BIN" --jobs 4 --warm 2 \
    --edit "2:$WARM_HDR=$WARM_HDR.edited" -I include src/*.c 2>&1) || true
ref=$(cd "$KGEN_DIR" && "$ROBUST_BIN" --jobs 4 -I include src/*.c 2>&1) || true
if [[ -z "$ref" || "$warm" != "$ref" ]]; then
    echo "verify: warm corpus re-run diverged from fresh-process reference" >&2
    diff <(echo "$ref") <(echo "$warm") >&2 || true
    exit 1
fi
for fmt in text json sarif; do
    warm=$(cd "$KGEN_DIR" && "$ROBUST_BIN" lint \
        --profiles gcc-linux,clang-macos,msvc-windows \
        --format "$fmt" --jobs 4 --warm 2 \
        --edit "2:$WARM_UNIT=$WARM_UNIT.edited" -I include src/*.c 2>&1) || true
    ref=$(cd "$KGEN_DIR" && "$ROBUST_BIN" lint \
        --profiles gcc-linux,clang-macos,msvc-windows \
        --format "$fmt" --jobs 4 -I include src/*.c 2>&1) || true
    if [[ "$fmt" == text ]] && ! grep -q 'warning\[' <<<"$ref"; then
        echo "verify: warm lint reference produced no findings:" >&2
        echo "$ref" >&2
        exit 1
    fi
    if [[ -z "$ref" || "$warm" != "$ref" ]]; then
        echo "verify: warm lint $fmt report diverged from fresh-process reference" >&2
        diff <(echo "$ref") <(echo "$warm") >&2 || true
        exit 1
    fi
done
echo "verify: warm re-run byte-identity OK"

# Cross-profile byte-identity: the portability lint report over the
# seeded fixture corpus (tests/fixtures/portability, also exercised
# in-process by tests/portability.rs) must be byte-identical for any
# job count in every output format — the determinism contract the
# `--profiles` mode advertises.
PORT_DIR=tests/fixtures/portability
PORT_UNITS=(win_ifdef.c gnuc_version.c apple_decl.c stdc_version.c
    nested_guard.c clean_portable.c)
for fmt in text json sarif; do
    ref=""
    have_ref=0
    for j in 1 2 8; do
        out=$(cd "$PORT_DIR" && "$ROBUST_BIN" lint \
            --profiles gcc-linux,clang-macos,msvc-windows \
            --format "$fmt" --jobs "$j" "${PORT_UNITS[@]}" 2>&1) || true
        if ! grep -q "portability-" <<<"$out"; then
            echo "verify: no portability findings (--format $fmt --jobs $j):" >&2
            echo "$out" >&2
            exit 1
        fi
        if [[ "$have_ref" == 0 ]]; then
            ref="$out"
            have_ref=1
        elif [[ "$out" != "$ref" ]]; then
            echo "verify: cross-profile $fmt report diverged at --jobs $j" >&2
            diff <(echo "$ref") <(echo "$out") >&2 || true
            exit 1
        fi
    done
done
echo "verify: cross-profile lint byte-identity OK"

# Daemon byte-identity: drive the real binary's `superc daemon` mode
# over stdin/stdout (NDJSON, one response line per request) against the
# kernel corpus, and byte-compare every parse/lint response with a
# fresh one-shot CLI run over the same tree — including after an
# on-disk edit announced with a notify-only edit generation. This is
# the end-to-end version of tests/daemon.rs: same contract, but through
# the real process boundary. The coproc gives synchronous
# request/response turns, so disk edits between requests cannot race
# the daemon's batch processing.
DUNITS=()
for u in "$KGEN_DIR"/src/*.c; do DUNITS+=("src/${u##*/}"); done
DAEMON_UNITS=$(printf '"%s",' "${DUNITS[@]}")
DAEMON_UNITS="[${DAEMON_UNITS%,}]"
coproc DAEMON { cd "$KGEN_DIR" && exec "$ROBUST_BIN" daemon --jobs 4; }
# Bash drops the coproc variables as soon as the process is reaped, so
# grab the pid now for the post-shutdown wait.
DAEMON_WAIT_PID="$DAEMON_PID"

daemon_request() { # request-line -> response line on stdout
    printf '%s\n' "$1" >&"${DAEMON[1]}"
    local resp
    IFS= read -r resp <&"${DAEMON[0]}"
    printf '%s' "$resp"
}

daemon_check() { # label request-line reference-cli-args...
    local label="$1" req="$2" resp ref_failed=0
    shift 2
    resp=$(daemon_request "$req")
    if [[ $(jq -r .ok <<<"$resp") != true ]]; then
        echo "verify: daemon $label request failed: $resp" >&2
        exit 1
    fi
    (cd "$KGEN_DIR" && "$ROBUST_BIN" "$@") \
        >"$KGEN_DIR/.ref.out" 2>"$KGEN_DIR/.ref.err" || ref_failed=1
    jq -rj .stdout <<<"$resp" >"$KGEN_DIR/.got.out"
    jq -rj .stderr <<<"$resp" >"$KGEN_DIR/.got.err"
    local s
    for s in out err; do
        if ! cmp -s "$KGEN_DIR/.ref.$s" "$KGEN_DIR/.got.$s"; then
            echo "verify: daemon $label std$s diverged from fresh one-shot run" >&2
            diff "$KGEN_DIR/.ref.$s" "$KGEN_DIR/.got.$s" >&2 || true
            exit 1
        fi
    done
    local want_failed=false
    [[ "$ref_failed" == 1 ]] && want_failed=true
    if [[ $(jq -r .failed <<<"$resp") != "$want_failed" ]]; then
        echo "verify: daemon $label failed flag disagrees with CLI exit" >&2
        exit 1
    fi
}

daemon_check "parse" "{\"cmd\":\"parse\",\"units\":$DAEMON_UNITS}" \
    --jobs 4 "${DUNITS[@]}"
daemon_check "lint" "{\"cmd\":\"lint\",\"units\":$DAEMON_UNITS,\"format\":\"json\"}" \
    lint --format json --jobs 4 "${DUNITS[@]}"
# Edit one unit on disk, announce it with a notify-only generation, and
# require the next response to match a fresh run over the edited tree —
# with exactly that unit recomputed and every other unit replayed from
# the memo.
printf 'int daemon_probe_unit;\n' >>"$KGEN_DIR/$WARM_UNIT"
resp=$(daemon_request "{\"cmd\":\"edit\",\"path\":\"$WARM_UNIT\"}")
if [[ $(jq -rj .stdout <<<"$resp") != "generation 2"* ]]; then
    echo "verify: daemon edit notify rejected: $resp" >&2
    exit 1
fi
daemon_check "post-edit lint" \
    "{\"cmd\":\"lint\",\"units\":$DAEMON_UNITS,\"format\":\"json\"}" \
    lint --format json --jobs 4 "${DUNITS[@]}"
# A request line that is not UTF-8 gets an error response, and the
# session keeps serving (the stats request below).
resp=$(daemon_request $'\xff\xfe')
if [[ $(jq -r .ok <<<"$resp") != false ]]; then
    echo "verify: daemon must answer a non-UTF-8 line with ok:false: $resp" >&2
    exit 1
fi
stats=$(daemon_request '{"cmd":"stats"}')
if [[ $(jq -r .unit_memo_misses <<<"$stats") != 1 ]]; then
    echo "verify: daemon must recompute exactly the edited unit: $stats" >&2
    exit 1
fi
if [[ $(jq -r .unit_memo_hits <<<"$stats") != $((${#DUNITS[@]} - 1)) ]]; then
    echo "verify: daemon must replay every untouched unit: $stats" >&2
    exit 1
fi
printf '%s\n' '{"cmd":"shutdown"}' >&"${DAEMON[1]}"
IFS= read -r resp <&"${DAEMON[0]}"
if [[ $(jq -r .shutdown <<<"$resp") != true ]]; then
    echo "verify: daemon shutdown handshake failed: $resp" >&2
    exit 1
fi
wait "$DAEMON_WAIT_PID" 2>/dev/null || true
echo "verify: daemon byte-identity OK"

# C API smoke: compile a tiny client against the hand-written
# crates/capi/include/superc.h, link the superc_capi cdylib, stage a
# two-file tree through the FFI (set_file + end_generation), and
# byte-compare its lint JSON with `superc lint --format json` over the
# same files on disk. A second generation then re-stages include/a.h
# with new contents and lints again; that response must match the CLI
# over the edited files. Gates that the header matches the exported
# symbols, that the cdylib actually links, and that the embedding path
# honors the same output contract as the CLI across an edit.
CAPI_DIR=$(mktemp -d)
trap 'rm -rf "$KGEN_DIR" "$CAPI_DIR"' EXIT
mkdir -p "$CAPI_DIR/include"
cat >"$CAPI_DIR/include/a.h" <<'EOF'
#ifdef CONFIG_FAST
#define SPEED 9
#else
#define SPEED 1
#endif
int helper(int);
EOF
cat >"$CAPI_DIR/a.h.next" <<'EOF'
#ifdef CONFIG_FAST
#define SPEED 9
#else
#define SPEED 2
#endif
#ifdef CONFIG_FAST
#define SPEED 3
#endif
int helper(int);
EOF
cat >"$CAPI_DIR/a.c" <<'EOF'
#include <a.h>
int use(void) { return helper(SPEED); }
int use(void);
EOF
cat >"$CAPI_DIR/client.c" <<'EOF'
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include "superc.h"

/* Reads a file whole; the fixture is small. */
static char *slurp(const char *path) {
    FILE *f = fopen(path, "rb");
    if (!f) return NULL;
    fseek(f, 0, SEEK_END);
    long len = ftell(f);
    fseek(f, 0, SEEK_SET);
    char *buf = malloc((size_t)len + 1);
    if (!buf || fread(buf, 1, (size_t)len, f) != (size_t)len) {
        fclose(f);
        return NULL;
    }
    buf[len] = '\0';
    fclose(f);
    return buf;
}

/* Stages `path` with the contents of the file `from`; 0 on success. */
static int stage(superc_driver *d, const char *path, const char *from) {
    char *contents = slurp(from);
    if (!contents || superc_driver_set_file(d, path, contents) != 0) {
        fprintf(stderr, "stage %s: %s\n", path, superc_last_error(d));
        free(contents);
        return -1;
    }
    free(contents);
    return 0;
}

/* Lints `unit` as JSON and prints the exact CLI bytes: 0 clean,
 * 1 failed, 2 error. */
static int lint(superc_driver *d, const char *unit) {
    const char *units[] = {unit};
    char *err = NULL;
    int failed = 0;
    char *out = superc_lint(d, units, 1, "json", &err, &failed);
    if (!out) {
        fprintf(stderr, "lint: %s\n", superc_last_error(d));
        return 2;
    }
    if (err) fputs(err, stderr);
    fputs(out, stdout);
    superc_string_free(out);
    superc_string_free(err);
    return failed ? 1 : 0;
}

/* Usage: client <unit.c> <staged-path>... [+ <path> <contents-file>]
 * — stages every path from disk and lints the first one. With "+", a
 * second generation re-stages <path> from <contents-file> and lints
 * again, printing after the first response. */
int main(int argc, char **argv) {
    superc_driver *d = superc_driver_new(2);
    if (!d) return 2;
    int staged = 1;
    while (staged < argc && strcmp(argv[staged], "+") != 0) staged++;
    for (int i = 1; i < staged; i++) {
        if (stage(d, argv[i], argv[i]) != 0) return 2;
    }
    if (superc_driver_end_generation(d) < 0) return 2;
    int status = lint(d, argv[1]);
    if (status != 2 && staged + 2 < argc) {
        if (superc_driver_begin_generation(d) < 0 ||
            stage(d, argv[staged + 1], argv[staged + 2]) != 0 ||
            superc_driver_end_generation(d) < 0) {
            return 2;
        }
        int again = lint(d, argv[1]);
        status = again == 2 ? 2 : (status | again);
    }
    superc_driver_free(d);
    return status;
}
EOF
cc -O1 -o "$CAPI_DIR/client" "$CAPI_DIR/client.c" \
    -I crates/capi/include -L target/release -lsuperc_capi \
    -Wl,-rpath,"$PWD/target/release"
c_failed=0
(cd "$CAPI_DIR" && ./client a.c include/a.h + include/a.h a.h.next) \
    >"$CAPI_DIR/.got.out" 2>"$CAPI_DIR/.got.err" || c_failed=$?
if [[ "$c_failed" == 2 ]]; then
    echo "verify: C client errored:" >&2
    cat "$CAPI_DIR/.got.err" >&2
    exit 1
fi
# The CLI reference: one run per generation, the second over the
# edited header, concatenated like the client's two responses.
cli_failed=0
for gen in 1 2; do
    if [[ "$gen" == 2 ]]; then
        cp "$CAPI_DIR/a.h.next" "$CAPI_DIR/include/a.h"
    fi
    (cd "$CAPI_DIR" && "$ROBUST_BIN" lint --format json a.c) \
        >"$CAPI_DIR/.ref$gen.out" 2>"$CAPI_DIR/.ref$gen.err" || cli_failed=1
done
if cmp -s "$CAPI_DIR/.ref1.out" "$CAPI_DIR/.ref2.out"; then
    echo "verify: the C smoke edit must change the lint output" >&2
    exit 1
fi
for s in out err; do
    cat "$CAPI_DIR/.ref1.$s" "$CAPI_DIR/.ref2.$s" >"$CAPI_DIR/.ref.$s"
    if ! cmp -s "$CAPI_DIR/.ref.$s" "$CAPI_DIR/.got.$s"; then
        echo "verify: C client lint std$s diverged from the CLI" >&2
        diff "$CAPI_DIR/.ref.$s" "$CAPI_DIR/.got.$s" >&2 || true
        exit 1
    fi
done
if [[ "$c_failed" != "$cli_failed" ]]; then
    echo "verify: C client exit ($c_failed) disagrees with CLI exit ($cli_failed)" >&2
    exit 1
fi
if ! grep -q '"diagnostics"' "$CAPI_DIR/.got.out"; then
    echo "verify: C client produced no lint JSON:" >&2
    cat "$CAPI_DIR/.got.out" >&2
    exit 1
fi
echo "verify: C API smoke OK"

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# The frozen benchmark (perfbench/, its own workspace) compiles against
# the corpus entry points, the cli renderers, service::Driver and the
# daemon protocol: build it and run its generator tests here, so an API
# break fails this script rather than the benchmark pipeline.
CARGO_TARGET_DIR=.bench_build cargo test --offline --manifest-path perfbench/Cargo.toml
scripts/bench.sh
echo "verify: OK"
