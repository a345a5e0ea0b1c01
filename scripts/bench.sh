#!/usr/bin/env bash
# Reproducible performance snapshot + regression gate.
#
# Builds the release benchmark binary, runs the standard corpora, and
# compares tokens/sec against the committed BENCH_fmlr.json. Fails when
# throughput regresses by more than the tolerance (default 40%: on
# virtualized single-core boxes back-to-back runs of the *same* build
# differ by ±30% — host steal comes and goes in windows longer than a
# whole run, so per-run best-of-reps cannot cancel it; the tight perf
# contracts live in the self_gates ratios below, whose interleaved reps
# make the drift cancel).
#
#   scripts/bench.sh              # compare against committed snapshot
#   scripts/bench.sh --update     # rewrite BENCH_fmlr.json in place
#   TOLERANCE=10 scripts/bench.sh # custom regression tolerance (%)
#
# Every gate that reads only the *new* snapshot (cache pair, governed
# cost, fast-path speedup, kernel jobs ladder) also runs on the
# --update path: a snapshot that fails its own gates is refused rather
# than committed, so BENCH_fmlr.json can never contradict this script.
# The snapshot records "machine_cores" so a reader can judge the
# parallel rows against the machine that produced them.
#
# Parallel-scaling gates on the kernel jobs ladder (kernel_j1..kernel_j8,
# all from the *new* snapshot so machine drift cancels):
#   PAR_SPEEDUP_MIN_J2=1.7 scripts/bench.sh # jobs=2 speedup floor
#   PAR_SPEEDUP_MIN_J8=3.0 scripts/bench.sh # jobs=8 speedup floor
# Defaults scale with the machine: on boxes with fewer cores than the
# rung's job count the floor degrades to "parallelism must not lose
# catastrophically" (oversubscription on a small machine costs real
# context-switch overhead against a fast sequential baseline).
#
# Fast-path gate: FASTPATH_MIN (default 1.25) is the minimum
# fig9_condfree vs fig9_condfree_nofp speedup — the deterministic fast
# path must actually pay on a conditional-free workload.
#
# Cross-profile gate: PROFILES_MAX (default 2.4) caps the wall clock of
# the 3-profile fig9_profiles matrix at that multiple of its
# single-profile leg fig9_profiles1 — sharing pre-expansion artifacts
# across profiles must make the matrix cheaper than three fresh runs.
#
# Incremental gate: WARM_MIN (default 3) is the minimum fig_incremental
# vs fig_incremental_cold speedup — a warm re-run with ~1% of units
# edited must skip preprocess+parse for the unchanged 99% via the unit
# memo. Behavior identity between the legs is asserted inside the
# benchmark binary itself (per rep), not here.
#
# Daemon gate: DAEMON_MIN (default 3) is the minimum fig_daemon vs
# fig_daemon_cold speedup — the same edit-then-reparse workload served
# by a long-running service Driver must beat a fresh one-shot run over
# the identical tree, bounding the service layer's own overhead.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${TOLERANCE:-40}"
REPS="${REPS:-5}"
SNAPSHOT=BENCH_fmlr.json

extract() { # file -> "name rate" lines
    sed -n 's/.*"name": "\([a-z0-9_]*\)".*"tokens_per_sec": \([0-9.]*\).*/\1 \2/p' "$1"
}

# Gates that judge a snapshot on its own terms (no committed baseline
# needed): every ratio compares rows measured back-to-back in one
# process, so machine drift cancels. Prints results; returns nonzero if
# any gate fails.
self_gates() {
    local f="$1" gfail=0

    # Shared-cache gates on the header-dominated workload pair: the L2
    # cache must actually fire (hit-rate floor) and must pay for itself
    # (cache-on throughput at least CACHE_RATIO_FLOOR x the one-shot
    # cache-off run, `full_headers_nocache`).
    local HIT_RATE_FLOOR="${HIT_RATE_FLOOR:-0.15}"
    local CACHE_RATIO_FLOOR="${CACHE_RATIO_FLOOR:-1.3}"
    local hit_rate on_rate off_rate ratio
    hit_rate=$(sed -n 's/.*"name": "full_headers",.*"shared_cache_hit_rate": \([0-9.]*\).*/\1/p' "$f")
    on_rate=$(extract "$f" | awk '$1 == "full_headers" { print $2 }')
    off_rate=$(extract "$f" | awk '$1 == "full_headers_nocache" { print $2 }')
    if [[ -z "$hit_rate" || -z "$on_rate" || -z "$off_rate" ]]; then
        echo "bench: full_headers workload pair missing from new snapshot" >&2
        gfail=1
    else
        if awk -v h="$hit_rate" -v fl="$HIT_RATE_FLOOR" 'BEGIN { exit !(h >= fl) }'; then
            echo "bench: full_headers shared-cache hit rate $hit_rate (floor $HIT_RATE_FLOOR) OK"
        else
            echo "bench: full_headers shared-cache hit rate $hit_rate below floor $HIT_RATE_FLOOR" >&2
            gfail=1
        fi
        ratio=$(awk -v on="$on_rate" -v off="$off_rate" 'BEGIN { printf "%.2f", on / off }')
        if awk -v r="$ratio" -v fl="$CACHE_RATIO_FLOOR" 'BEGIN { exit !(r >= fl) }'; then
            echo "bench: full_headers cache-on/off speedup ${ratio}x (floor ${CACHE_RATIO_FLOOR}x) OK"
        else
            echo "bench: full_headers cache-on/off speedup ${ratio}x below floor ${CACHE_RATIO_FLOOR}x" >&2
            gfail=1
        fi
    fi

    # Governed-path cost gate: arming every resource budget (without any
    # of them tripping — fig9_governed uses generous limits) must stay
    # nearly free.
    local GOVERNED_TOLERANCE="${GOVERNED_TOLERANCE:-2}"
    local gov_rate base_rate gpct
    gov_rate=$(extract "$f" | awk '$1 == "fig9_governed" { print $2 }')
    base_rate=$(extract "$f" | awk '$1 == "fig9" { print $2 }')
    if [[ -z "$gov_rate" || -z "$base_rate" ]]; then
        echo "bench: fig9_governed/fig9 pair missing from new snapshot" >&2
        gfail=1
    else
        gpct=$(awk -v o="$base_rate" -v n="$gov_rate" \
            'BEGIN { printf "%+.1f", (n - o) / o * 100 }')
        if awk -v o="$base_rate" -v n="$gov_rate" -v t="$GOVERNED_TOLERANCE" \
            'BEGIN { exit !(n >= o * (1 - t / 100)) }'; then
            echo "bench: fig9_governed vs fig9 ${gpct}% (floor -${GOVERNED_TOLERANCE}%) OK"
        else
            echo "bench: governed path costs ${gpct}% vs fig9 (budget -${GOVERNED_TOLERANCE}%)" >&2
            gfail=1
        fi
    fi

    # Fast-path speedup gate: on the conditional-free workload pair
    # (interleaved reps, same corpus) the deterministic fast path + fused
    # lexing must beat the general FMLR loop by at least FASTPATH_MIN.
    local FASTPATH_MIN="${FASTPATH_MIN:-1.25}"
    local fp_on fp_off fp_ratio
    fp_on=$(extract "$f" | awk '$1 == "fig9_condfree" { print $2 }')
    fp_off=$(extract "$f" | awk '$1 == "fig9_condfree_nofp" { print $2 }')
    if [[ -z "$fp_on" || -z "$fp_off" ]]; then
        echo "bench: fig9_condfree workload pair missing from new snapshot" >&2
        gfail=1
    else
        fp_ratio=$(awk -v on="$fp_on" -v off="$fp_off" 'BEGIN { printf "%.2f", on / off }')
        if awk -v r="$fp_ratio" -v fl="$FASTPATH_MIN" 'BEGIN { exit !(r >= fl) }'; then
            echo "bench: fig9_condfree fastpath-on/off speedup ${fp_ratio}x (floor ${FASTPATH_MIN}x) OK"
        else
            echo "bench: fig9_condfree fastpath-on/off speedup ${fp_ratio}x below floor ${FASTPATH_MIN}x" >&2
            gfail=1
        fi
    fi

    # Cross-profile cost gate: analyzing the 3-profile matrix
    # (fig9_profiles) must cost at most PROFILES_MAX x the wall clock of
    # the single-profile run of the same corpus (fig9_profiles1) — the
    # shared pre-expansion cache amortizes lexing across the matrix, so
    # the marginal profile is much cheaper than a fresh run. Both legs
    # are measured interleaved in one process, so machine drift cancels
    # out of the ratio.
    local PROFILES_MAX="${PROFILES_MAX:-2.4}"
    local p3_secs p1_secs pr_ratio
    p3_secs=$(sed -n 's/.*"name": "fig9_profiles",.*"seconds": \([0-9.]*\).*/\1/p' "$f")
    p1_secs=$(sed -n 's/.*"name": "fig9_profiles1",.*"seconds": \([0-9.]*\).*/\1/p' "$f")
    if [[ -z "$p3_secs" || -z "$p1_secs" ]]; then
        echo "bench: fig9_profiles workload pair missing from new snapshot" >&2
        gfail=1
    else
        pr_ratio=$(awk -v a="$p3_secs" -v b="$p1_secs" 'BEGIN { printf "%.2f", a / b }')
        if awk -v r="$pr_ratio" -v cap="$PROFILES_MAX" 'BEGIN { exit !(r <= cap) }'; then
            echo "bench: fig9_profiles 3-profile/1-profile cost ${pr_ratio}x (cap ${PROFILES_MAX}x) OK"
        else
            echo "bench: fig9_profiles 3-profile/1-profile cost ${pr_ratio}x above cap ${PROFILES_MAX}x" >&2
            gfail=1
        fi
    fi

    # Incremental warm-rerun gate: the memo'd warm leg must beat the
    # cold leg (same pooled runner, same edits, interleaved reps) by at
    # least WARM_MIN. The legs differ only in whether the unit memo is
    # consulted, so the ratio isolates exactly the invalidation win.
    local WARM_MIN="${WARM_MIN:-3}"
    local warm_rate cold_rate warm_ratio
    warm_rate=$(extract "$f" | awk '$1 == "fig_incremental" { print $2 }')
    cold_rate=$(extract "$f" | awk '$1 == "fig_incremental_cold" { print $2 }')
    if [[ -z "$warm_rate" || -z "$cold_rate" ]]; then
        echo "bench: fig_incremental workload pair missing from new snapshot" >&2
        gfail=1
    else
        warm_ratio=$(awk -v on="$warm_rate" -v off="$cold_rate" 'BEGIN { printf "%.2f", on / off }')
        if awk -v r="$warm_ratio" -v fl="$WARM_MIN" 'BEGIN { exit !(r >= fl) }'; then
            echo "bench: fig_incremental warm/cold speedup ${warm_ratio}x (floor ${WARM_MIN}x) OK"
        else
            echo "bench: fig_incremental warm/cold speedup ${warm_ratio}x below floor ${WARM_MIN}x" >&2
            gfail=1
        fi
    fi

    # Daemon/service gate: the same edit-then-reparse workload served by
    # a long-running Driver (the engine behind `superc daemon` and the C
    # API) must beat the fresh one-shot run over the identical tree by
    # at least DAEMON_MIN. This bounds the service layer's own overhead
    # (overlay reads, generation bookkeeping) on top of the memo win the
    # WARM_MIN gate already proves.
    local DAEMON_MIN="${DAEMON_MIN:-3}"
    local d_warm d_cold d_ratio
    d_warm=$(extract "$f" | awk '$1 == "fig_daemon" { print $2 }')
    d_cold=$(extract "$f" | awk '$1 == "fig_daemon_cold" { print $2 }')
    if [[ -z "$d_warm" || -z "$d_cold" ]]; then
        echo "bench: fig_daemon workload pair missing from new snapshot" >&2
        gfail=1
    else
        d_ratio=$(awk -v on="$d_warm" -v off="$d_cold" 'BEGIN { printf "%.2f", on / off }')
        if awk -v r="$d_ratio" -v fl="$DAEMON_MIN" 'BEGIN { exit !(r >= fl) }'; then
            echo "bench: fig_daemon served/one-shot speedup ${d_ratio}x (floor ${DAEMON_MIN}x) OK"
        else
            echo "bench: fig_daemon served/one-shot speedup ${d_ratio}x below floor ${DAEMON_MIN}x" >&2
            gfail=1
        fi
    fi

    # Parallel-scaling gate on the kernel jobs ladder. The floors default
    # by core count: a near-linear expectation where the hardware can
    # deliver it. On a single core there is no parallelism to win — the
    # rungs measure pure scheduling overhead against a fast-path-enabled
    # sequential baseline — so the floor only rejects catastrophic loss.
    local CORES J2_DEFAULT J8_DEFAULT
    CORES=$(nproc 2>/dev/null || echo 1)
    if [[ "$CORES" -ge 2 ]]; then
        J2_DEFAULT=1.7
    else
        J2_DEFAULT=0.4
    fi
    if [[ "$CORES" -ge 8 ]]; then
        J8_DEFAULT=3.0
    elif [[ "$CORES" -ge 4 ]]; then
        J8_DEFAULT=2.0
    elif [[ "$CORES" -ge 2 ]]; then
        J8_DEFAULT=1.3
    else
        J8_DEFAULT=0.3
    fi
    local PAR_SPEEDUP_MIN_J2="${PAR_SPEEDUP_MIN_J2:-$J2_DEFAULT}"
    local PAR_SPEEDUP_MIN_J8="${PAR_SPEEDUP_MIN_J8:-$J8_DEFAULT}"
    local j1_rate rate speedup floor j
    j1_rate=$(extract "$f" | awk '$1 == "kernel_j1" { print $2 }')
    if [[ -z "$j1_rate" ]]; then
        echo "bench: kernel jobs ladder missing from new snapshot" >&2
        gfail=1
    else
        echo "bench: kernel jobs ladder (${CORES} cores):"
        echo "bench:   jobs    tok/s  speedup"
        for j in 1 2 4 8; do
            rate=$(extract "$f" | awk -v n="kernel_j$j" '$1 == n { print $2 }')
            if [[ -z "$rate" ]]; then
                echo "bench: kernel_j$j missing from new snapshot" >&2
                gfail=1
                continue
            fi
            speedup=$(awk -v r="$rate" -v b="$j1_rate" 'BEGIN { printf "%.2f", r / b }')
            printf 'bench:   %4d %8d  %sx\n' "$j" "${rate%.*}" "$speedup"
            floor=""
            case "$j" in
            2) floor="$PAR_SPEEDUP_MIN_J2" ;;
            8) floor="$PAR_SPEEDUP_MIN_J8" ;;
            esac
            if [[ -n "$floor" ]] &&
                ! awk -v s="$speedup" -v fl="$floor" 'BEGIN { exit !(s >= fl) }'; then
                echo "bench: kernel_j$j speedup ${speedup}x below floor ${floor}x" >&2
                gfail=1
            fi
        done
    fi

    return "$gfail"
}

cargo build --release -p superc-bench --bin bench_snapshot

if [[ "${1:-}" == "--update" ]]; then
    NEW=$(mktemp)
    trap 'rm -f "$NEW"' EXIT
    ./target/release/bench_snapshot --reps "$REPS" --json --out "$NEW"
    # A snapshot that fails its own gates is never committed: the stale
    # file stays, the script fails, and the contradiction is visible now
    # instead of in the next PR's comparison run.
    if ! self_gates "$NEW"; then
        echo "bench: refusing to update $SNAPSHOT: new snapshot fails its own gates" >&2
        exit 1
    fi
    cp "$NEW" "$SNAPSHOT"
    echo "bench: snapshot updated"
    exit 0
fi

if [[ ! -f "$SNAPSHOT" ]]; then
    echo "bench: no committed $SNAPSHOT; run scripts/bench.sh --update first" >&2
    exit 1
fi

NEW=$(mktemp)
trap 'rm -f "$NEW"' EXIT
./target/release/bench_snapshot --reps "$REPS" --json --out "$NEW"

# Compare per-workload tokens_per_sec with the committed snapshot. The
# snapshot carries sequential ("full", "fig9") and parallel ("full_par",
# "fig9_par") entries, so a scaling regression in the parallel driver
# gates the same way as a single-thread one.
fail=0
while read -r name old_rate; do
    # Baseline legs (*_nocache, *_nofp, *_cold) are measured only as
    # same-run denominators for the ratio gates above, which interleave
    # reps so machine drift cancels. Comparing their *absolute*
    # throughput against a snapshot from another run re-introduces
    # exactly that drift (the uncached-lexing leg swings tens of percent
    # on a loaded box) without guarding anything the ratio gates don't.
    # fig_incremental and fig_daemon themselves are skipped too: memo'd
    # throughput measures almost no parsing work, so their absolute
    # values are dominated by scheduler noise — the WARM_MIN and
    # DAEMON_MIN ratio gates are their real contracts.
    case "$name" in
    *_nocache | *_nofp | *_profiles1 | *_cold | fig_incremental | fig_daemon) continue ;;
    esac
    new_rate=$(extract "$NEW" | awk -v n="$name" '$1 == n { print $2 }')
    if [[ -z "$new_rate" ]]; then
        echo "bench: workload '$name' missing from new snapshot" >&2
        fail=1
        continue
    fi
    ok=$(awk -v o="$old_rate" -v n="$new_rate" -v t="$TOLERANCE" \
        'BEGIN { print (n >= o * (1 - t / 100)) ? 1 : 0 }')
    pct=$(awk -v o="$old_rate" -v n="$new_rate" \
        'BEGIN { printf "%+.1f", (n - o) / o * 100 }')
    if [[ "$ok" == 1 ]]; then
        echo "bench: $name ${old_rate%.*} -> ${new_rate%.*} tok/s (${pct}%) OK"
    else
        echo "bench: $name ${old_rate%.*} -> ${new_rate%.*} tok/s (${pct}%) REGRESSION (>${TOLERANCE}% slower)" >&2
        fail=1
    fi
done < <(extract "$SNAPSHOT")

self_gates "$NEW" || fail=1

exit "$fail"
