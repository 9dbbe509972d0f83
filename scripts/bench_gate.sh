#!/bin/sh
# bench_gate.sh — benchstat-style regression gates over the committed
# BENCH_*.json snapshots.
#
# Modes (first argument; anything else is the legacy core invocation):
#
#   core [current.json] [baseline.json] [tolerance_pct]
#       Compares a freshly measured BENCH_core.json against the committed
#       baseline and fails (exit 1) if any (kernel, profile) cell's mips
#       regressed by more than the tolerance (default 10%). Cells present
#       in only one file are reported but never fail the gate — adding a
#       profile or kernel must not require regenerating the baseline in
#       the same change.
#   sample [current.json] [baseline.json] [tolerance_pct]
#       Compares each kernel's geomean_speedup_x in BENCH_sample.json
#       against the committed baseline; fails on a regression beyond the
#       tolerance (default 10%).
#   warm [current.json] [min_speedup]
#       Reads the sampled-sweep speedup_x from BENCH_warm.json (the taped
#       sweep over the NoTraceCache sweep) and fails if it is below
#       min_speedup (default 1.5).
#   trace [current.json] [min_replay_ratio] [min_sweep_speedup]
#       Reads BENCH_trace.json and fails if replay is not at least
#       min_replay_ratio x faster than generation per instruction (default
#       2.0), or the shared-cache Fig6 sweep fell below min_sweep_speedup x
#       the per-cell-regeneration sweep (default 0.9 — the cache must never
#       cost a sweep anything).
#   serve [current.json] [min_speedup] [sims_slack_pct]
#       Reads BENCH_serve.json and fails if a warm-cache cell serve is not
#       at least min_speedup x faster than a cold simulation (default 100),
#       or the K concurrent identical sweeps simulated more than
#       cells x (1 + slack/100) cells (default 5% — coalescing must hold).
#
# Baselines default to the committed snapshot (git show HEAD:...).
# Run from the repository root. Requires git and awk.
set -eu

mode="core"
case "${1:-}" in
core | sample | warm | trace | serve)
	mode="$1"
	shift
	;;
esac

from_head() {
	# Prints a temp-file path holding the committed copy of $1.
	f="$(mktemp)"
	git show "HEAD:$1" >"$f"
	printf '%s' "$f"
}

cleanup=""
trap '[ -n "$cleanup" ] && rm -f "$cleanup"' EXIT

if [ "$mode" = "warm" ]; then
	current="${1:-BENCH_warm.json}"
	min="${2:-1.5}"
	[ -f "$current" ] || { echo "bench_gate.sh: $current not found (run scripts/bench.sh first)" >&2; exit 2; }
	awk -v min="$min" -v curfile="$current" '
		BEGIN {
			sp = ""
			while ((getline line < curfile) > 0) {
				if (match(line, /"speedup_x":[ ]*[0-9.eE+-]+/) == 0) continue
				sp = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*/, "", sp)
			}
			close(curfile)
			if (sp == "") { print "bench_gate: no speedup_x in " curfile > "/dev/stderr"; exit 2 }
			if (sp + 0 < min + 0) {
				printf "bench_gate: FAIL — warm sweep speedup %.3fx below the %.2fx floor\n", sp, min
				exit 1
			}
			printf "bench_gate: PASS — warm sweep speedup %.3fx (floor %.2fx)\n", sp, min
		}
	'
	exit 0
fi

if [ "$mode" = "trace" ]; then
	current="${1:-BENCH_trace.json}"
	minratio="${2:-2.0}"
	minsweep="${3:-0.9}"
	[ -f "$current" ] || { echo "bench_gate.sh: $current not found (run scripts/bench.sh first)" >&2; exit 2; }
	awk -v minratio="$minratio" -v minsweep="$minsweep" -v curfile="$current" '
		function grab(line, key,    v) {
			if (match(line, "\"" key "\":[ ]*[0-9.eE+-]+") == 0) return ""
			v = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*/, "", v)
			return v
		}
		BEGIN {
			gen = ""; rep = ""; sweep = ""
			while ((getline line < curfile) > 0) {
				if (line ~ /"generator"/) gen = grab(line, "ns_per_instr")
				if (line ~ /"replayer"/) rep = grab(line, "ns_per_instr")
				if (line ~ /"fig6_sweep"/) sweep = grab(line, "speedup_x")
			}
			close(curfile)
			if (gen == "" || rep == "" || sweep == "") {
				print "bench_gate: generator/replayer/fig6_sweep missing from " curfile > "/dev/stderr"; exit 2
			}
			fails = 0
			ratio = (gen + 0) / (rep + 0)
			if (ratio < minratio + 0) {
				printf "bench_gate: FAIL — replay only %.2fx faster than generation (floor %.2fx)\n", ratio, minratio
				fails++
			} else {
				printf "bench_gate: trace replay %.2fx faster than generation (floor %.2fx)\n", ratio, minratio
			}
			if (sweep + 0 < minsweep + 0) {
				printf "bench_gate: FAIL — shared-cache sweep speedup %.3fx below the %.2fx floor\n", sweep, minsweep
				fails++
			} else {
				printf "bench_gate: trace fig6 sweep speedup %.3fx (floor %.2fx)\n", sweep, minsweep
			}
			if (fails > 0) exit 1
			printf "bench_gate: PASS — trace capture/replay holds its bars\n"
		}
	'
	exit 0
fi

if [ "$mode" = "serve" ]; then
	current="${1:-BENCH_serve.json}"
	min="${2:-100}"
	slack="${3:-5}"
	[ -f "$current" ] || { echo "bench_gate.sh: $current not found (run scripts/bench.sh first)" >&2; exit 2; }
	awk -v min="$min" -v slack="$slack" -v curfile="$current" '
		function grab(line, key,    v) {
			if (match(line, "\"" key "\":[ ]*[0-9.eE+-]+") == 0) return ""
			v = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*/, "", v)
			return v
		}
		BEGIN {
			sp = ""; sims = ""; cells = ""; sweeps = ""
			while ((getline line < curfile) > 0) {
				if (line ~ /"cell_serve"/) sp = grab(line, "speedup_x")
				if (line ~ /"coalesce"/) {
					sims = grab(line, "simulations")
					cells = grab(line, "cells_per_sweep")
					sweeps = grab(line, "concurrent_sweeps")
				}
			}
			close(curfile)
			if (sp == "" || sims == "" || cells == "") {
				print "bench_gate: cell_serve/coalesce missing from " curfile > "/dev/stderr"; exit 2
			}
			fails = 0
			if (sp + 0 < min + 0) {
				printf "bench_gate: FAIL — warm cell serve only %.1fx faster than cold simulation (floor %.0fx)\n", sp, min
				fails++
			} else {
				printf "bench_gate: serve warm/cold speedup %.1fx (floor %.0fx)\n", sp, min
			}
			cap = (cells + 0) * (1 + slack / 100)
			if (sims + 0 > cap) {
				printf "bench_gate: FAIL — %s concurrent sweeps simulated %s cells, cap %.1f (%s cells + %s%% slack)\n", sweeps, sims, cap, cells, slack
				fails++
			} else {
				printf "bench_gate: serve coalescing held — %s sweeps, %s simulations for %s cells (cap %.1f)\n", sweeps, sims, cells, cap
			}
			if (fails > 0) exit 1
			printf "bench_gate: PASS — serving layer holds its bars\n"
		}
	'
	exit 0
fi

if [ "$mode" = "sample" ]; then
	current="${1:-BENCH_sample.json}"
	baseline="${2:-}"
	tol="${3:-10}"
	if [ -z "$baseline" ]; then
		baseline="$(from_head BENCH_sample.json)"
		cleanup="$baseline"
	fi
	[ -f "$current" ] || { echo "bench_gate.sh: $current not found (run scripts/bench.sh first)" >&2; exit 2; }
	awk -v tol="$tol" -v basefile="$baseline" -v curfile="$current" '
		# Summary lines: "<kernel>": {... "geomean_speedup_x": N, ...}
		function parse(line, kv,    k, g) {
			if (match(line, /"[A-Za-z_]+":[ ]*\{.*"geomean_speedup_x":/) == 0) return ""
			k = line; sub(/^[ ]*"/, "", k); sub(/".*/, "", k)
			if (match(line, /"geomean_speedup_x":[ ]*[0-9.eE+-]+/) == 0) return ""
			g = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*/, "", g)
			kv["key"] = k; kv["geo"] = g
			return "ok"
		}
		BEGIN {
			while ((getline line < basefile) > 0)
				if (parse(line, kv) == "ok") base[kv["key"]] = kv["geo"]
			close(basefile)
			fails = 0; cells = 0
			while ((getline line < curfile) > 0) {
				if (parse(line, kv) != "ok") continue
				key = kv["key"]; cur = kv["geo"] + 0
				if (!(key in base)) { printf "bench_gate: sample %-32s NEW (%.2fx, no baseline)\n", key, cur; continue }
				old = base[key] + 0; cells++
				delta = (cur / old - 1) * 100
				verdict = "ok"
				if (delta < -tol) { verdict = "REGRESSED"; fails++ }
				printf "bench_gate: sample %-32s %6.2fx -> %6.2fx  %+6.1f%%  %s\n", key, old, cur, delta, verdict
			}
			close(curfile)
			if (cells == 0) { print "bench_gate: no comparable sample summaries found" > "/dev/stderr"; exit 2 }
			if (fails > 0) { printf "bench_gate: FAIL — %d sample geomean(s) regressed more than %s%%\n", fails, tol; exit 1 }
			printf "bench_gate: PASS — %d sample geomean(s) within %s%% of baseline\n", cells, tol
		}
	'
	exit 0
fi

current="${1:-BENCH_core.json}"
baseline="${2:-}"
tol="${3:-10}"

if [ -z "$baseline" ]; then
	baseline="$(from_head BENCH_core.json)"
	cleanup="$baseline"
fi

[ -f "$current" ] || { echo "bench_gate.sh: $current not found (run scripts/bench.sh first)" >&2; exit 2; }

# Each record sits on one line: {"kernel": "...", "profile": "...", "mips": N, ...}
awk -v tol="$tol" -v basefile="$baseline" -v curfile="$current" '
	function parse(line, kv,    k, p, m) {
		if (match(line, /"kernel":[ ]*"[^"]*"/) == 0) return ""
		k = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*"|"/, "", k)
		if (match(line, /"profile":[ ]*"[^"]*"/) == 0) return ""
		p = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*"|"/, "", p)
		if (match(line, /"mips":[ ]*[0-9.eE+-]+/) == 0) return ""
		m = substr(line, RSTART, RLENGTH); gsub(/.*:[ ]*/, "", m)
		kv["key"] = k "/" p; kv["mips"] = m
		return "ok"
	}
	BEGIN {
		while ((getline line < basefile) > 0)
			if (parse(line, kv) == "ok") base[kv["key"]] = kv["mips"]
		close(basefile)
		fails = 0; cells = 0
		while ((getline line < curfile) > 0) {
			if (parse(line, kv) != "ok") continue
			key = kv["key"]; cur = kv["mips"] + 0
			if (!(key in base)) { printf "bench_gate: %-24s NEW (%.3f mips, no baseline)\n", key, cur; continue }
			old = base[key] + 0; seen[key] = 1; cells++
			delta = (cur / old - 1) * 100
			verdict = "ok"
			if (delta < -tol) { verdict = "REGRESSED"; fails++ }
			printf "bench_gate: %-24s %8.3f -> %8.3f mips  %+6.1f%%  %s\n", key, old, cur, delta, verdict
		}
		close(curfile)
		for (key in base)
			if (!(key in seen)) printf "bench_gate: %-24s MISSING from current run (baseline %.3f mips)\n", key, base[key] + 0
		if (cells == 0) { print "bench_gate: no comparable cells found" > "/dev/stderr"; exit 2 }
		if (fails > 0) { printf "bench_gate: FAIL — %d cell(s) regressed more than %s%%\n", fails, tol; exit 1 }
		printf "bench_gate: PASS — %d cell(s) within %s%% of baseline\n", cells, tol
	}
'
