#!/bin/sh
# bench.sh — run the simulation-kernel throughput benchmarks and write the
# BENCH_*.json snapshots the repository commits as its performance baseline:
#
#   BENCH_core.json    one record per (kernel, profile) detailed-run cell:
#                      [{"kernel":"event","profile":"Mcf","mips":1.07,...}]
#   BENCH_trace.json   record-once/replay-many trace capture comparison
#   BENCH_sample.json  sampled-vs-full per-cell speedup and CPI error per
#                      profile, plus geomean/min/max summary
#   BENCH_warm.json    sampled Fig6 sweep wall-time over probe tapes vs
#                      the NoTraceCache sweep that warms per cell
#   BENCH_serve.json   m3dd serving layer: per-cell latency cold (simulate)
#                      vs hit (warm result cache), and the single-flight
#                      coalescing proof (K identical sweeps, one sweep's
#                      worth of simulations)
#
# Every section is emitted atomically: the JSON is written to a temp file
# next to the destination and renamed into place only after the section's
# benchmarks ran and parsed. A partial run — interrupted, or scoped with
# SECTIONS — can therefore never truncate a previously committed snapshot.
#
# Usage: scripts/bench.sh [core_output.json] [trace_output.json] [sample_output.json] [warm_output.json] [serve_output.json]
#   SECTIONS="core trace sample warm serve"  # which sections to run (default: all)
#   BENCHTIME=5x scripts/bench.sh             # more sweep iterations per cell
#   TRACE_BENCHTIME=5000x scripts/bench.sh    # more generator/replayer batches
#   SAMPLE_BENCH_N=1000000 SECTIONS=sample scripts/bench.sh  # quick smoke
#
# Run from the repository root. Requires only the Go toolchain and awk.
set -eu

out="${1:-BENCH_core.json}"
traceout="${2:-BENCH_trace.json}"
sampleout="${3:-BENCH_sample.json}"
warmout="${4:-BENCH_warm.json}"
serveout="${5:-BENCH_serve.json}"
benchtime="${BENCHTIME:-2x}"
tracetime="${TRACE_BENCHTIME:-1000x}"
sections="${SECTIONS:-core trace sample warm serve}"

has_section() {
	case " $sections " in
	*" $1 "*) return 0 ;;
	*) return 1 ;;
	esac
}

# --- Core kernel throughput ------------------------------------------------
if has_section core; then
	raw="$(go test -run '^$' -bench 'BenchmarkCoreRun' -benchtime "$benchtime" ./internal/uarch)"
	tmp="$out.tmp"
	printf '%s\n' "$raw" | awk -v out="$tmp" '
		/^BenchmarkCoreRun\// {
			# BenchmarkCoreRun/<kernel>/<profile>-N  iters  T ns/op  M mips  P ns_per_instr
			split($1, parts, "/")
			kernel = parts[2]
			profile = parts[3]
			sub(/-[0-9]+$/, "", profile)
			mips = ""; nspi = ""
			for (i = 2; i < NF; i++) {
				if ($(i+1) == "mips") mips = $i
				if ($(i+1) == "ns_per_instr") nspi = $i
			}
			if (mips == "" || nspi == "") next
			rec[++n] = sprintf("  {\"kernel\": \"%s\", \"profile\": \"%s\", \"mips\": %s, \"ns_per_instr\": %s}", kernel, profile, mips, nspi)
		}
		END {
			if (n == 0) { print "bench.sh: no BenchmarkCoreRun lines parsed" > "/dev/stderr"; exit 1 }
			print "[" > out
			for (i = 1; i <= n; i++) print rec[i] (i < n ? "," : "") >> out
			print "]" >> out
		}
	'
	mv "$tmp" "$out"
	printf '%s\n' "$raw"
	echo "bench.sh: wrote $out"
fi

# --- Trace capture & replay ------------------------------------------------
# Synthesis vs replay throughput, and the Fig6 sweep wall-time with the
# shared recording cache on vs off.
if has_section trace; then
	traw="$(go test -run '^$' -bench 'BenchmarkGenerator$|BenchmarkReplayer$' -benchtime "$tracetime" ./internal/trace)"
	sraw="$(go test -run '^$' -bench 'BenchmarkFig6TraceCache' -benchtime "$benchtime" .)"
	tmp="$traceout.tmp"
	printf '%s\n%s\n' "$traw" "$sraw" | awk -v out="$tmp" '
		function metric(unit,    i) {
			for (i = 2; i < NF; i++) if ($(i+1) == unit) return $i
			return ""
		}
		$1 ~ /^BenchmarkGenerator(-[0-9]+)?$/ { g_nspi = metric("ns_per_instr"); g_mips = metric("minstr_per_s") }
		$1 ~ /^BenchmarkReplayer(-[0-9]+)?$/  { r_nspi = metric("ns_per_instr"); r_mips = metric("minstr_per_s") }
		$1 ~ /^BenchmarkFig6TraceCache\/shared(-[0-9]+)?$/  { shared = metric("ms_per_sweep") }
		$1 ~ /^BenchmarkFig6TraceCache\/percell(-[0-9]+)?$/ { percell = metric("ms_per_sweep") }
		END {
			if (g_nspi == "" || r_nspi == "" || shared == "" || percell == "") {
				print "bench.sh: trace benchmark lines missing" > "/dev/stderr"; exit 1
			}
			printf "{\n" > out
			printf "  \"generator\": {\"ns_per_instr\": %s, \"minstr_per_s\": %s},\n", g_nspi, g_mips >> out
			printf "  \"replayer\": {\"ns_per_instr\": %s, \"minstr_per_s\": %s},\n", r_nspi, r_mips >> out
			printf "  \"fig6_sweep\": {\"shared_ms\": %s, \"percell_ms\": %s, \"speedup_x\": %.3f}\n", shared, percell, percell / shared >> out
			printf "}\n" >> out
		}
	'
	mv "$tmp" "$traceout"
	printf '%s\n%s\n' "$traw" "$sraw"
	echo "bench.sh: wrote $traceout"
fi

# --- Sampled simulation ----------------------------------------------------
# One full detailed cell vs the same cell under interval sampling, per
# kernel and profile (internal/uarch/sample_bench_test.go). The sampling
# geometries are fixed in the benchmark; SAMPLE_BENCH_N shrinks the cells
# for smoke runs (the CPI error is meaningless at smoke lengths and is not
# gated there).
if has_section sample; then
	mraw="$(go test -run '^$' -bench 'BenchmarkSampledCell' -benchtime "${SAMPLE_BENCHTIME:-1x}" -timeout 60m ./internal/uarch)"
	tmp="$sampleout.tmp"
	printf '%s\n' "$mraw" | awk -v out="$tmp" -v n="${SAMPLE_BENCH_N:-32000000}" '
		function metric(unit,    i) {
			for (i = 2; i < NF; i++) if ($(i+1) == unit) return $i
			return ""
		}
		/^BenchmarkSampledCell\// {
			split($1, parts, "/")
			kernel = parts[2]
			profile = parts[3]
			sub(/-[0-9]+$/, "", profile)
			sp = metric("speedup_x"); er = metric("cpi_err_pct")
			fm = metric("full_ms"); sm = metric("sampled_ms"); em = metric("eff_mips")
			if (sp == "" || er == "") next
			cells[++k] = sprintf("    {\"kernel\": \"%s\", \"profile\": \"%s\", \"speedup_x\": %s, \"cpi_err_pct\": %s, \"full_ms\": %s, \"sampled_ms\": %s, \"eff_mips\": %s}", kernel, profile, sp, er, fm, sm, em)
			fullms[kernel "/" profile] = fm + 0
			sampms[kernel "/" profile] = sm + 0
			if (kernel == "reference") refp[++nrp] = profile
			cnt[kernel]++
			logsum[kernel] += log(sp)
			if (cnt[kernel] == 1 || sp + 0 < minsp[kernel] + 0) minsp[kernel] = sp
			if (cnt[kernel] == 1 || sp + 0 > maxsp[kernel] + 0) maxsp[kernel] = sp
			if (er + 0 > maxerr[kernel] + 0) maxerr[kernel] = er
			if (!(kernel in cnt0)) { order[++nk] = kernel; cnt0[kernel] = 1 }
		}
		END {
			if (k == 0) { print "bench.sh: no BenchmarkSampledCell lines parsed" > "/dev/stderr"; exit 1 }
			printf "{\n" > out
			printf "  \"geometries\": {\n" >> out
			printf "    \"event\": {\"interval\": 400000, \"warmup\": 1000, \"unit\": 8000, \"cell_instrs\": %s},\n", n >> out
			printf "    \"reference\": {\"interval\": 200000, \"warmup\": 1000, \"unit\": 8000, \"cell_instrs\": %s}\n", int(n / 4) >> out
			printf "  },\n" >> out
			printf "  \"cells\": [\n" >> out
			for (i = 1; i <= k; i++) print cells[i] (i < k ? "," : "") >> out
			printf "  ],\n" >> out
			# Cross-kernel headline: a sampled event cell replacing a full
			# reference cell (per-instruction, since the sections use
			# different cell lengths) — the speedup a sweep sees when it
			# adopts both the event kernel and sampling at once.
			nev = n; nref = int(n / 4); nc = 0
			for (j = 1; j <= nrp; j++) {
				p = refp[j]
				if (!(("event/" p) in sampms)) continue
				x = (fullms["reference/" p] / nref) / (sampms["event/" p] / nev)
				cross[++nc] = sprintf("      {\"profile\": \"%s\", \"speedup_x\": %.1f}", p, x)
				clog += log(x)
				if (nc == 1 || x < cmin) cmin = x
				if (nc == 1 || x > cmax) cmax = x
			}
			printf "  \"summary\": {\n" >> out
			for (i = 1; i <= nk; i++) {
				kn = order[i]
				printf "    \"%s\": {\"profiles\": %d, \"geomean_speedup_x\": %.2f, \"min_speedup_x\": %s, \"max_speedup_x\": %s, \"max_cpi_err_pct\": %s}%s\n", kn, cnt[kn], exp(logsum[kn] / cnt[kn]), minsp[kn], maxsp[kn], maxerr[kn], (i < nk || nc > 0 ? "," : "") >> out
			}
			if (nc > 0) {
				printf "    \"sampled_event_vs_full_reference\": {\"geomean_speedup_x\": %.1f, \"min_speedup_x\": %.1f, \"max_speedup_x\": %.1f, \"cells\": [\n", exp(clog / nc), cmin, cmax >> out
				for (i = 1; i <= nc; i++) print cross[i] (i < nc ? "," : "") >> out
				printf "    ]}\n" >> out
			}
			printf "  }\n" >> out
			printf "}\n" >> out
		}
	'
	mv "$tmp" "$sampleout"
	printf '%s\n' "$mraw"
	echo "bench.sh: wrote $sampleout"
fi

# --- Sampled fast-forward ---------------------------------------------------
# The sampled Fig6 sweep over probe tapes (warmon) vs the NoTraceCache
# sweep whose cells warm hierarchies of their own (warmoff)
# (BenchmarkFig6WarmCache, root bench_test.go). Both modes are bit-identical;
# this measures wall-clock only. scripts/bench_gate.sh warm gates speedup_x.
if has_section warm; then
	wraw="$(go test -run '^$' -bench 'BenchmarkFig6WarmCache' -benchtime "${WARM_BENCHTIME:-$benchtime}" -timeout 60m .)"
	tmp="$warmout.tmp"
	printf '%s\n' "$wraw" | awk -v out="$tmp" '
		function metric(unit,    i) {
			for (i = 2; i < NF; i++) if ($(i+1) == unit) return $i
			return ""
		}
		$1 ~ /^BenchmarkFig6WarmCache\/warmoff(-[0-9]+)?$/ { off = metric("ms_per_sweep") }
		$1 ~ /^BenchmarkFig6WarmCache\/warmon(-[0-9]+)?$/  { on = metric("ms_per_sweep") }
		END {
			if (off == "" || on == "") {
				print "bench.sh: warm benchmark lines missing" > "/dev/stderr"; exit 1
			}
			printf "{\n" > out
			printf "  \"fig6_sampled_sweep\": {\"warmoff_ms\": %s, \"warmon_ms\": %s, \"speedup_x\": %.3f}\n", off, on, off / on >> out
			printf "}\n" >> out
		}
	'
	mv "$tmp" "$warmout"
	printf '%s\n' "$wraw"
	echo "bench.sh: wrote $warmout"
fi

# --- Serving layer -----------------------------------------------------------
# Per-cell latency of the m3dd result-cache tiers (BenchmarkCellServe, root
# serve_bench_test.go): cold = every cell simulates, hit = every cell served
# from the warm in-memory cache, coalesce = K concurrent identical sweeps on
# a cold cache with the actual simulation count. Served results are
# bit-identical to simulated ones; this measures wall-clock and the
# coalescing counter. scripts/bench_gate.sh serve gates the cold/hit ratio
# and the coalesced simulation count.
if has_section serve; then
	svraw="$(go test -run '^$' -bench 'BenchmarkCellServe' -benchtime "${SERVE_BENCHTIME:-$benchtime}" -timeout 60m .)"
	tmp="$serveout.tmp"
	printf '%s\n' "$svraw" | awk -v out="$tmp" '
		function metric(unit,    i) {
			for (i = 2; i < NF; i++) if ($(i+1) == unit) return $i
			return ""
		}
		$1 ~ /^BenchmarkCellServe\/cold(-[0-9]+)?$/ { cold = metric("us_per_cell") }
		$1 ~ /^BenchmarkCellServe\/hit(-[0-9]+)?$/  { hit = metric("us_per_cell") }
		$1 ~ /^BenchmarkCellServe\/coalesce(-[0-9]+)?$/ {
			sims = metric("sims"); cells = metric("cells"); sweeps = metric("sweeps")
		}
		END {
			if (cold == "" || hit == "" || sims == "") {
				print "bench.sh: serve benchmark lines missing" > "/dev/stderr"; exit 1
			}
			printf "{\n" > out
			printf "  \"cell_serve\": {\"cold_us_per_cell\": %s, \"hit_us_per_cell\": %s, \"speedup_x\": %.1f},\n", cold, hit, cold / hit >> out
			printf "  \"coalesce\": {\"concurrent_sweeps\": %s, \"cells_per_sweep\": %s, \"simulations\": %s}\n", sweeps, cells, sims >> out
			printf "}\n" >> out
		}
	'
	mv "$tmp" "$serveout"
	printf '%s\n' "$svraw"
	echo "bench.sh: wrote $serveout"
fi
