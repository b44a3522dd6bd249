#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs every workload of
# BENCHMARK.json on seeds 1..n, twice over (set A, then set B, same code),
# and prints for every end-to-end metric the two medians, how much worse B
# is than A, and the spread of A (interquartile range over median). Exits 1
# if a spread or a worsening is over the metric's bound, if a run is not
# correct, or if a run leaves a process, a listener or a store directory
# behind.
#
#   benchmark/agree.sh [n]      n seeds per set, default 3; the acceptance
#                               procedure uses 10 (about 35 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-3}"
out=".bench_build/agree"
rm -rf "$out" && mkdir -p "$out"

leftovers() {
	pgrep -x ddgms-bench || true
	ss -Hltnp 2>/dev/null | grep ddgms-bench || true
	find .bench_build/tmp -mindepth 1 -maxdepth 1 2>/dev/null || true
}

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
before=$(leftovers)
for set in A B; do
	for w in $workloads; do
		for seed in $(seq 1 "$n"); do
			bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				2>>"$out/stderr.log" | tail -n 1 >"$out/$set.$w.$seed.json"
			if [ "$(leftovers)" != "$before" ]; then
				echo "left behind after $w seed $seed:" && leftovers && exit 1
			fi
		done
		echo "set $set $w done" >&2
	done
done

python3 - "$out" "$n" <<'EOF'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
bad = False
print(f"{'workload':10s} {'metric':18s} {'median A':>12s} {'median B':>12s} {'B worse by':>11s} {'spread A':>9s} {'bound':>6s}")
for w in [w["name"] for w in bench["workloads"]]:
    runs = {s: [json.load(open(f"{out}/{s}.{w}.{seed}.json")) for seed in range(1, n + 1)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"{w}: set {s}: a run was not correct ({r['failed']} of {r['attempted']} failed)")
                bad = True
    for m in bench["end_to_end"]:
        a, b = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        q = statistics.quantiles(a, n=4) if n > 1 else [ma, ma, ma]
        spread = (q[2] - q[0]) / ma
        flag = ""
        if worse > m["bound"] or (spread > m["bound"] and m["name"] != "setup_s"):
            flag, bad = "  <-- over the bound", True
        print(f"{w:10s} {m['name']:18s} {ma:12.4f} {mb:12.4f} {100*worse:10.1f}% {100*spread:8.1f}% {100*m['bound']:5.0f}%{flag}")
sys.exit(1 if bad else 0)
EOF
