#!/usr/bin/env bash
# worker-kill.sh — the multi-process TCP job end to end, clean and with a
# dead worker.
#
# 1. Four dss-worker processes on loopback sort one input three times: with
#    MS, with PDMS-Golomb in RAM and with PDMS under -mem-budget 65536 (the
#    PDMS jobs' lines each rank fetches from the ranks that hold them once
#    its merge is done). Rank 2 writes to stdout through a
#    pipe, which takes its lines through a temporary file. The outputs,
#    concatenated in rank order, must equal LC_ALL=C sort of the input,
#    rank 0's deterministic statistics (strings, model time, bytes sent,
#    messages, work imbalance and the phase table) must equal those of
#    dss-sort -p 4 on the same input — both split the input into the same
#    byte ranges — and the spill directory must be empty afterwards.
# 2. The same job again with -net-timeout 30s, and rank 1 is killed with
#    SIGKILL once it has joined the mesh and started sorting. The TCP
#    transport is fail-stop, so the three survivors must all exit with
#    status 1 within 5 s of the kill, far inside the 30 s shutdown bound,
#    each with an error naming the lost connection and no goroutine dump (a
#    crash exits 2 and prints one). A survivor that exits 0 means the kill
#    came after the job was done: the check is inconclusive and fails.
#
# Rank 1 is seen to be sorting through its -debug-addr endpoint (its phase
# gauge is set once the rendezvous is over); it is stopped with SIGSTOP at
# that moment so the kill cannot land after the job has finished.
#
# Usage:
#   scripts/worker-kill.sh              # ports 19400-19403 and 19410
#   BASE_PORT=23000 scripts/worker-kill.sh
set -euo pipefail

cd "$(dirname "$0")/.."

base=${BASE_PORT:-19400}
debug=$((base + 10))
peers="127.0.0.1:$base,127.0.0.1:$((base + 1)),127.0.0.1:$((base + 2)),127.0.0.1:$((base + 3))"
dir="$(mktemp -d)"
pids=()
cleanup() {
	for pid in "${pids[@]}"; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/dss-worker" ./cmd/dss-worker
go build -o "$dir/dss-sort" ./cmd/dss-sort
go build -o "$dir/dss-gen" ./cmd/dss-gen
"$dir/dss-gen" -kind dn -n 200000 -len 60 -ratio 0.5 -out "$dir/in.txt"
LC_ALL=C sort "$dir/in.txt" > "$dir/want.txt"

# The deterministic stat lines and phase table of a stderr summary.
det() {
	grep -E '^(strings|model time|bytes sent|messages|work imbalance):' "$1"
	sed -n '/^phase .*bytes_sent/,/^total /p' "$1"
}

# 1. Clean runs: clean LABEL FLAGS... runs one 4-worker job with FLAGS.
clean() {
	local label=$1
	shift
	mkdir -p "$dir/spill"
	pids=()
	for r in 0 1 2 3; do
		if [ "$r" = 2 ]; then
			("$dir/dss-worker" -rank "$r" -peers "$peers" "$@" -spill-dir "$dir/spill" \
				-in "$dir/in.txt" 2> "$dir/err.$r" | cat > "$dir/out.$r") &
		else
			"$dir/dss-worker" -rank "$r" -peers "$peers" "$@" -spill-dir "$dir/spill" \
				-in "$dir/in.txt" -out "$dir/out.$r" 2> "$dir/err.$r" &
		fi
		pids+=($!)
	done
	for r in 0 1 2 3; do
		wait "${pids[$r]}" || { echo "$label: rank $r failed:"; cat "$dir/err.$r"; exit 1; }
	done
	cat "$dir/out.0" "$dir/out.1" "$dir/out.2" "$dir/out.3" | cmp - "$dir/want.txt" \
		|| { echo "$label: concatenated worker outputs differ from LC_ALL=C sort"; exit 1; }
	"$dir/dss-sort" -p 4 "$@" -in "$dir/in.txt" -out /dev/null 2> "$dir/sort.err"
	grep -q '^model time:' "$dir/err.0" || { echo "$label: rank 0 printed no statistics"; exit 1; }
	diff <(det "$dir/sort.err") <(det "$dir/err.0") \
		|| { echo "$label: rank 0's statistics differ from dss-sort -p 4"; exit 1; }
	[ -z "$(ls -A "$dir/spill")" ] || { echo "$label: files left in the spill directory:"; ls -A "$dir/spill"; exit 1; }
	echo "$label: 4 workers, output identical to LC_ALL=C sort, statistics to dss-sort -p 4"
}
clean "clean run" -algo MS
clean "PDMS-Golomb run" -algo PDMS-Golomb
clean "budgeted PDMS run" -algo PDMS -mem-budget 65536

# 2. Rank 1 dies mid-run.
pids=()
for r in 0 1 2 3; do
	extra=()
	[ "$r" = 1 ] && extra=(-debug-addr "127.0.0.1:$debug")
	"$dir/dss-worker" -rank "$r" -peers "$peers" -algo MS -net-timeout 30s "${extra[@]}" \
		-in "$dir/in.txt" -out "$dir/kill.$r" 2> "$dir/kerr.$r" &
	pids+=($!)
done
for _ in $(seq 1 3000); do
	if curl -fs "http://127.0.0.1:$debug/debug/vars" 2>/dev/null | grep -q '"phase":{"1"'; then
		kill -STOP "${pids[1]}"
		break
	fi
	kill -0 "${pids[1]}" 2>/dev/null || break
	sleep 0.01
done
kill -9 "${pids[1]}" 2>/dev/null || { echo "inconclusive: rank 1 finished before it could be killed"; exit 1; }
killed=$(date +%s.%N)
for r in 0 2 3; do
	if wait "${pids[$r]}"; then
		echo "inconclusive: rank $r exited 0 although rank 1 was killed"
		exit 1
	else
		status=$?
	fi
	took=$(awk -v a="$killed" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
	# An error return exits 1; a panic that escaped the worker exits 2.
	if [ "$status" != 1 ] || grep -q 'goroutine ' "$dir/kerr.$r"; then
		echo "rank $r exited with status $status, want 1 and no goroutine dump:"
		cat "$dir/kerr.$r"
		exit 1
	fi
	# The failure must be the lost connection, not a crash of its own.
	lost=$(grep -o -m 1 'connection to rank [0-9]*: .*' "$dir/kerr.$r") || {
		echo "rank $r exited non-zero without naming a lost connection:"
		cat "$dir/kerr.$r"
		exit 1
	}
	echo "rank $r failed $took s after the kill: $lost"
	if awk -v t="$took" 'BEGIN { exit !(t > 5) }'; then
		echo "rank $r took more than 5 s to fail"
		exit 1
	fi
done
echo "kill run: the three survivors of a SIGKILLed worker failed within 5 s"
