#!/bin/sh
# reach.sh reports the non-test code that no binary reaches.
#
# It builds every binary of the module (mqpi-bench, mqpi-serve, mqpi-shell,
# the four examples and ./benchmark) with `go build -cover -coverpkg=./...`,
# runs a fixed set of drivers against them with GOCOVERDIR set, and prints
# every function outside benchmark/ that no driver entered, with its line
# count, then the total. Tests do not count: only what a binary does.
#
#   sh scripts/reach.sh             # the report (make reach)
#   REACH_DIR=/tmp/r sh scripts/reach.sh
#
# REACH_DIR (default reach-out/) keeps the binaries, the coverage data, each
# driver's output and report.txt; it is emptied at the start of every run.
# REACH_PORT (default 18471) is the first of the loopback ports the
# mqpi-serve sessions listen on. Any driver that fails fails the report, so
# the total never shrinks because a driver stopped running.
set -eu

GO=${GO:-go}
dir=${REACH_DIR:-reach-out}
port=${REACH_PORT:-18471}
root=$(pwd)

rm -rf "$dir"
mkdir -p "$dir/bin" "$dir/cov" "$dir/log" "$dir/work"
dir=$(cd "$dir" && pwd)

for p in ./cmd/mqpi-bench ./cmd/mqpi-serve ./cmd/mqpi-shell \
	./examples/quickstart ./examples/maintenance ./examples/speedup ./examples/monitor \
	./benchmark; do
	"$GO" build -cover -coverpkg=./... -o "$dir/bin/$(basename "$p")" "$p"
done
GOCOVERDIR="$dir/cov"
export GOCOVERDIR
bin=$dir/bin
log=$dir/log

# drive NAME CMD...: runs one driver, its output to log/NAME; a failure names
# the driver and its log.
drive() {
	name=$1
	shift
	if ! "$@" > "$log/$name" 2>&1; then
		echo "reach: driver $name failed; see $log/$name" >&2
		exit 1
	fi
}

# --- the examples ----------------------------------------------------------
for e in quickstart maintenance speedup monitor; do
	drive "example-$e" "$bin/$e"
done

# --- mqpi-bench: the simulator, the battery, and both figure sinks ---------
for s in 1 2 3 4 5 6; do
	drive "sim-$s" "$bin/mqpi-bench" -sim -seed "$s"
done
drive exp-all "$bin/mqpi-bench" -exp all -runs 3 -csv "$dir/work/csv"
drive exp-json "$bin/mqpi-bench" -exp mcq,cluster -runs 1 -lineitem 30000 -json -v

# --- mqpi-shell: every backslash command and each statement form -----------
(cd "$dir/work" && drive shell "$bin/mqpi-shell" < "$root/cmd/mqpi-shell/testdata/session.sql")

# --- mqpi-serve: four scripted HTTP sessions on loopback -------------------
# Q is the paper's template query over part table $1; SCAN a lineitem scan
# (two of them at one priority fold onto one shared cursor under -fold).
q() {
	printf '{"label":"q%s","sql":"select * from part_%s p where p.retailprice*0.75 > (select sum(l.extendedprice)/sum(l.quantity) from lineitem l where l.partkey = p.partkey)"%s}' "$1" "$1" "${2:-}"
}
SCAN='{"label":"scan","sql":"select count(*), sum(l.extendedprice) from lineitem l where l.quantity > 10"}'

# req METHOD PATH [BODY]: one request; the body and status go to the
# session's log. A request that gets no answer (an HTTP error status is an
# answer) marks the session failed.
req() {
	if ! curl -sS -X "$1" -w ' [%{http_code}]\n' ${3:+-d "$3"} "http://127.0.0.1:$cur$2" >> "$log/$sess" 2>&1; then
		echo "reach: $1 $2 got no answer" >> "$log/$sess"
		failed=1
	fi
}

# session NAME FLAGS...: starts mqpi-serve on the next port, waits for
# /healthz, runs the shell function NAME against it, then stops it with
# SIGTERM (a clean exit is what writes its coverage) and requires exit 0.
session() {
	sess=$1
	shift
	cur=$port
	port=$((port + 1))
	"$bin/mqpi-serve" -addr "127.0.0.1:$cur" -demo -rows 15000 -rate 10 -timescale 1 "$@" > "$log/$sess.server" 2>&1 &
	pid=$!
	i=0
	until curl -s -o /dev/null "http://127.0.0.1:$cur/healthz"; do
		i=$((i + 1))
		if [ $i -gt 100 ] || ! kill -0 "$pid" 2> /dev/null; then
			echo "reach: mqpi-serve for $sess did not come up; see $log/$sess.server" >&2
			kill "$pid" 2> /dev/null || true
			exit 1
		fi
		sleep 0.1
	done
	: > "$log/$sess"
	failed=0
	"$sess"
	if [ "$failed" = 1 ]; then
		echo "reach: session $sess failed; see $log/$sess" >&2
		kill "$pid" 2> /dev/null || true
		exit 1
	fi
	kill -TERM "$pid"
	if ! wait "$pid"; then
		echo "reach: mqpi-serve for $sess did not exit cleanly; see $log/$sess.server" >&2
		exit 1
	fi
}

# One shard, folding on, the calibrated band: every route of service.Routes
# and of the single-engine handler, the planners, and the 400s.
single() {
	req GET /healthz
	req POST /exec '{"sql":"CREATE TABLE t (a INT, b TEXT)"}'
	req POST /exec '{"sql":"INSERT INTO t VALUES (1, '"'x'"'), (2, '"'y'"')"}'
	req POST /exec '{"sql":"DROP t"}'
	req POST /queries "$(q 1)"
	req POST /queries "$(q 2 ',"priority":2')"
	req POST /queries "$(q 3 ',"delay":5')"
	req POST /queries "$SCAN"
	req POST /queries "$SCAN"
	req POST /queries '{"label":"probe","sql":"select count(*) from lineitem l where l.partkey = 7"}'
	req POST /queries '{"label":"distinct","sql":"select distinct l.quantity from lineitem l"}'
	req POST /queries '{"sql":"select nosuch from lineitem"}'
	req POST /queries '{"sql":""}'
	req POST /queries '{"sql":"select 1"} trailing'
	req POST /advance '{"seconds":1}'
	req GET /queries/1
	req GET /queries/6
	req GET /queries/7
	req GET /queries/x
	req GET /queries
	req GET /diagram
	req GET '/diagram?width=0'
	req GET '/plan/speedup?target=1&victims=1'
	req GET '/plan/speedup?target=1&victims=2'
	req GET /plan/speedup
	req GET /plan/speedup-others
	req GET '/plan/maintenance?deadline=30'
	req GET '/plan/maintenance?deadline=30&mode=completed-work&exact=1'
	req GET '/plan/maintenance?mode=bogus'
	req POST /queries/2/block
	req GET /queries/1
	req POST /queries/2/unblock
	req POST /queries/2/priority '{"priority":5}'
	req POST /queries/2/abort
	req POST /queries/99/abort
	req POST /advance '{"seconds":2}'
	req GET /diagram
	req GET /plan/speedup-others
	req GET '/events?id=1'
	req GET /events
	req GET /metrics
	req POST /advance '{"seconds":100000}'
	req GET /queries/1
	req GET /metrics
}

# Two shards, least-loaded, a one-per-second bucket that queues: the front
# door's routes, its drill-down, borrowed admissions and a refused submit.
queued() {
	req GET /healthz
	req POST /exec '{"sql":"CREATE TABLE t (a INT)"}'
	req POST /queries '{"sql":"select nosuch from lineitem"}'
	req POST /queries "$(q 1)"
	req POST /queries "$(q 2)"
	req POST /queries "$SCAN"
	req POST /queries "$SCAN"
	req GET /queries/1
	req GET /overview
	req GET /queries
	req GET /shards/0/queries
	req GET /shards/1/diagram
	req GET /shards/0/metrics
	req POST /shards/0/queries "$(q 1)"
	req POST /queries/1/block
	req POST /queries/1/unblock
	req POST /queries/1/priority '{"priority":1}'
	req GET '/events?id=1'
	req GET /events
	# Once the borrowed scans have arrived and folded, a third one is routed
	# by the fold-aware rule.
	req POST /advance '{"seconds":10}'
	req POST /queries "$SCAN"
	req POST /advance '{"seconds":100000}'
	req GET /overview
	req GET /metrics
}

# Two shards, session affinity, a half-per-second bucket that rejects: 429s.
affinity() {
	req POST /queries "$(q 1 ',"session":"a"')"
	req POST /queries "$(q 2 ',"session":"a"')"
	req POST /queries "$(q 3 ',"session":"b"')"
	req GET /queries
	req POST /queries/1/abort
	req POST /advance '{"seconds":100000}'
	req GET /metrics
}

# Three shards, round-robin, MPL 2: queries wait in each shard's queue.
mpl() {
	for n in 1 2 3 1 2 3 1 2 3; do
		req POST /queries "$(q $n)"
	done
	req GET /queries
	req GET /queries/4
	req POST /queries/7/abort
	req GET /shards/2/queries
	req GET '/events?id=4'
	req POST /advance '{"seconds":100000}'
	req GET /overview
	req GET /metrics
}

session single -fold -estimator calibrated
session queued -shards 2 -routing least-loaded -admit-rate 1 -admit-queue -fold
session affinity -shards 2 -routing affinity -admit-rate 0.5
session mpl -shards 3 -mpl 2

# --- the benchmark, each workload traced ------------------------------------
for w in backlog_submit poll_fanout exec_replay scan_share; do
	drive "bench-$w" "$bin/benchmark" -workload "$w" -seconds 3 -trace 1 -out "$dir/work/bench"
done

# --- the report ------------------------------------------------------------
# covdata lists every function with its share of statements reached; a
# function at 0.0% was entered by no driver. Its length runs from its first
# line to the first line after it that is a lone "}" (gofmt's closing brace),
# or is that one line when the function fits on it.
"$GO" tool covdata percent -i="$dir/cov" > "$dir/percent.txt"
"$GO" tool covdata func -i="$dir/cov" > "$dir/func.txt"
awk -v root="$root/" '
	$1 == "total" { total = $NF; next }
	$NF != "0.0%" { next }
	{
		split($1, loc, ":")
		file = loc[1]
		sub(/^mqpi\//, "", file)
		if (file ~ /^benchmark\//) next
		start = loc[2] + 0
		n = 0
		path = root file
		while ((getline line < path) > 0) {
			n++
			if (n < start) continue
			if (n == start && line ~ /}[ \t]*$/) break
			if (n > start && line ~ /^}/) break
		}
		close(path)
		lines = n - start + 1
		count++
		sum += lines
		printf "%-48s %-40s %4d\n", file ":" start, $2, lines
	}
	END {
		printf "reach: %s of statements reached by the drivers\n", total
		printf "reach: %d functions (%d lines) outside benchmark/ entered by no driver\n", count, sum
	}
' "$dir/func.txt" > "$dir/report.txt"
cat "$dir/report.txt"
