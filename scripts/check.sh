#!/bin/sh
# Pre-PR gate: formatting, vet, the full test suite, a race-detector
# pass (shortened: race mode pays ~20x per simulated cycle, and the
# determinism tests honor -short), the parallel-engine determinism gate,
# and — on machines with enough cores — the parallel speedup guard.
# Run from the repository root:
#
#	scripts/check.sh
#
# Everything must pass before sending a PR (see README "Observability
# and tooling").
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...
echo "ok"

echo "== wake-hook inventory (one wheel, hooked from internal/soc only) =="
# A parked component sleeps through any input whose delivery path
# forgot to wake it, so every Wake/Arm call site is a place a bug can
# hide. There are three Wake sites (DRAM retire -> CPU, DRAM retire ->
# display, frame flip -> display) and two Arm sites (the CPU and display
# shard bodies), all on the SoC's phase-1 wheel. A second wheel, or a
# hook in another package, has to be argued for here (DESIGN.md "Time
# advancement" has the measurements that removed the last two).
bad=$(grep -rn --include='*.go' -E '\.(Wake|Arm)\(|par\.NewWheel\(' internal/ cmd/ *.go |
	grep -v -e '_test\.go' -e '^internal/par/' -e '^internal/soc/' || true)
if [ -n "$bad" ]; then
	echo "FAIL: event-wheel call site outside internal/soc:" >&2
	echo "$bad" >&2
	exit 1
fi
echo "ok"

echo "== warp-wake inventory (one ready set, written by its helpers only) =="
# The same bug class one level down: a warp outside simt.Core's awake
# set is invisible to the schedulers and to NextWake, so every write to
# that set is a place a wake can go missing. The set is written by five
# helpers in core.go (wake, sleep, sleepOnLSU, wakeLSU, and forget
# through readySets) and sliced up in NewCore; the guard's
# checkReadySet reads its words;
# everything else only asks has() or any(). The
# scheduling state lives there and nowhere else: Warp carries no parked
# or lastIssued field for a second scheduler to grow back on.
bad=$(awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[^A-Za-z0-9_].*/, "", fn) }
	/[a-z]+\.awake/ {
		line = $0
		gsub(/[a-z]+\.awake\.(has\(|any\(\))/, "", line)
		if (line ~ /[a-z]+\.awake/ && fn !~ /^(NewCore|wake|sleep|sleepOnLSU|wakeLSU|readySets|checkReadySet)$/)
			print FILENAME ":" FNR ": " fn ": " $0
	}
	/readySets\(\)/ && fn !~ /^(readySets|forget|checkReadySet)$/ { print FILENAME ":" FNR ": " fn ": " $0 }
	' $(ls internal/simt/*.go | grep -v '_test\.go'))
if [ -n "$bad" ]; then
	echo "FAIL: the awake set is written outside its helpers:" >&2
	echo "$bad" >&2
	exit 1
fi
bad=$(awk '/^type Warp struct/,/^}/' internal/simt/warp.go | grep -n -E '^[[:space:]]+(parked|lastIssued)[[:space:],]' || true)
if [ -n "$bad" ]; then
	echo "FAIL: simt.Warp carries scheduling state again:" >&2
	echo "$bad" >&2
	exit 1
fi
echo "ok"

echo "== request-allocation inventory + hot-struct lint =="
# A mem.Request is allocated in exactly one place, mem.Pool.New, and
# goes back to the pool of the component that took it (DESIGN.md
# "Memory request path"). A literal or a new() anywhere else in product
# code is a per-request allocation on the path between the LSU and DRAM
# growing back unreviewed. bench/ and tests build their own requests;
# pools never adopt those.
bad=$(grep -rn --include='*.go' -E '&mem\.Request\{|new\(mem\.Request\)' internal/ cmd/ examples/ *.go | grep -v '_test\.go' || true)
sites=$(grep -n -E '&Request\{|new\(Request\)' internal/mem/*.go | grep -v '_test\.go' || true)
if [ -n "$bad" ] || [ "$(echo "$sites" | grep -c .)" != 1 ] || ! echo "$sites" | grep -q 'queue\.go.*new(Request)'; then
	echo "FAIL: mem.Request allocated outside mem.Pool.New:" >&2
	echo "$bad" >&2
	echo "$sites" >&2
	exit 1
fi
# The per-cycle structures of the memory path are index-addressed: no
# struct in these packages (or the TC unit) holds a Go map.
bad=$(grep -n -E '^[[:space:]]+[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]+(\*|\[\])*map\[' \
	internal/cache/*.go internal/interconnect/*.go internal/dram/*.go internal/mem/*.go internal/gfx/tc.go |
	grep -v '_test\.go' || true)
if [ -n "$bad" ]; then
	echo "FAIL: map-typed field on the memory request path:" >&2
	echo "$bad" >&2
	exit 1
fi
echo "ok"

echo "== allocation gates and hot-path references (uncached) =="
# The zero-allocation tick, the warm-launch object budget, the blocked
# access that builds nothing, the pool's own contract, and the
# differential references of the hot paths: the ready set and the
# parking LSU against the full-scan scheduler and retry-every-cycle LSU,
# the parking crossbar against the retry-every-cycle one (both once more
# with the guard re-offering what they park), PopReady's latch against
# the linear scan, Refused against a blocked Access, and the lane loops
# against single-lane ExecALU: -count=1 so the test cache cannot answer
# for them. The backpressure contract's static rules are a tier-1 test
# (TestBackpressureContract, root package).
go test -count=1 -timeout 5m -run 'TestSteadyStateTickDoesNotAllocate|TestReadySetAgainstFullScanReference' ./internal/simt
go test -count=1 -timeout 5m -run 'TestParkingAgainstRetryEveryCycleReference' ./internal/interconnect
EMERALD_GUARD=1 go test -count=1 -timeout 5m -run 'TestReadySetAgainstFullScanReference|TestParkingAgainstRetryEveryCycleReference' ./internal/simt ./internal/interconnect
go test -count=1 -timeout 5m -run 'TestPopReadyAgainstLinearScan' ./internal/gfx
go test -count=1 -timeout 5m -run 'TestExecALULanesMatchesExecALU' ./internal/shader
go test -count=1 -timeout 5m -run 'TestWarmKernelLaunchAllocatesOnlyBookkeeping' ./internal/gpu
go test -count=1 -timeout 5m -run 'TestBlockedAccessAllocatesNothing|TestRequestsAreRecycledByTheirIssuer|TestRefusedHasTheEffectsOfABlockedAccess' ./internal/cache
go test -count=1 -timeout 5m -run 'TestPoolRecyclingAndPoison|TestQueueDrainTo' ./internal/mem
go test -count=1 -timeout 5m -run 'TestFrameAllocationTripwire' .

# Every go test below carries an explicit -timeout (it applies to each
# package's test binary), so a hung test fails in minutes with a
# goroutine dump instead of spinning.
echo "== go test (tier-1) =="
# One run, as JSON, so the slowest tests can be named afterwards. A
# failing run is repeated in plain form to show what failed: passing
# packages come back from the test cache.
t1=$(mktemp)
if ! go test -json -timeout 8m ./... >"$t1"; then
	rm -f "$t1"
	go test -timeout 8m ./...
	exit 1
fi
echo "ok; ten slowest tests (seconds, package, test):"
grep '"Action":"pass"' "$t1" | grep '"Test":"[^"/]*"' |
	sed -E 's/.*"Package":"([^"]*)".*"Test":"([^"]*)".*"Elapsed":([0-9.eE+-]+).*/\3 \1 \2/' |
	sort -rn | head -10 | awk '{ printf "  %7.2f  %-28s %s\n", $1, $2, $3 }'
rm -f "$t1"

echo "== assembler fuzz (10 s) =="
go test -timeout 5m -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 10s ./internal/shader

echo "== service-plane decoder fuzz (3 x 5 s) =="
# Journal records, store footers and the replication endpoint's payload
# gate all parse bytes a crash, a bad disk or a confused peer wrote.
go test -timeout 5m -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 5s ./internal/sweep
go test -timeout 5m -run '^$' -fuzz '^FuzzStoreFooter$' -fuzztime 5s ./internal/sweep
go test -timeout 5m -run '^$' -fuzz '^FuzzValidatePayload$' -fuzztime 5s ./internal/fleet

echo "== trace and checkpoint decoder fuzz (2 x 5 s) =="
# tracetool -replay/-resume and region jobs read these files; the seeds
# are a recorded W3 trace and a checkpoint of it. Minimisation is off:
# the seeds carry a 256 KiB texture, and shrinking one interesting
# mutation of that takes longer than the whole run.
go test -timeout 5m -run '^$' -fuzz '^FuzzLoadReplay$' -fuzztime 5s -fuzzminimizetime 0 ./internal/trace
go test -timeout 5m -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 5s -fuzzminimizetime 0 ./internal/trace

echo "== go test -race (short) =="
go test -race -short -timeout 15m ./...

echo "== fleet race pass (full) =="
# The fleet plane is all cross-goroutine state (membership gossip,
# steal loops, replication pushes, hedges); run its full suite — not
# just -short — under the race detector, and the daemon assembly's with
# it: cold, warm, kill -9 mid-sweep and restart on 1 and 3 nodes, and
# the live job surface of a real simulation.
go test -race -count=1 -timeout 10m ./internal/fleet/... ./internal/daemon/...

echo "== chaos soak gate =="
# The permanent robustness gate: a 3-node fleet under seeded network
# chaos (drops, delays, 503s, truncation, asymmetric partitions) plus
# store corruption, a crash + journal-replaying restart, a mid-sweep
# join and a graceful leave — tables must come out byte-identical to a
# clean single-node run with zero lost jobs, and the same seed must
# re-derive the same fault schedule (see internal/chaos).
go test -count=1 -run 'TestChaosSoak|TestJournalReplayRacesReexecution' -timeout 180s ./internal/chaos

echo "== determinism (workers 1 vs 4; default vs every-cycle, skip-only, wheel-only) + wake contract =="
# The digest gates — "wheel-only" is SetEventWheel alone: clock jumps
# off, the phase-1 wheel slots (CPU cores, display) and the GPU's
# drained latch acted on — and every NextWake implementor driven through
# a crafted busy period: reporting a wake later than the first
# self-driven state change is the silent-correctness bug class that
# parking and clock jumps turn into wrong results. Run with fewer Ps
# than workers too: the worker pool's barrier has to hold when its
# workers are descheduled mid-dispatch, not only on a host with a core
# for each.
for procs in 1 2 ""; do
	echo "-- GOMAXPROCS=${procs:-default} --"
	env ${procs:+GOMAXPROCS=$procs} go test -count=1 -timeout 10m \
		-run 'TestParallelDeterminism|TestTimeAdvanceDeterminism|TestNextWakeContract' ./internal/exp
done

echo "== checkpoint-resume digest gate =="
# The sampled-simulation contract: the functional executor's memory is
# bit-identical to the detailed pipeline's, a region resumed from a
# checkpoint digests identically across file round trips, worker
# counts and the every-cycle mode, and a sweep region job is a pure
# function of its canonical spec.
go test -count=1 -timeout 5m -run 'TestFunctionalMatchesDetailed|TestCheckpointResumeFidelity|TestRunRegionJobDeterministic' ./internal/exp

echo "== sampled-vs-full smoke (emerald -sampled) =="
# The sampled pipeline end to end through the CLI: a 12-frame scenario
# detailed at 2 representative regions must report a frame reduction
# and a nonzero whole-run estimate. (The accuracy tolerance itself is
# gated by TestRunSampledPipeline in the full `go test` above.)
sampled_out=$(go run ./cmd/emerald -workload 3 -frames 12 -w 96 -h 72 -sampled -sample-k 2)
echo "$sampled_out"
if ! echo "$sampled_out" | grep -q "x reduction"; then
	echo "FAIL: emerald -sampled reported no detailed-frame reduction" >&2
	exit 1
fi
if echo "$sampled_out" | grep -q "estimate: 0 cycles/frame"; then
	echo "FAIL: emerald -sampled estimated zero cycles" >&2
	exit 1
fi
echo "ok"

echo "== parallel speedup guard =="
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -lt 4 ]; then
	echo "skipped: $cores core(s) available; the 1.5x guard needs >= 4"
else
	out=$(go test -timeout 5m -run '^$' -bench 'BenchmarkFrameW3$|BenchmarkFrameW3Par4$' -benchtime=5x -count=1 .)
	echo "$out"
	echo "$out" | awk '
		$1 ~ /^BenchmarkFrameW3(-[0-9]+)?$/ { seq = $3 }
		$1 ~ /^BenchmarkFrameW3Par4(-[0-9]+)?$/ { par = $3 }
		END {
			if (seq == "" || par == "") { print "FAIL: benchmark output missing" > "/dev/stderr"; exit 1 }
			speedup = seq / par
			printf "speedup at 4 workers: %.2fx\n", speedup
			if (speedup < 1.5) { print "FAIL: parallel speedup below 1.5x" > "/dev/stderr"; exit 1 }
		}'
fi

echo "== sweep service smoke test (the binaries) =="
# The one check that runs main's flag parsing and the "listening on"
# line: start emeraldd on a loopback port, run a tiny two-point sweep
# cold, rerun it warm, and require 0/2 then 2/2 cache hits with
# byte-identical stdout — in figure mode and in sampled mode (region
# jobs are content-addressed by their canonical spec too). Everything
# else the service promises (crash recovery, the 3-node fleet, a node
# killed mid-sweep, live telemetry, the pprof gate) is held by go tests
# on the same assembly the binary wraps: internal/daemon,
# internal/fleet, internal/chaos and internal/sweep.
tmp=$(mktemp -d)
daemon_pid=""
cleanup() {
	if [ -n "$daemon_pid" ]; then
		kill "$daemon_pid" 2>/dev/null || true
		wait "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/emeraldd" ./cmd/emeraldd
go build -o "$tmp/sweep" ./cmd/sweep
"$tmp/emeraldd" -addr 127.0.0.1:0 -cache "$tmp/cache" >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!
addr=""
for _ in $(seq 1 50); do
	addr=$(awk '/listening on/ { print $4; exit }' "$tmp/daemon.log" 2>/dev/null || true)
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "FAIL: emeraldd never reported its address" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
fi
# cold_warm <name> <cold hit pattern> <sweep args...>: run the sweep
# twice; the first must match the cold pattern, the second must be all
# hits with the same stdout.
cold_warm() {
	name=$1 cold_hits=$2
	shift 2
	"$tmp/sweep" -addr "http://$addr" "$@" >"$tmp/$name.cold.out" 2>"$tmp/$name.cold.err"
	"$tmp/sweep" -addr "http://$addr" "$@" >"$tmp/$name.warm.out" 2>"$tmp/$name.warm.err"
	if ! grep -q "$cold_hits" "$tmp/$name.cold.err"; then
		echo "FAIL: cold $name sweep did not report '$cold_hits':" >&2
		cat "$tmp/$name.cold.err" >&2
		exit 1
	fi
	if ! grep -q "cache 2/2 hits (100.0%)" "$tmp/$name.warm.err"; then
		echo "FAIL: warm $name sweep was not 100% cache hits:" >&2
		cat "$tmp/$name.warm.err" >&2
		exit 1
	fi
	if ! cmp -s "$tmp/$name.cold.out" "$tmp/$name.warm.out"; then
		echo "FAIL: warm $name sweep output differs from cold:" >&2
		diff "$tmp/$name.cold.out" "$tmp/$name.warm.out" >&2 || true
		exit 1
	fi
	cat "$tmp/$name.warm.err"
}
cold_warm fig "cache 0/2" -fig 9 -scale smoke -models 2 -configs BAS,DCB
cold_warm sampled "cache 0/2" -sample -workloads 3 -scale smoke -sample-frames 8 -sample-k 2
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "ok"

echo "== telemetry overhead guard =="
# The probe publishes once per 1024-cycle stride poll; the budget for
# that is 2% of frame time. Gate at 8% of the min-of-3 paired runs to
# absorb scheduler noise on shared CI machines while still catching a
# real regression (e.g. publishing every cycle).
out=$(go test -timeout 5m -run '^$' -bench 'BenchmarkFrameW3$|BenchmarkFrameW3Telemetry$' -benchtime=3x -count=3 .)
echo "$out"
echo "$out" | awk '
	$1 ~ /^BenchmarkFrameW3(-[0-9]+)?$/        { if (bare == 0 || $3 < bare) bare = $3 }
	$1 ~ /^BenchmarkFrameW3Telemetry(-[0-9]+)?$/ { if (probed == 0 || $3 < probed) probed = $3 }
	END {
		if (bare == 0 || probed == 0) { print "FAIL: benchmark output missing" > "/dev/stderr"; exit 1 }
		ratio = probed / bare
		printf "telemetry overhead: %.1f%% (budget 2%%, gate 8%%)\n", 100 * (ratio - 1)
		if (ratio > 1.08) { print "FAIL: telemetry sampling overhead above gate" > "/dev/stderr"; exit 1 }
	}'

echo "== guarded test run (EMERALD_GUARD=1, short) =="
# Re-run the end-to-end simulation tests with the invariant checker
# armed: every probe must hold on the real machine under test load.
EMERALD_GUARD=1 go test -short -count=1 -timeout 10m ./internal/exp/ ./internal/soc/ ./internal/gpu/
echo "ok"

echo "all checks passed"
