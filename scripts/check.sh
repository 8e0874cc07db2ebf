#!/bin/sh
# Pre-PR gate: formatting, vet, the full test suite, a race-detector
# pass (shortened: race mode pays ~20x per simulated cycle, and the
# determinism tests honor -short) and the time-advance determinism gate.
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

echo "== allocation gates and hot-path references (uncached) =="
# The zero-allocation tick, the warm-launch and warm-frame object
# budgets, the page directory's byte budget, a smoke cell's bytes, the blocked access that
# builds nothing, the pool's own contract, and the differential
# references of the hot paths: the vertex batch ring wrapping against
# ExecuteDrawFunc, the ready
# set and the parking LSU against the full-scan scheduler and
# retry-every-cycle LSU, a core acting on its memoised waits against
# the stepped tick that never memoises (and a fill on each L1 ending its
# nap), the parking crossbar against the retry-every-cycle one (all
# three once more under the guard, which
# re-offers what they park and audits every memoised wait), PopReady's
# latch against the linear scan, Refused against a blocked Access, and
# the lane loops against single-lane ExecALU: -count=1 so the test cache
# cannot answer for them. The static rules (the backpressure contract,
# the warp-wake and wait-memo inventories, request and
# draw-record allocation, the map-field lint and TestExportedSurface's
# no-func-without-a-caller census of internal/) are tier-1 go/ast tests
# in the root package: TestBackpressureContract and inventory_test.go.
# TestExportedSurface also runs here, uncached, because it reads every
# package of the module from source: a cached result must not answer
# for a function that a change elsewhere left without a caller.
go test -count=1 -timeout 5m -run 'TestSteadyStateTickDoesNotAllocate|TestReadySetAgainstFullScanReference|TestMemoisedWaitAgainstSteppedTick|TestFillEndsTheNap' ./internal/simt
# A napping core costs the cluster loop two compares only while
# simt.Core.Tick inlines there.
if ! go build -gcflags=-m ./internal/simt 2>&1 | grep -q 'can inline (\*Core).Tick$'; then
	echo "check.sh: simt.(*Core).Tick no longer inlines (go build -gcflags=-m ./internal/simt)" >&2
	exit 1
fi
go test -count=1 -timeout 5m -run 'TestParkingAgainstRetryEveryCycleReference' ./internal/interconnect
EMERALD_GUARD=1 go test -count=1 -timeout 5m -run 'TestReadySetAgainstFullScanReference|TestMemoisedWaitAgainstSteppedTick|TestParkingAgainstRetryEveryCycleReference' ./internal/simt ./internal/interconnect
go test -count=1 -timeout 5m -run 'TestPopReadyAgainstLinearScan' ./internal/gfx
go test -count=1 -timeout 5m -run 'TestExecALULanesMatchesExecALU' ./internal/shader
go test -count=1 -timeout 5m -run 'TestWarmKernelLaunchAllocatesOnlyBookkeeping|TestWarmFrameAllocatesOnlyBookkeeping|TestBatchRingWrapsLikeFunctional' ./internal/gpu
go test -count=1 -timeout 5m -run 'TestBlockedAccessAllocatesNothing|TestRequestsAreRecycledByTheirIssuer|TestRefusedHasTheEffectsOfABlockedAccess' ./internal/cache
go test -count=1 -timeout 5m -run 'TestPoolRecyclingAndPoison|TestQueueDrainTo|TestDirectoryAllocatesOnlyTouchedNodes' ./internal/mem
go test -count=1 -timeout 5m -run 'TestFrameAllocationTripwire|TestExportedSurface' .
# One smoke Case Study I cell's host allocation: scene assets enter
# simulated memory without host copies.
go test -count=1 -timeout 5m -run 'TestCellAllocationTripwire' ./internal/exp

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

echo "== go test (tier-1, one core) =="
# The suite is green on one core as on two: the whole of it once more,
# uncached, under GOMAXPROCS=1, one package at a time.
GOMAXPROCS=1 go test -count=1 -p 1 -timeout 10m ./...
echo "ok"

echo "== assembler fuzz (10 s + 5 s) =="
go test -timeout 5m -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 10s ./internal/shader
go test -timeout 5m -run '^$' -fuzz '^FuzzCPUAssemble$' -fuzztime 5s ./internal/cpu

echo "== service-plane decoder fuzz (4 x 5 s) =="
# Journal records, store footers and the replication endpoint's payload
# gate all parse bytes a crash, a bad disk or a confused peer wrote; a
# job spec's key must depend on nothing but what the simulation does.
go test -timeout 5m -run '^$' -fuzz '^FuzzSpecKey$' -fuzztime 5s ./internal/sweep
go test -timeout 5m -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 5s ./internal/sweep
go test -timeout 5m -run '^$' -fuzz '^FuzzStoreFooter$' -fuzztime 5s ./internal/sweep
go test -timeout 5m -run '^$' -fuzz '^FuzzValidatePayload$' -fuzztime 5s ./internal/fleet

echo "== trace, checkpoint and sampling-pass decoder fuzz (3 x 5 s) =="
# tracetool -replay/-resume/-analyze and region jobs read these files;
# the seeds are a recorded W3 trace and a checkpoint of it. Minimisation
# is off: the seeds carry a 256 KiB texture, and shrinking one
# interesting mutation of that takes longer than the whole run.
go test -timeout 5m -run '^$' -fuzz '^FuzzLoadReplay$' -fuzztime 5s -fuzzminimizetime 0 ./internal/trace
go test -timeout 5m -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 5s -fuzzminimizetime 0 ./internal/trace
go test -timeout 5m -run '^$' -fuzz '^FuzzSamplePass$' -fuzztime 5s -fuzzminimizetime 0 ./internal/sample

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

echo "== determinism (default vs every-cycle, skip-only, wheel-only) + wake contract + skip tripwire =="
# The digest gates — "wheel-only" is SetEventWheel alone: clock jumps
# off, the loop's Park on, so a part that is not due at its turn is
# charged for the cycle instead of ticked — and every NextWake
# implementor driven through
# a crafted busy period: reporting a wake later than the first
# self-driven state change is the silent-correctness bug class that
# parking and clock jumps turn into wrong results. The tripwires fail
# when a high-load cell stops jumping its memory-bound cycles, and when
# the idle SoC's skipped share falls below its floor (backpressured
# waits ticked again instead of jumped). TestExperimentsCaseStudyI
# (the pattern also runs TestExperimentsCaseStudyII) renders Case Study
# I's tables and Figures 17 and 18 at quick scale and compares them with
# EXPERIMENTS.md and with the paper's findings: a change that moves a
# figure has to move the document with it.
go test -count=1 -timeout 10m -run 'TestTimeAdvanceDeterminism|TestNextWakeContract|TestHighLoadCellSkipsMemoryBoundCycles|TestExperimentsCaseStudyI' ./internal/exp
go test -count=1 -run 'TestIdleSkipPreservesResults' ./internal/soc
# The determinism contract holds on one core too: the digest gates once
# more under GOMAXPROCS=1 (short: one frame of one cell; about 1 s), and
# the pinned digests of testdata/digests.json with them (the smoke
# figures; about 6 s), so one core reproduces the recorded values, not
# only the modes' agreement.
GOMAXPROCS=1 go test -count=1 -short -timeout 5m -run 'TestTimeAdvanceDeterminism|TestPinnedDigests' ./internal/exp

echo "== checkpoint-resume digest gate =="
# The sampled-simulation contract: the functional executor's memory is
# bit-identical to the detailed pipeline's, a region resumed from a
# checkpoint digests identically across file round trips and the
# every-cycle mode, a sweep region job is a pure function of its
# canonical spec, and the service's sampled path (regions as jobs over
# HTTP) measures what the in-process pipeline does, then hits the cache.
go test -count=1 -timeout 5m -run 'TestFunctionalMatchesDetailed|TestCheckpointResumeFidelity|TestRunRegionJobDeterministic|TestRunSampleMatchesInProcess' ./internal/exp ./internal/sweep

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
# that is 2% of frame time, the gate 8%. BenchmarkFrameW3TelemetryOverhead
# renders the same W3 frames on a bare and a probed system in
# alternating order (bare, probed, probed, bare) and reports the median
# probed/bare over 41 such quartets, so a slow spell of a shared host
# lands on both systems. Ten runs on a 2-vCPU host read -2.8% to +3.1%;
# a probe that publishes on every ticked cycle and every jump read
# +4.9% to +9.0%, which the 8% gate caught 4 times in 10.
out=$(go test -timeout 5m -run '^$' -bench 'BenchmarkFrameW3TelemetryOverhead$' -benchtime=41x .)
echo "$out"
echo "$out" | awk '
	$1 ~ /^BenchmarkFrameW3TelemetryOverhead(-[0-9]+)?$/ {
		for (i = 4; i < NF; i++) if ($(i + 1) == "probed/bare") ratio = $i
	}
	END {
		if (ratio == 0) { print "FAIL: benchmark output missing" > "/dev/stderr"; exit 1 }
		printf "telemetry overhead: %.1f%% (median of 41 alternating quartets; budget 2%%, gate 8%%)\n", 100 * (ratio - 1)
		if (ratio > 1.08) { print "FAIL: telemetry sampling overhead above gate" > "/dev/stderr"; exit 1 }
	}'

echo "== guarded test run (EMERALD_GUARD=1, short) =="
# Re-run the end-to-end simulation tests with the invariant checker
# armed: every probe must hold on the real machine under test load.
EMERALD_GUARD=1 go test -short -count=1 -timeout 10m ./internal/exp/ ./internal/soc/ ./internal/gpu/
echo "ok"

echo "all checks passed"
