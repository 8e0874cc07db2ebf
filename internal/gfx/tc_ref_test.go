package gfx

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"emerald/internal/stats"
)

// refPopReady is the parent commit's PopReady, kept as the reference
// the dry latch is driven against: a linear scan of the ready queue
// against the in-flight positions on every call.
func refPopReady(u *TCUnit) *TCTileOut {
	for i, t := range u.ready {
		pos := [2]int{t.TX, t.TY}
		if slices.Contains(u.inflight, pos) {
			continue
		}
		u.inflight = append(u.inflight, pos)
		last := len(u.ready) - 1
		copy(u.ready[i:], u.ready[i+1:])
		u.ready[last] = nil
		u.ready = u.ready[:last]
		return t
	}
	return nil
}

// TestPopReadyAgainstLinearScan drives two TC units through the same
// seeded Stage/Tick/FlushAll/Complete/PopReady sequence, one popping
// with PopReady and one with the parent's scan, and compares every
// popped tile, every counter and the occupancy after each step. Few
// positions and engines keep positions colliding, so most calls find
// nothing launchable: the latch's common case.
func TestPopReadyAgainstLinearScan(t *testing.T) {
	var dryCalls, pops int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := TCConfig{Engines: 1 + rng.Intn(3), BinsPerEngine: 1 + rng.Intn(4),
			FlushTimeout: uint64(1 + rng.Intn(20)), ReadyDepth: 1 + rng.Intn(8)}
		regA, regB := stats.NewRegistry(), stats.NewRegistry()
		a, b := NewTCUnit(cfg, regA), NewTCUnit(cfg, regB)
		var shading [][2]int // popped tile positions not yet completed, pop order
		for cycle := uint64(0); cycle < 3000; cycle++ {
			where := fmt.Sprintf("seed %d cycle %d", seed, cycle)
			switch op := rng.Intn(10); {
			case op < 4:
				if a.CanStage() != b.CanStage() {
					t.Fatalf("%s: CanStage disagrees", where)
				}
				if a.CanStage() {
					x, y := 4*rng.Intn(6), 4*rng.Intn(4)
					cov, id, z := uint16(rng.Uint32())|1, uint32(rng.Intn(5)), rng.Float32()
					a.Stage(mkRasterTile(id, x, y, cov, z), cycle)
					b.Stage(mkRasterTile(id, x, y, cov, z), cycle)
				}
			case op < 6:
				a.Tick(cycle)
				b.Tick(cycle)
			case op < 7 && len(shading) > 0:
				i := rng.Intn(len(shading))
				a.Complete(shading[i][0], shading[i][1])
				b.Complete(shading[i][0], shading[i][1])
				shading = slices.Delete(shading, i, i+1)
			case op == 7 && rng.Intn(8) == 0:
				a.FlushAll()
				b.FlushAll()
			default:
				if a.dry {
					dryCalls++
				}
				ta, tb := a.PopReady(), refPopReady(b)
				if (ta == nil) != (tb == nil) {
					t.Fatalf("%s: PopReady = %+v, the linear scan %+v", where, ta, tb)
				}
				if ta != nil {
					if ta.TX != tb.TX || ta.TY != tb.TY || len(ta.Frags) != len(tb.Frags) ||
						prims(ta) != prims(tb) || ta.FullCover != tb.FullCover || ta.MaxZ != tb.MaxZ {
						t.Fatalf("%s: popped %+v, the linear scan %+v", where, ta, tb)
					}
					shading = append(shading, [2]int{ta.TX, ta.TY})
					pops++
				}
			}
			if err := a.AuditDry(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if len(a.ready) != len(b.ready) || fmt.Sprint(a.inflight) != fmt.Sprint(b.inflight) || a.Drained() != b.Drained() {
				t.Fatalf("%s: ready %d inflight %v, the linear scan %d %v", where, len(a.ready), a.inflight, len(b.ready), b.inflight)
			}
			var ca, cb []byte
			regA.Each(func(n string, v int64) { ca = fmt.Appendf(ca, "%s=%d ", n, v) })
			regB.Each(func(n string, v int64) { cb = fmt.Appendf(cb, "%s=%d ", n, v) })
			if string(ca) != string(cb) {
				t.Fatalf("%s: counters %s, the linear scan %s", where, ca, cb)
			}
		}
	}
	if dryCalls == 0 || pops == 0 {
		t.Fatalf("coverage lost: %d calls answered by the latch, %d tiles popped", dryCalls, pops)
	}
	t.Logf("%d tiles popped, %d calls answered by the latch", pops, dryCalls)
}

// A Complete that frees a position without clearing the latch leaves a
// launchable tile behind a "nothing launchable" answer: the audit must
// name it.
func TestAuditDryCatchesSilentComplete(t *testing.T) {
	u := NewTCUnit(DefaultTCConfig(), nil)
	u.Stage(mkRasterTile(1, 0, 0, 0x0001, 0.3), 0)
	u.Stage(mkRasterTile(2, 0, 0, 0x0001, 0.4), 1) // same pixel: a second tile at the same position
	u.FlushAll()
	first := u.PopReady()
	if first == nil || u.PopReady() != nil || !u.dry {
		t.Fatal("setup: the second tile should wait behind the first, latched dry")
	}
	if err := u.AuditDry(); err != nil {
		t.Fatalf("a healthy latch was reported: %v", err)
	}
	u.inflight = u.inflight[:0] // Complete's release, without its latch clear
	if err := u.AuditDry(); err == nil {
		t.Fatal("a Complete that did not clear the latch went unreported")
	}
	u.Complete(first.TX, first.TY)
	if err := u.AuditDry(); err != nil || u.PopReady() == nil {
		t.Fatalf("after a real Complete: audit %v, and the second tile must launch", err)
	}
}
