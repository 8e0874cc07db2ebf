package gpu

import (
	"testing"

	"emerald/internal/mem"
)

// A primitive in setup with fetches left to issue is due exactly when
// its cluster's NoC port has room: tickSetup builds nothing into a full
// port, so a full port makes it a wait, and the flit that leaves the
// port makes it due again. The rest of the GPU is idle here (no draw,
// idle cores, empty TC engines), so setup is clusterWake's only term.
func TestSetupDueOnlyWithPortRoom(t *testing.T) {
	g := New(CaseStudyIConfig(), mem.NewMemory(), nil)
	cl := g.clusters[0]
	port := g.noc.Port(cl.id)
	s := &cl.setup
	s.prim = &clusterPrim{fetch: [3]uint64{0x1000, 0x1040, 0x1080}}
	s.issued = 1
	s.reqs[0] = s.pool.New(mem.Request{Addr: 0x1000, Size: ovbRecordBytes, Kind: mem.Read})
	const c = 100
	wake := func() uint64 {
		n := len(g.charging)
		defer func() { g.charging = g.charging[:n] }()
		return g.clusterWake(cl, c)
	}
	if w := wake(); w != c {
		t.Fatalf("setup with two fetches left and an empty port: clusterWake = %d, want %d (now)", w, c)
	}
	for !port.Full() {
		port.MustPush(&mem.Request{Addr: 0x8000, Size: 64, Kind: mem.Read})
	}
	if w := wake(); w <= c {
		t.Fatalf("setup behind a full port: clusterWake = %d, want a wait past %d", w, c)
	}
	g.tickSetup(cl, nil, c)
	if s.issued != 1 {
		t.Fatalf("tickSetup issued into a full port: %d fetches issued, want 1", s.issued)
	}
	port.Pop() // the NoC takes one flit
	if w := wake(); w != c {
		t.Fatalf("one flit left the full port: clusterWake = %d, want %d (now)", w, c)
	}
	g.tickSetup(cl, nil, c)
	if s.issued != 2 || !port.Full() {
		t.Fatalf("after one flit left the port: %d fetches issued (want 2), port full = %v (want true)", s.issued, port.Full())
	}
	if w := wake(); w <= c {
		t.Fatalf("setup behind the refilled port: clusterWake = %d, want a wait past %d", w, c)
	}
}
