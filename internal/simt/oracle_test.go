package simt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/mem"
	"emerald/internal/shader"
)

// The differential oracle: seeded random EIR programs run once through
// FuncExec and once through a timed Core, and must leave the same
// registers, predicates and memory. FuncExec has no scoreboard, no
// events, no LSU and no caches, so anything the timing machinery does to
// architectural state shows up as a difference. One Core serves every
// program, so its warps, memOps and LSU ring are recycled hundreds of
// times under the pool audit.

// Register plan of a generated program: r0 tid, r1 the warp's memory
// base (from %ctaid), r2 tid*4, r3 r1+r2, r4..r11 data, r12/r13 loop
// counters, r14 scratch for branch conditions.
const (
	oracleRegion  = 8192 // bytes of global memory per warp
	oracleConst   = 0x40_0000
	oracleBase    = 0x100_0000
	oracleDataLo  = 4
	oracleDataN   = 8
	oracleMaxNest = 2
)

type progGen struct {
	r      *rand.Rand
	b      strings.Builder
	labels int
	loops  int // live loop nesting (selects the counter register)
}

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
}

func (g *progGen) label(name string) { fmt.Fprintf(&g.b, "%s:\n", name) }

func (g *progGen) newLabel(stem string) string {
	g.labels++
	return fmt.Sprintf("%s%d", stem, g.labels)
}

func (g *progGen) data() string { return fmt.Sprintf("r%d", oracleDataLo+g.r.Intn(oracleDataN)) }
func (g *progGen) pred() string { return fmt.Sprintf("p%d", g.r.Intn(shader.NumPregs)) }

// guard returns an optional predication prefix.
func (g *progGen) guard() string {
	switch g.r.Intn(6) {
	case 0:
		return "@" + g.pred() + " "
	case 1:
		return "@!" + g.pred() + " "
	}
	return ""
}

func (g *progGen) fsrc() string {
	if g.r.Intn(3) == 0 {
		return fmt.Sprintf("%.3f", g.r.Float64()*8-4)
	}
	return g.data()
}

func (g *progGen) isrc() string {
	if g.r.Intn(3) == 0 {
		return fmt.Sprint(g.r.Intn(64) - 16)
	}
	return g.data()
}

// off returns a word-aligned offset that keeps [r3+off] inside the
// warp's region.
func (g *progGen) off() int { return 4 * g.r.Intn((oracleRegion-4*WarpSize)/4) }

func pick(r *rand.Rand, s ...string) string { return s[r.Intn(len(s))] }

// stmt emits one statement; depth bounds control-flow nesting.
func (g *progGen) stmt(depth int) {
	r := g.r
	switch k := r.Intn(20); {
	case k < 4:
		g.emit("%s%s %s, %s, %s", g.guard(), pick(r, "add", "sub", "mul", "min", "max"), g.data(), g.data(), g.fsrc())
	case k < 5:
		g.emit("%smad %s, %s, %s, %s", g.guard(), g.data(), g.data(), g.fsrc(), g.data())
	case k < 6:
		g.emit("%s%s %s, %s", g.guard(), pick(r, "abs", "neg", "flr", "frc", "mov", "cvt.f2i", "cvt.i2f"), g.data(), g.data())
	case k < 8:
		g.emit("%s%s %s, %s, %s", g.guard(), pick(r, "iadd", "isub", "imul", "imin", "imax", "and", "or", "xor", "shl", "shr"), g.data(), g.data(), g.isrc())
	case k < 9:
		g.emit("%s%s %s, %s", g.guard(), pick(r, "rcp", "rsq", "sqrt", "sin", "cos", "ex2", "lg2"), g.data(), g.data())
	case k < 11:
		if r.Intn(2) == 0 {
			g.emit("setp.%s.f %s, %s, %s", pick(r, "lt", "le", "gt", "ge", "eq", "ne"), g.pred(), g.data(), g.fsrc())
		} else {
			g.emit("setp.%s.i %s, %s, %s", pick(r, "lt", "le", "gt", "ge", "eq", "ne"), g.pred(), g.data(), g.isrc())
		}
	case k < 12:
		g.emit("selp %s, %s, %s, %s", g.data(), g.data(), g.data(), g.pred())
	case k < 14:
		// Per-lane and warp-uniform global loads.
		g.emit("%sldg %s, [%s+%d]", g.guard(), g.data(), pick(r, "r3", "r3", "r1"), g.off())
	case k < 16:
		g.emit("%sstg [%s+%d], %s", g.guard(), pick(r, "r3", "r3", "r1"), g.off(), g.data())
	case k < 17:
		switch r.Intn(4) {
		case 0:
			g.emit("%satom.add %s, [r1+%d], %s", g.guard(), g.data(), g.off(), g.data())
		case 1:
			g.emit("%slds %s, [r2+%d]", g.guard(), g.data(), 4*r.Intn(900))
		case 2:
			g.emit("%ssts [r2+%d], %s", g.guard(), 4*r.Intn(900), g.data())
		default:
			g.emit("%sldc %s, [%d]", g.guard(), g.data(), 4*r.Intn(64))
		}
	case k < 18:
		if r.Intn(4) == 0 {
			g.emit("@%s %s", g.pred(), pick(r, "exit", "kill"))
		} else {
			g.emit("nop")
		}
	case k < 19 && depth < oracleMaxNest:
		g.ifElse(depth)
	case depth < oracleMaxNest && g.loops < 2:
		g.loop(depth)
	default:
		g.emit("mov %s, %s", g.data(), g.fsrc())
	}
}

func (g *progGen) block(depth, n int) {
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
}

// condition sets a predicate that splits the warp's lanes (usually) and
// returns it.
func (g *progGen) condition() string {
	p := g.pred()
	if g.r.Intn(3) == 0 {
		g.emit("setp.lt.f %s, %s, %s", p, g.data(), g.data()) // data-dependent
	} else {
		g.emit("and r14, r0, %d", 1+g.r.Intn(31))
		g.emit("setp.eq.i %s, r14, 0", p)
	}
	return p
}

func (g *progGen) ifElse(depth int) {
	p, els, join := g.condition(), g.newLabel("else"), g.newLabel("join")
	g.emit("ssy %s", join)
	g.emit("@%s bra %s", p, els)
	g.block(depth+1, 1+g.r.Intn(4))
	g.emit("bra %s", join)
	g.label(els)
	g.block(depth+1, 1+g.r.Intn(4))
	g.label(join)
}

func (g *progGen) loop(depth int) {
	ctr := fmt.Sprintf("r%d", 12+g.loops)
	if g.r.Intn(2) == 0 {
		g.emit("iadd %s, 0, %d", ctr, 1+g.r.Intn(3))
	} else {
		g.emit("and %s, r0, 3", ctr) // lanes leave the loop at different trips
		g.emit("iadd %s, %s, 1", ctr, ctr)
	}
	top, done, p := g.newLabel("loop"), g.newLabel("done"), g.pred()
	g.label(top)
	g.loops++
	g.block(depth+1, 1+g.r.Intn(4))
	g.loops--
	g.emit("isub %s, %s, 1", ctr, ctr)
	g.emit("setp.gt.i %s, %s, 0", p, ctr)
	g.emit("ssy %s", done)
	g.emit("@%s bra %s", p, top)
	g.label(done)
}

// oracleSource generates one program from a seed.
func oracleSource(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.emit("movs r0, %%tid")
	g.emit("movs r1, %%ctaid")
	g.emit("shl r2, r0, 2")
	g.emit("iadd r3, r1, r2")
	g.emit("cvt.i2f r4, r0")
	for i := 1; i < oracleDataN; i++ {
		if g.r.Intn(2) == 0 {
			g.emit("ldg r%d, [r3+%d]", oracleDataLo+i, g.off())
		} else {
			g.emit("mov r%d, %.3f", oracleDataLo+i, g.r.Float64()*16-8)
		}
	}
	g.block(0, 8+g.r.Intn(16))
	g.emit("exit")
	return g.b.String()
}

// oracleProgram assembles the program for a seed.
func oracleProgram(tb testing.TB, seed int64) *shader.Program {
	tb.Helper()
	p, err := shader.Assemble(fmt.Sprintf("oracle%d", seed), shader.KindCompute, oracleSource(seed))
	if err != nil {
		tb.Fatalf("seed %d: %v\n%s", seed, err, oracleSource(seed))
	}
	return p
}

const oraclePrograms = 240

// oracleWarp is one launch of a generated program.
type oracleWarp struct {
	mask uint32
	sp   [WarpSize]shader.Special
}

// oracleSetup builds identical initial memory and launch parameters for
// one side of the comparison.
func oracleSetup(seed int64, warps int) (*mem.Memory, []*testEnv, []oracleWarp) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	m := mem.NewMemory()
	word := func() uint32 {
		if r.Intn(2) == 0 {
			return uint32(r.Intn(256))
		}
		return math.Float32bits(r.Float32()*64 - 32)
	}
	for a := uint64(0); a < 256; a += 4 {
		m.WriteU32(oracleConst+a, word())
	}
	envs := make([]*testEnv, warps)
	ws := make([]oracleWarp, warps)
	for i := range ws {
		base := uint64(oracleBase + i*oracleRegion)
		for a := uint64(0); a < oracleRegion; a += 4 {
			m.WriteU32(base+a, word())
		}
		env := newTestEnv()
		env.memory, env.constBase = m, oracleConst
		for j := range env.shared {
			env.shared[j] = byte(r.Intn(256))
		}
		envs[i] = env
		switch i {
		case 0:
			ws[i].mask = FullMask
		default:
			ws[i].mask = r.Uint32() | 1<<uint(r.Intn(WarpSize)) // partial, never empty
		}
		for lane := range ws[i].sp {
			ws[i].sp[lane] = shader.Special{TID: uint32(lane), NTID: WarpSize, CTAID: uint32(base)}
		}
	}
	return m, envs, ws
}

func TestDifferentialOracle(t *testing.T) {
	const warps = 3
	core := NewCore(DefaultCoreConfig(), nil)
	g := guard.NewChecker()
	core.AttachGuard(g)
	var fr FuncRunner
	cycle := uint64(0)
	lat := rand.New(rand.NewSource(7))

	for seed := int64(1); seed <= oraclePrograms; seed++ {
		prog := oracleProgram(t, seed)

		// Functional side.
		fm, fenvs, ws := oracleSetup(seed, warps)
		var want [warps][WarpSize]shader.Thread
		for i, w := range ws {
			fr.Exec(prog, fenvs[i], w.mask, w.sp)
			want[i] = fr.warp.Threads
		}

		// Timed side: the same launches on the shared core, against a
		// next level that answers after a few (seeded) cycles.
		tm, tenvs, _ := oracleSetup(seed, warps)
		var got [warps]*Warp
		for i, w := range ws {
			var err error
			if got[i], err = core.Launch(prog, tenvs[i], -1, w.mask, w.sp, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		type pending struct {
			at uint64
			r  *mem.Request
		}
		var inflight []pending
		for start := cycle; !core.Idle() || len(inflight) > 0; cycle++ {
			if cycle-start > 2_000_000 {
				t.Fatalf("seed %d: core never went idle\n%s", seed, oracleSource(seed))
			}
			core.Tick(cycle)
			for r := core.Out.Pop(); r != nil; r = core.Out.Pop() {
				inflight = append(inflight, pending{cycle + 1 + uint64(lat.Intn(40)), r})
			}
			kept := inflight[:0]
			for _, p := range inflight {
				if p.at <= cycle {
					p.r.Complete(cycle)
				} else {
					kept = append(kept, p)
				}
			}
			inflight = kept
			if cycle%8 == 0 {
				g.Tick(cycle)
			}
		}
		if v := g.Violations(); len(v) != 0 {
			t.Fatalf("seed %d: guard: %v", seed, v)
		}

		for i := range ws {
			if got[i].Threads != want[i] {
				for lane := 0; lane < WarpSize; lane++ {
					if got[i].Threads[lane] != want[i][lane] {
						t.Fatalf("seed %d warp %d lane %d: registers differ\ntimed %v\nfunc  %v\n%s",
							seed, i, lane, got[i].Threads[lane], want[i][lane], oracleSource(seed))
					}
				}
			}
			if tenvs[i].retired != 1 || fenvs[i].retired != 1 {
				t.Fatalf("seed %d warp %d: retired %d (timed) / %d (func), want 1", seed, i, tenvs[i].retired, fenvs[i].retired)
			}
			if string(tenvs[i].shared) != string(fenvs[i].shared) {
				t.Fatalf("seed %d warp %d: shared memory differs\n%s", seed, i, oracleSource(seed))
			}
			base := uint64(oracleBase + i*oracleRegion)
			for a := base; a < base+oracleRegion; a += 4 {
				if x, y := tm.ReadU32(a), fm.ReadU32(a); x != y {
					t.Fatalf("seed %d warp %d: memory %#x = %#x (timed) / %#x (func)\n%s", seed, i, a, x, y, oracleSource(seed))
				}
			}
		}
	}
	if core.divergences.Value() == 0 || core.L1D.Misses() == 0 {
		t.Fatal("oracle programs never diverged or never missed: the generator lost its coverage")
	}
	if len(core.freeWarps) != warps {
		t.Fatalf("free list holds %d warps after %d launches, want the %d that were ever resident together",
			len(core.freeWarps), oraclePrograms*warps, warps)
	}
}
