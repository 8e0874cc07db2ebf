package exp

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"emerald/internal/geom"
	"emerald/internal/soc"
	"emerald/internal/stats"
)

// This file is the one experiment plan. A figure request (which
// figures, over which models, configs and workloads, at which scale)
// expands here, and only here, into the simulation cells the figures
// read: memstudy and dfsl simulate the cells in process (Plan.Simulate),
// and the sweep service submits them as jobs (sweep.RunFigures through
// Plan.Run). Which figures share a matrix, the order the cells run in and
// how each figure is built from its cells are written once.

// CaseStudyI and CaseStudyII list each case study's figures in print
// order: what memstudy and dfsl offer.
var (
	CaseStudyI  = []string{"9", "10", "11", "12", "13", "14"}
	CaseStudyII = []string{"17", "18", "19"}
)

// CellKind names what a cell simulates.
type CellKind int

// Cell kinds.
const (
	CS1Cell     CellKind = iota // one Case Study I SoC run (Figs 9-14): soc.Results and a bandwidth timeline
	SweepCell                   // one workload's WT sweep (Fig 17, and Fig 19's SOPT pick)
	WTPointCell                 // one Fig 18 point: a fresh system, a warmup and one measured frame at WT
	PolicyCell                  // one workload under one Fig 19 policy
	RegionCell                  // one sampled-simulation region (RunRegionJob)
)

// Cell is one independent simulation: a cell of a figure matrix, or a
// region of a sampled run. Only the fields its kind reads are set, so
// equal cells are the same simulation.
type Cell struct {
	Kind     CellKind
	Model    int        // CS1Cell
	Config   MemConfig  // CS1Cell
	Mbps     int        // CS1Cell
	Workload int        // SweepCell, WTPointCell, PolicyCell, RegionCell
	WT       int        // WTPointCell
	Policy   DFSLPolicy // PolicyCell
	SOPT     int        // PolicyCell whose Policy is SOPT
	Frames   int        // RegionCell: the scenario's length
	Start    int        // RegionCell: its first measured frame
	Span     int        // RegionCell: its measured frames
}

// CellResult is what a cell yields: the field of its kind.
type CellResult struct {
	CS1       soc.Results     // CS1Cell
	Timeline  *stats.Timeline // CS1Cell
	Cycles    []uint64        // SweepCell: frame cycles at WT 1..MaxWT
	Point     [4]float64      // WTPointCell: frame cycles, then L1 color, texture and depth misses
	AvgCycles float64         // PolicyCell
	Region    *RegionResult   // RegionCell
}

// RunCell simulates one cell on a private system.
func RunCell(c Cell, opt Options) (CellResult, error) {
	var r CellResult
	var err error
	switch c.Kind {
	case CS1Cell:
		r.CS1, r.Timeline, err = runCS1(c.Model, c.Config, c.Mbps, opt, true)
	case SweepCell:
		r.Cycles, err = RunWTSweep(c.Workload, opt)
	case WTPointCell:
		r.Point, err = runWTPoint(c.Workload, c.WT, opt)
	case PolicyCell:
		r.AvgCycles, err = RunCS2Policy(c.Workload, c.Policy, c.SOPT, opt)
	case RegionCell:
		r.Region, err = RunRegionJob(c.Workload, c.Frames, c.Start, c.Span, opt)
	default:
		err = fmt.Errorf("exp: unknown cell kind %d", c.Kind)
	}
	return r, err
}

// figure is one row of the paper's figure list: the cells it reads
// (Figure 19's policy runs aside: they wait for SOPT) and how it is
// built from their results, as a table or as one timeline per cell.
// Figures 10 and 14 read the timelines of runs in the matrices of 9 and
// 12, so with those models planned they cost no simulation of their own.
type figure struct {
	cells    func(p *Plan) []Cell
	table    func(r *Results) *stats.Table
	headings []string // a timeline figure's, one per cell
}

var figures = map[string]figure{
	"9": {cells: (*Plan).regular, table: func(r *Results) *stats.Table {
		return Fig09Table(r.CS1(r.plan.Opt.RegularMbps))
	}},
	"10": {cells: func(p *Plan) []Cell {
		return []Cell{{Kind: CS1Cell, Model: geom.M3Mask, Config: HMC, Mbps: p.Opt.RegularMbps}}
	}, headings: []string{"Figure 10: M3-HMC DRAM bandwidth by source (bytes/cycle)"}},
	"11": {cells: (*Plan).regular, table: fig11Table},
	"12": {cells: (*Plan).high, table: fig12Table},
	"13": {cells: (*Plan).high, table: fig13Table},
	"14": {cells: func(p *Plan) []Cell {
		return []Cell{
			{Kind: CS1Cell, Model: geom.M1Chair, Config: BAS, Mbps: p.Opt.HighMbps},
			{Kind: CS1Cell, Model: geom.M1Chair, Config: DTB, Mbps: p.Opt.HighMbps},
		}
	}, headings: []string{
		"Figure 14a: M1 under BAS, DRAM bandwidth by source (bytes/cycle)",
		"Figure 14b: M1 under DASH-DTB, DRAM bandwidth by source (bytes/cycle)",
	}},
	"17": {cells: (*Plan).sweeps, table: fig17Table},
	"18": {cells: (*Plan).wtPoints, table: fig18Table},
	"19": {cells: (*Plan).sweeps, table: fig19Table},
}

// Plan is a figure request: which figures, over which slices of the
// paper's matrices (Tables 6 and 8), at which scale.
type Plan struct {
	Figs      []string    // figure names, in print order
	Models    []int       // Case Study I models (nil: M1-M4)
	Configs   []MemConfig // Case Study I configurations (nil: Table 6's four)
	Workloads []int       // Case Study II workloads (nil: W1-W6)
	// Opt fixes the scale (DRAM rates, MaxWT, run lengths). Simulate
	// also runs every cell with it; Run's caller decides how cells run.
	Opt Options
}

// regular and high are the Case Study I matrices, model-major, at the
// regular and the high-load DRAM rate.
func (p *Plan) regular() []Cell { return p.matrix(p.Opt.RegularMbps) }
func (p *Plan) high() []Cell    { return p.matrix(p.Opt.HighMbps) }

func (p *Plan) matrix(mbps int) []Cell {
	var out []Cell
	for _, m := range p.Models {
		for _, c := range p.Configs {
			out = append(out, Cell{Kind: CS1Cell, Model: m, Config: c, Mbps: mbps})
		}
	}
	return out
}

// sweeps is one WT sweep per workload.
func (p *Plan) sweeps() []Cell {
	var out []Cell
	for _, w := range p.Workloads {
		out = append(out, Cell{Kind: SweepCell, Workload: w})
	}
	return out
}

// wtPoints is Figure 18's W1 system per WT size, so each point's miss
// counters are its own.
func (p *Plan) wtPoints() []Cell {
	var out []Cell
	for wt := 1; wt <= p.Opt.MaxWT; wt++ {
		out = append(out, Cell{Kind: WTPointCell, Workload: geom.W1Sibenik, WT: wt})
	}
	return out
}

// policyCells is Figure 19's second phase, workload-major: every policy
// on every workload, SOPT at the WT the sweeps picked.
func (p *Plan) policyCells(sopt int) []Cell {
	var out []Cell
	for _, w := range p.Workloads {
		for _, pol := range AllDFSLPolicies() {
			c := Cell{Kind: PolicyCell, Workload: w, Policy: pol}
			if pol == SOPT {
				c.SOPT = sopt
			}
			out = append(out, c)
		}
	}
	return out
}

// cells lists what the planned figures read, Figure 19's policy runs
// aside, each cell once, in the order a sequential run simulates them:
// figure by figure, each figure's cells in matrix order.
func (p *Plan) cells() []Cell {
	seen := make(map[Cell]bool)
	var out []Cell
	for _, name := range p.Figs {
		for _, c := range figures[name].cells(p) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Run expands the plan into cells and hands them to batch, which runs
// independent cells (simulating them, or fetching them from the sweep
// service) and returns their results by index. It makes two calls when
// Figure 19 is planned: the policy runs need the SOPT the WT sweeps
// pick, so they go in a second batch; otherwise one.
func (p Plan) Run(batch func([]Cell) ([]CellResult, error)) (*Results, error) {
	for _, name := range p.Figs {
		if _, ok := figures[name]; !ok {
			return nil, fmt.Errorf("exp: unknown figure %q", name)
		}
	}
	if len(p.Models) == 0 {
		p.Models = []int{geom.M1Chair, geom.M2Cube, geom.M3Mask, geom.M4Triangles}
	}
	if len(p.Configs) == 0 {
		p.Configs = AllMemConfigs()
	}
	if len(p.Workloads) == 0 {
		p.Workloads = []int{geom.W1Sibenik, geom.W2Spot, geom.W3Cube,
			geom.W4Suzanne, geom.W5SuzanneT, geom.W6Teapot}
	}
	r := &Results{plan: p, cells: make(map[Cell]CellResult)}
	if err := r.add(batch, p.cells()); err != nil {
		return nil, err
	}
	if slices.Contains(p.Figs, "19") {
		r.sopt = r.pickSOPT()
		if err := r.add(batch, p.policyCells(r.sopt)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Simulate runs the plan in process: every cell on its own system through
// run (RunCell, or a test's stand-in), up to p.Opt.Workers at once, under
// runCells' rules.
func (p Plan) Simulate(run func(Cell, Options) (CellResult, error)) (*Results, error) {
	return p.Run(func(cells []Cell) ([]CellResult, error) {
		return runCells(p.Opt, len(cells), func(i int) (CellResult, error) {
			return run(cells[i], p.Opt)
		})
	})
}

// Results holds a run plan's cell results.
type Results struct {
	plan  Plan
	sopt  int // Figure 19's static WT; 0 unless Figure 19 is planned
	cells map[Cell]CellResult
}

// add runs one batch of cells and records their results.
func (r *Results) add(batch func([]Cell) ([]CellResult, error), cells []Cell) error {
	res, err := batch(cells)
	if err != nil {
		return err
	}
	for i, c := range cells {
		r.cells[c] = res[i]
	}
	return nil
}

// CS1 returns the Case Study I matrix at a DRAM rate, by [model][config].
func (r *Results) CS1(mbps int) CS1Results {
	out := make(CS1Results)
	for _, m := range r.plan.Models {
		out[m] = make(map[MemConfig]soc.Results)
		for _, c := range r.plan.Configs {
			out[m][c] = r.cells[Cell{Kind: CS1Cell, Model: m, Config: c, Mbps: mbps}].CS1
		}
	}
	return out
}

// Policies returns Figure 19's average frame cycles by [workload][policy].
func (r *Results) Policies() map[int]map[DFSLPolicy]float64 {
	out := make(map[int]map[DFSLPolicy]float64)
	for _, c := range r.plan.policyCells(r.sopt) {
		if out[c.Workload] == nil {
			out[c.Workload] = make(map[DFSLPolicy]float64)
		}
		out[c.Workload][c.Policy] = r.cells[c].AvgCycles
	}
	return out
}

// Figures builds the planned figures, in plan order.
func (r *Results) Figures() []Figure {
	var out []Figure
	for _, name := range r.plan.Figs {
		f := figures[name]
		fig := Figure{Name: name, headings: f.headings}
		if f.table != nil {
			fig.Table = f.table(r)
		} else {
			for _, c := range f.cells(&r.plan) {
				fig.Timelines = append(fig.Timelines, r.cells[c].Timeline)
			}
		}
		out = append(out, fig)
	}
	return out
}

// Figure is one regenerated figure: a table, or for Figures 10 and 14
// bandwidth timelines, each printed under its heading.
type Figure struct {
	Name      string
	Table     *stats.Table
	Timelines []*stats.Timeline

	headings []string
}

// Write prints the figure.
func (f Figure) Write(w io.Writer) {
	if f.Table != nil {
		f.Table.Write(w)
		return
	}
	for i, tl := range f.Timelines {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== %s ==\n", f.headings[i])
		tl.Dump(w, 0)
	}
}

// WriteFigures prints figures, given in print order (ParseFigs'), as
// memstudy and dfsl do: each followed by a blank line, except a case
// study's last figure (14, 19), with which -fig all ends.
func WriteFigures(w io.Writer, figs []Figure) {
	for _, f := range figs {
		f.Write(w)
		if f.Name != CaseStudyI[len(CaseStudyI)-1] && f.Name != CaseStudyII[len(CaseStudyII)-1] {
			fmt.Fprintln(w)
		}
	}
}

// ParseFigs parses a -fig value against the figures a front end offers:
// "all" for every one of them, or a comma-separated list of them with no
// repeats. Either way the figures come back in print order (offered's),
// the order WriteFigures' layout assumes.
func ParseFigs(list string, offered []string) ([]string, error) {
	if list == "all" {
		return slices.Clone(offered), nil
	}
	var given []string
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(offered, f) {
			return nil, fmt.Errorf("unknown figure %q (want a comma-separated list from %s, or all)",
				f, strings.Join(offered, "|"))
		}
		if slices.Contains(given, f) {
			return nil, fmt.Errorf("repeated figure %q", f)
		}
		given = append(given, f)
	}
	var figs []string
	for _, f := range offered {
		if slices.Contains(given, f) {
			figs = append(figs, f)
		}
	}
	return figs, nil
}
