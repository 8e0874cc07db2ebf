package exp

import (
	"reflect"
	"strings"
	"testing"

	"emerald/internal/geom"
	"emerald/internal/stats"
)

// TestPlanExpandsEachCellOnce: a plan hands its batch every cell its
// figures read, once, in the order a sequential run simulates them
// (figure by figure, matrix order within a figure), and Figure 19's
// policy runs in a second batch at the SOPT its sweeps pick. Figures 10
// and 14 cost no run of their own when their models are in the
// matrices.
func TestPlanExpandsEachCellOnce(t *testing.T) {
	opt := Smoke()
	opt.MaxWT = 2
	cs1 := func(m int, c MemConfig, mbps int) Cell { return Cell{Kind: CS1Cell, Model: m, Config: c, Mbps: mbps} }
	sweep := func(w int) Cell { return Cell{Kind: SweepCell, Workload: w} }
	point := func(wt int) Cell { return Cell{Kind: WTPointCell, Workload: geom.W1Sibenik, WT: wt} }
	policies := func(w, sopt int) []Cell {
		return []Cell{
			{Kind: PolicyCell, Workload: w, Policy: MLB},
			{Kind: PolicyCell, Workload: w, Policy: MLC},
			{Kind: PolicyCell, Workload: w, Policy: SOPT, SOPT: sopt},
			{Kind: PolicyCell, Workload: w, Policy: DFSL},
		}
	}
	reg, high := opt.RegularMbps, opt.HighMbps
	for _, tc := range []struct {
		name    string
		plan    Plan
		batches [][]Cell
	}{
		{"case study I", Plan{Figs: CaseStudyI, Models: []int{2}}, [][]Cell{{
			cs1(2, BAS, reg), cs1(2, DCB, reg), cs1(2, DTB, reg), cs1(2, HMC, reg),
			cs1(geom.M3Mask, HMC, reg),
			cs1(2, BAS, high), cs1(2, DCB, high), cs1(2, DTB, high), cs1(2, HMC, high),
			cs1(geom.M1Chair, BAS, high), cs1(geom.M1Chair, DTB, high),
		}}},
		{"figures 10 and 14 read the matrices' runs", Plan{Figs: CaseStudyI, Models: []int{1, 3}, Configs: []MemConfig{BAS, DTB, HMC}},
			[][]Cell{{
				cs1(1, BAS, reg), cs1(1, DTB, reg), cs1(1, HMC, reg), cs1(3, BAS, reg), cs1(3, DTB, reg), cs1(3, HMC, reg),
				cs1(1, BAS, high), cs1(1, DTB, high), cs1(1, HMC, high), cs1(3, BAS, high), cs1(3, DTB, high), cs1(3, HMC, high),
			}}},
		{"figures 13 and 11, two configs", Plan{Figs: []string{"13", "11"}, Models: []int{1, 3}, Configs: []MemConfig{HMC, BAS}},
			[][]Cell{{
				cs1(1, HMC, high), cs1(1, BAS, high), cs1(3, HMC, high), cs1(3, BAS, high),
				cs1(1, HMC, reg), cs1(1, BAS, reg), cs1(3, HMC, reg), cs1(3, BAS, reg),
			}}},
		{"case study II", Plan{Figs: CaseStudyII, Workloads: []int{3, 2}}, [][]Cell{
			{sweep(3), sweep(2), point(1), point(2)},
			append(policies(3, 2), policies(2, 2)...),
		}},
		{"figure 19 alone, default workloads", Plan{Figs: []string{"19"}}, [][]Cell{
			{sweep(1), sweep(2), sweep(3), sweep(4), sweep(5), sweep(6)},
			append(append(append(append(append(policies(1, 2), policies(2, 2)...), policies(3, 2)...),
				policies(4, 2)...), policies(5, 2)...), policies(6, 2)...),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.plan.Opt = opt
			var batches [][]Cell
			res, err := tc.plan.Run(func(cells []Cell) ([]CellResult, error) {
				batches = append(batches, cells)
				out := make([]CellResult, len(cells))
				for i := range out {
					// WT 2 is the faster size on every workload, so SOPT is 2.
					out[i].Cycles = []uint64{200, 100}
					out[i].Timeline = stats.NewTimeline(1)
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batches, tc.batches) {
				t.Errorf("batches\n%v\nwant\n%v", batches, tc.batches)
			}
			figs := res.Figures()
			if len(figs) != len(tc.plan.Figs) {
				t.Fatalf("%d figures for %v", len(figs), tc.plan.Figs)
			}
			for i, f := range figs {
				if f.Name != tc.plan.Figs[i] || (f.Table == nil) == (f.Timelines == nil) {
					t.Errorf("figure %d is %q with table %v and %d timelines", i, f.Name, f.Table != nil, len(f.Timelines))
				}
				if f.Name == "19" && !strings.Contains(tableText(f.Table), "SOPT=WT2") {
					t.Errorf("figure 19 did not pick SOPT=WT2:\n%s", tableText(f.Table))
				}
			}
		})
	}

	if _, err := (Plan{Figs: []string{"15"}}).Run(nil); err == nil || !strings.Contains(err.Error(), `unknown figure "15"`) {
		t.Errorf("an unknown figure gave %v", err)
	}
}

// TestParseFigs: the -fig parser of memstudy, dfsl and sweep.
func TestParseFigs(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string
		err  string
	}{
		{"all", CaseStudyI, ""},
		{"12", []string{"12"}, ""},
		{" 9, 11", []string{"9", "11"}, ""},
		{"14,9", []string{"9", "14"}, ""},
		{"17", nil, `unknown figure "17" (want a comma-separated list from 9|10|11|12|13|14, or all)`},
		{"11,", nil, `unknown figure ""`},
		{"9,11,9", nil, `repeated figure "9"`},
	} {
		got, err := ParseFigs(tc.list, CaseStudyI)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseFigs(%q) error %v, want %q", tc.list, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFigs(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}

// TestWriteFiguresLayout: whatever order -fig lists them in, the
// figures print in print order one blank line apart, with one more
// blank line at the end unless a case study's last figure (14, 19) is
// printed last.
func TestWriteFiguresLayout(t *testing.T) {
	for _, tc := range []struct {
		list    string
		offered []string
		last    string // the figure printed last
		blank   bool   // a blank line after it
	}{
		{"14,9", CaseStudyI, "14", false},
		{"11,9", CaseStudyI, "11", true},
		{"19,17", CaseStudyII, "19", false},
	} {
		names, err := ParseFigs(tc.list, tc.offered)
		if err != nil {
			t.Fatal(err)
		}
		var figs []Figure
		var want strings.Builder
		for i, name := range names {
			tab := stats.NewTable("Figure "+name, "x")
			figs = append(figs, Figure{Name: name, Table: tab})
			if i > 0 {
				want.WriteString("\n")
			}
			tab.Write(&want)
		}
		if tc.blank {
			want.WriteString("\n")
		}
		var got strings.Builder
		WriteFigures(&got, figs)
		if names[len(names)-1] != tc.last || got.String() != want.String() {
			t.Errorf("-fig %s printed %v as\n%q\nwant\n%q", tc.list, names, got.String(), want.String())
		}
	}
}
