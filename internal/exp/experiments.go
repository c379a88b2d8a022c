package exp

import (
	"fmt"
	"slices"
	"strings"
)

// Options are the expbench flags that bound the FXRZ-vs-FRaZ grid; rows that
// do not run it ignore them.
type Options struct {
	// Comps is the compressor subset (empty: CompressorNames).
	Comps []string
	// MaxTestFields caps the test fields used per application.
	MaxTestFields int
}

// Experiment is one row of the evaluation roster: cmd/expbench, the docs'
// `expbench -exp <id>` lines and TestExperimentTable all range over
// Experiments.
type Experiment struct {
	// ID is the `expbench -exp` name; Aliases resolve to the same row.
	ID      string
	Aliases []string
	// Paper names the paper artefact the row reproduces. It is empty for a
	// row that only bundles other rows' output, which `all` therefore skips.
	Paper string
	// FRaZ marks the rows that pay for a FRaZ search grid — what -nofraz
	// exists to skip.
	FRaZ bool
	// Run produces the row's result; its String() is what expbench prints.
	Run func(*Session, Options) (fmt.Stringer, error)
}

// Experiments lists every experiment in the order `expbench -exp all` runs
// them.
var Experiments = []Experiment{
	{ID: "fig2", Paper: "Fig 2", Run: of(Fig2)},
	{ID: "fig3", Aliases: []string{"table1"}, Paper: "Fig 3, Table I", Run: of(Fig3Table1)},
	{ID: "fig4", Paper: "Fig 4", Run: of(Fig4)},
	{ID: "fig6", Paper: "Fig 6", Run: of(Fig6)},
	{ID: "table2", Paper: "Table II", Run: of(Table2)},
	{ID: "table3", Paper: "Table III", Run: table3.run},
	{ID: "sampling", Paper: "Fig 5/§IV-E1", Run: sampling.run},
	{ID: "table4", Paper: "Table IV", Run: table4.run},
	{ID: "fig7", Paper: "Fig 7", Run: of(Fig7)},
	{ID: "table7", Paper: "Table VII / §V-E", Run: table7.run},
	{ID: "fig89", Paper: "Fig 8/9", Run: of(Fig89)},
	{ID: "fig10", Paper: "Fig 10", Run: of(Fig10)},
	{ID: "fig11", Paper: "Fig 11", Run: of(Fig11)},
	{ID: "table6", Paper: "Table VI", Run: of(Table6)},
	{ID: "zfprate", Paper: "§II (ablation)", Run: of(ZFPRate)},
	{ID: "importance", Paper: "(extension)", Run: of(Importance)},
	{ID: "fig12", Paper: "Fig 12", FRaZ: true, Run: view((*CompareResult).Fig12String)},
	{ID: "fig13", Paper: "Fig 13", FRaZ: true, Run: view((*CompareResult).Fig13String)},
	{ID: "capability", Paper: "§IV-A", FRaZ: true, Run: view((*CompareResult).CapabilityString)},
	{ID: "table8", Paper: "Table VIII", FRaZ: true, Run: view((*CompareResult).Table8String)},
	{ID: "compare", FRaZ: true, Run: view(func(r *CompareResult) string {
		return r.Fig12String() + "\n" + r.Fig13String() + "\n" + r.CapabilityString() + "\n" + r.Table8String()
	})},
	{ID: "fig14", Paper: "Fig 14", FRaZ: true, Run: of(Fig14)},
	{ID: "dump", Paper: "§V/abstract", Run: of(Dump)},
}

// Lookup resolves an `expbench -exp` name to its row.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id || slices.Contains(e.Aliases, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (want all or one of %s)", id, strings.Join(IDs(nil), ", "))
}

// IDs lists the IDs of the rows keep accepts (nil: every row), in table
// order.
func IDs(keep func(Experiment) bool) []string {
	var ids []string
	for _, e := range Experiments {
		if keep == nil || keep(e) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// of adapts an experiment function that ignores Options.
func of[R fmt.Stringer](run func(*Session) (R, error)) func(*Session, Options) (fmt.Stringer, error) {
	return func(s *Session, _ Options) (fmt.Stringer, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// rendered is a result that is already text: one view of the Compare grid.
type rendered string

func (r rendered) String() string { return string(r) }

// view renders one of the tables drawn from the session's shared Compare run.
func view(render func(*CompareResult) string) func(*Session, Options) (fmt.Stringer, error) {
	return func(s *Session, o Options) (fmt.Stringer, error) {
		r, err := s.compare(o)
		if err != nil {
			return nil, err
		}
		return rendered(render(r)), nil
	}
}
