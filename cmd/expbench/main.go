// Command expbench regenerates every table and figure of the paper's
// evaluation (§V). Run all experiments:
//
//	expbench -exp all -scale small
//
// or one or more rows of the exp.Experiments table by ID (`expbench -h` lists
// them). Scale "tiny" is the CI preset; "small" mirrors the paper's
// methodology (25 stationary points, 25 targets) at laptop size. The
// FRaZ-based experiments dominate the runtime; bound them with
// -comps/-tcrs/-maxtest or skip them with -nofraz.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/fxrz-go/fxrz/internal/exp"
	"github.com/fxrz-go/fxrz/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "expbench:", err)
		os.Exit(1)
	}
}

// run parses the command line, then runs the chosen experiments in one
// session and prints each result. Flag values are checked before any
// experiment runs.
func run(args []string) error {
	fs := flag.NewFlagSet("expbench", flag.ExitOnError)
	var (
		which     = fs.String("exp", "all", "'all' or comma-separated experiment ids: "+strings.Join(exp.IDs(nil), ", "))
		scaleName = fs.String("scale", "small", "tiny | small")
		maxTF     = fs.Int("maxtest", 2, "max test fields per app in comparison experiments (>= 1)")
		noFRaZ    = fs.Bool("nofraz", false, "leave the FRaZ baseline experiments ("+strings.Join(exp.IDs(usesFRaZ), "/")+") out of -exp all")
		comps     = fs.String("comps", "", "comma-separated compressor subset for comparison experiments (default: all)")
		tcrs      = fs.Int("tcrs", 0, "override the number of target ratios per test field")
		par       = fs.Int("parallelism", 0, "worker pool size for sweeps and analysis (0 = all cores, 1 = serial)")
	)
	fs.Parse(args)
	if *par < 0 {
		return fmt.Errorf("-parallelism must be >= 0 (0 = all cores, 1 = serial), got %d", *par)
	}
	if *maxTF < 1 {
		return fmt.Errorf("-maxtest must be >= 1, got %d", *maxTF)
	}
	var scale exp.Scale
	switch *scaleName {
	case "tiny":
		scale = exp.Tiny
	case "small":
		scale = exp.Small
	default:
		return fmt.Errorf("unknown scale %q (want tiny or small)", *scaleName)
	}
	if *tcrs > 0 {
		scale.TCRs = *tcrs
	}
	scale.Parallelism = *par
	opts := exp.Options{MaxTestFields: *maxTF}
	if *comps != "" {
		opts.Comps = strings.Split(*comps, ",")
	}
	ids := strings.Split(*which, ",")
	if *which == "all" {
		ids = exp.IDs(func(e exp.Experiment) bool { return e.Paper != "" && !(*noFRaZ && e.FRaZ) })
	}
	rows := make([]exp.Experiment, len(ids))
	for i, id := range ids {
		e, err := exp.Lookup(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		rows[i] = e
	}
	// Record per-stage timings for the whole session; the table printed at
	// the end shows where the experiment wall time went.
	obs.Enable()
	s := exp.NewSession(scale)
	for i, e := range rows {
		start := time.Now()
		r, err := e.Run(s, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", ids[i], err)
		}
		fmt.Printf("=== %s (scale %s, %v) ===\n%s\n", ids[i], scale.Name, time.Since(start).Round(time.Millisecond), r)
	}
	if table := obs.TakeSnapshot().TimingTable(); table != "" {
		fmt.Printf("=== per-stage timings (session total) ===\n%s", table)
	}
	return nil
}

func usesFRaZ(e exp.Experiment) bool { return e.FRaZ }
