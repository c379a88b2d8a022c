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
	var (
		which  = flag.String("exp", "all", "'all' or comma-separated experiment ids: "+strings.Join(exp.IDs(nil), ", "))
		scale  = flag.String("scale", "small", "tiny | small")
		maxTF  = flag.Int("maxtest", 2, "max test fields per app in comparison experiments")
		noFRaZ = flag.Bool("nofraz", false, "leave the FRaZ baseline experiments ("+strings.Join(exp.IDs(usesFRaZ), "/")+") out of -exp all")
		comps  = flag.String("comps", "", "comma-separated compressor subset for comparison experiments (default: all)")
		tcrs   = flag.Int("tcrs", 0, "override the number of target ratios per test field")
		par    = flag.Int("parallelism", 0, "worker pool size for sweeps and analysis (0 = all cores, 1 = serial)")
	)
	flag.Parse()
	if *par < 0 {
		fmt.Fprintf(os.Stderr, "expbench: -parallelism must be >= 0 (0 = all cores, 1 = serial), got %d\n", *par)
		os.Exit(2)
	}
	if err := run(*which, *scale, *maxTF, *noFRaZ, *comps, *tcrs, *par); err != nil {
		fmt.Fprintln(os.Stderr, "expbench:", err)
		os.Exit(1)
	}
}

func run(which, scaleName string, maxTestFields int, noFRaZ bool, compsFlag string, tcrs, parallelism int) error {
	var scale exp.Scale
	switch scaleName {
	case "tiny":
		scale = exp.Tiny
	case "small":
		scale = exp.Small
	default:
		return fmt.Errorf("unknown scale %q (want tiny or small)", scaleName)
	}
	if tcrs > 0 {
		scale.TCRs = tcrs
	}
	scale.Parallelism = parallelism
	opts := exp.Options{MaxTestFields: maxTestFields}
	if compsFlag != "" {
		opts.Comps = strings.Split(compsFlag, ",")
	}
	if which == "all" {
		which = strings.Join(exp.IDs(func(e exp.Experiment) bool {
			return e.Paper != "" && !(noFRaZ && e.FRaZ)
		}), ",")
	}
	// Record per-stage timings for the whole session; the table printed at
	// the end shows where the experiment wall time went.
	obs.Enable()
	s := exp.NewSession(scale)
	for _, id := range strings.Split(which, ",") {
		e, err := exp.Lookup(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		start := time.Now()
		r, err := e.Run(s, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("=== %s (scale %s, %v) ===\n%s\n", id, scale.Name, time.Since(start).Round(time.Millisecond), r)
	}
	if table := obs.TakeSnapshot().TimingTable(); table != "" {
		fmt.Printf("=== per-stage timings (session total) ===\n%s", table)
	}
	return nil
}

func usesFRaZ(e exp.Experiment) bool { return e.FRaZ }
