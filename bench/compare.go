package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series collects, per workload and metric, one value per set of a file.
type series map[string]map[string][]float64

// seriesOf gathers a file's metric values per workload, and per workload the
// ops attempted and failed over all sets.
func seriesOf(f resultFile) (series, map[string][2]int) {
	s := series{}
	ops := map[string][2]int{}
	for _, set := range f.Sets {
		for _, r := range set {
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], v.Value)
			}
			t := ops[r.Workload]
			ops[r.Workload] = [2]int{t[0] + r.Attempted, t[1] + r.Failed}
		}
	}
	return s, ops
}

func loadSeries(path string) (series, map[string][2]int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	s, ops := seriesOf(f)
	return s, ops, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's own
// direction: positive is a regression whichever way "better" points.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies one metric's bound (choosing-metrics guide, section 6):
// worse when the change's median is worse than the parent's by more than the
// bound; unresolved when the parent's own runs spread wider than the bound,
// because then a difference of that size proves nothing either way.
func verdict(d metricDef, parent, change []float64) string {
	if spread(parent) > d.Bound {
		return "unresolved"
	}
	if worseBy(d, median(parent), median(change)) > d.Bound {
		return "worse"
	}
	return "ok"
}

// compare prints one row per (workload, end-to-end metric) of two result
// files, and the failed-op share of each side.
func compare(parentPath, changePath string, w io.Writer) error {
	parent, pOps, err := loadSeries(parentPath)
	if err != nil {
		return err
	}
	change, cOps, err := loadSeries(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %9s %8s %6s  %s\n", "workload", "metric", "parent", "change", "change/parent", "spread", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			p, c := parent[wl.Name][d.Name], change[wl.Name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(d, p, c)
			if v == "worse" {
				bad++
			}
			ratio := 0.0
			if mp := median(p); mp != 0 {
				ratio = median(c) / mp
			}
			fmt.Fprintf(w, "%-18s %-16s %12.6g %12.6g %8.3fx (of %.6g %s) %7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(p), median(c), ratio, median(p), d.Unit, 100*spread(p), 100*d.Bound, v)
		}
		for _, side := range []struct {
			name string
			ops  map[string][2]int
		}{{"parent", pOps}, {"change", cOps}} {
			if t := side.ops[wl.Name]; t[0] > 0 {
				fmt.Fprintf(w, "%-18s failed ops, %s: %d of %d (%.4f%%)\n", wl.Name, side.name, t[1], t[0], 100*float64(t[1])/float64(t[0]))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse than the parent by more than their bound", bad)
	}
	return nil
}

// printSummary reports a -repeat run: per workload and end-to-end metric the
// median, the quartiles, and whether the spread fits the bound.
func printSummary(w io.Writer, f resultFile) {
	s, _ := seriesOf(f)
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "steady")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := s[wl.Name][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			steady := "yes"
			switch sp := spread(xs); {
			case sp > d.Bound:
				steady = "NO: wider than the bound"
			case sp > d.Bound/3:
				steady = "marginal: over a third of the bound"
			}
			fmt.Fprintf(w, "%-18s %-16s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(xs), q1, q3, 100*spread(xs), 100*d.Bound, steady)
		}
	}
}
