package exp

import (
	"fmt"
	"time"

	"github.com/fxrz-go/fxrz/internal/codecs"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/dump"
	"github.com/fxrz-go/fxrz/internal/fraz"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/metrics"
)

// FRaZPoint is one baseline measurement.
type FRaZPoint struct {
	Field    string
	TCR      float64
	Achieved float64
	Err      float64
	Runs     int
	Search   time.Duration
}

// CompareResult holds the FXRZ-vs-FRaZ data behind Figs 12–13 and Table
// VIII: per (compressor, app) accuracy points for FXRZ and for FRaZ at each
// iteration cap, plus single-compression baseline times.
type CompareResult struct {
	Iters        []int
	FXRZ         map[string]map[string][]EvalPoint // comp → app
	FRaZ         map[int]map[string]map[string][]FRaZPoint
	CompressTime map[string]map[string]time.Duration // comp → app: mean one-shot compression
}

// Compare evaluates FXRZ and FRaZ on every (app, compressor) pair. To bound
// the baseline's enormous cost, at most maxTestFields per app are used (the
// paper likewise reports one test field/snapshot per app in Fig 12).
func Compare(s *Session, apps, comps []string, maxTestFields int) (*CompareResult, error) {
	res := &CompareResult{
		Iters:        s.S.FRaZIters,
		FXRZ:         map[string]map[string][]EvalPoint{},
		FRaZ:         map[int]map[string]map[string][]FRaZPoint{},
		CompressTime: map[string]map[string]time.Duration{},
	}
	for _, it := range res.Iters {
		res.FRaZ[it] = map[string]map[string][]FRaZPoint{}
	}
	for _, cname := range comps {
		res.FXRZ[cname] = map[string][]EvalPoint{}
		res.CompressTime[cname] = map[string]time.Duration{}
		for _, it := range res.Iters {
			res.FRaZ[it][cname] = map[string][]FRaZPoint{}
		}
		c, err := codecs.ByName(cname)
		if err != nil {
			return nil, err
		}
		for _, app := range apps {
			fw, err := s.Framework(app, cname)
			if err != nil {
				return nil, err
			}
			tests, err := s.TestFields(app)
			if err != nil {
				return nil, err
			}
			if len(tests) > maxTestFields {
				tests = tests[:maxTestFields]
			}
			// Baseline single-compression time at a mid-range setting.
			var compTime time.Duration
			for _, f := range tests {
				mids, err := s.Targets(fw, cname, f, 3)
				if err != nil {
					return nil, err
				}
				mid := mids[len(mids)/2]
				est, err := fw.EstimateConfig(f, mid)
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				if _, err := c.Compress(f, est.Knob); err != nil {
					return nil, err
				}
				compTime += time.Since(t0)
			}
			res.CompressTime[cname][app] = compTime / time.Duration(len(tests))

			pts, err := evalFramework(s, fw, c, tests, s.S.TCRs)
			if err != nil {
				return nil, err
			}
			res.FXRZ[cname][app] = pts

			for _, iters := range res.Iters {
				var fps []FRaZPoint
				for _, f := range tests {
					targets, err := s.Targets(fw, cname, f, s.S.TCRs)
					if err != nil {
						return nil, err
					}
					for _, tcr := range targets {
						r, err := fraz.Search(c, f, tcr, iters)
						if err != nil {
							return nil, fmt.Errorf("exp: fraz(%d) %s on %s: %w", iters, cname, f.Name, err)
						}
						fps = append(fps, FRaZPoint{
							Field: f.Name, TCR: tcr, Achieved: r.AchievedRatio,
							Err:  metrics.EstimationError(tcr, r.AchievedRatio),
							Runs: r.CompressorRuns, Search: r.SearchTime,
						})
					}
				}
				res.FRaZ[iters][cname][app] = fps
			}
		}
	}
	return res, nil
}

// Averages returns the grand-average estimation errors: FXRZ and FRaZ per
// iteration cap (paper: FXRZ 8.24%, FRaZ6 34.48%, FRaZ15 19.37%).
func (r *CompareResult) Averages() (fxrzErr float64, frazErr map[int]float64) {
	var s float64
	var n int
	for _, byApp := range r.FXRZ {
		for _, pts := range byApp {
			for _, p := range pts {
				s += p.Err
				n++
			}
		}
	}
	if n > 0 {
		fxrzErr = s / float64(n)
	}
	frazErr = map[int]float64{}
	for it, byComp := range r.FRaZ {
		var fs float64
		var fn int
		for _, byApp := range byComp {
			for _, pts := range byApp {
				for _, p := range pts {
					fs += p.Err
					fn++
				}
			}
		}
		if fn > 0 {
			frazErr[it] = fs / float64(fn)
		}
	}
	return fxrzErr, frazErr
}

// SpeedupOverFRaZ returns mean(FRaZ search time) / mean(FXRZ analysis time)
// at the given iteration cap — the paper's headline 108×.
func (r *CompareResult) SpeedupOverFRaZ(iters int) float64 {
	var fxrzT, frazT time.Duration
	var fn, gn int
	for _, byApp := range r.FXRZ {
		for _, pts := range byApp {
			for _, p := range pts {
				fxrzT += p.Analysis
				fn++
			}
		}
	}
	for _, byApp := range r.FRaZ[iters] {
		for _, pts := range byApp {
			for _, p := range pts {
				frazT += p.Search
				gn++
			}
		}
	}
	if fn == 0 || gn == 0 || fxrzT == 0 {
		return 0
	}
	return (float64(frazT) / float64(gn)) / (float64(fxrzT) / float64(fn))
}

// CapabilityString splits the FXRZ accuracy by the paper's two capability
// levels (§IV-A): level 1 = same simulation configuration, later time steps
// (Hurricane); level 2 = different simulation configuration or scale (Nyx,
// QMCPack, RTM).
func (r *CompareResult) CapabilityString() string {
	level := func(apps []string) (float64, int) {
		var s float64
		var n int
		for _, byApp := range r.FXRZ {
			for _, app := range apps {
				for _, p := range byApp[app] {
					s += p.Err
					n++
				}
			}
		}
		if n == 0 {
			return 0, 0
		}
		return s / float64(n), n
	}
	l1, n1 := level([]string{"hurricane"})
	l2, n2 := level([]string{"nyx", "qmcpack", "rtm"})
	t := &Table{Title: "Capability levels (§IV-A) — FXRZ estimation error by train/test relationship",
		Header: []string{"level", "split", "avg est error", "points"}}
	t.AddRow("1", "same config, later time steps (Hurricane)", pct(l1), fmt.Sprintf("%d", n1))
	t.AddRow("2", "different config/scale (Nyx, QMCPack, RTM)", pct(l2), fmt.Sprintf("%d", n2))
	return t.String()
}

// Fig12String renders the MCR-vs-TCR curves for one test field per app.
func (r *CompareResult) Fig12String() string {
	out := ""
	for _, cname := range []string{"sz", "zfp"} {
		byApp, ok := r.FXRZ[cname]
		if !ok {
			continue
		}
		for _, app := range Apps {
			pts := byApp[app]
			if len(pts) == 0 {
				continue
			}
			t := &Table{Title: fmt.Sprintf("Fig 12 — accuracy curves (%s, %s)", cname, app),
				Header: []string{"TCR (ground truth)", "FXRZ MCR", "FRaZ-6 MCR", "FRaZ-15 MCR"}}
			f6 := indexFRaZ(r.FRaZ[6][cname][app])
			f15 := indexFRaZ(r.FRaZ[15][cname][app])
			field := pts[0].Field
			for _, p := range pts {
				if p.Field != field {
					break // one field per app, like the paper's figure
				}
				key := frazKey(p.Field, p.TCR)
				t.AddRow(f2(p.TCR), f2(p.MCR), f2(f6[key]), f2(f15[key]))
			}
			out += t.String() + "\n"
		}
	}
	return out
}

// Fig13String renders per-(app, compressor) average estimation errors.
func (r *CompareResult) Fig13String() string {
	t := &Table{Title: "Fig 13 — average estimation error per test dataset",
		Header: []string{"app", "compressor", "FXRZ", "FRaZ-6", "FRaZ-15"}}
	for _, app := range Apps {
		for _, cname := range CompressorNames {
			pts := r.FXRZ[cname][app]
			if len(pts) == 0 {
				continue
			}
			t.AddRow(app, cname, pct(avgErr(pts)),
				pct(avgFRaZErr(r.FRaZ[6][cname][app])),
				pct(avgFRaZErr(r.FRaZ[15][cname][app])))
		}
	}
	fx, fr := r.Averages()
	t.AddNote("grand averages: FXRZ %s, FRaZ-6 %s, FRaZ-15 %s (paper: 8.24%%, 34.48%%, 19.37%%)",
		pct(fx), pct(fr[6]), pct(fr[15]))
	return t.String()
}

// Table8String renders the analysis-time-cost comparison.
func (r *CompareResult) Table8String() string {
	t := &Table{Title: "Table VIII — analysis time relative to compression time (FXRZ vs FRaZ-15)",
		Header: []string{"app", "compressor", "compress time", "FXRZ analysis ×", "FRaZ-15 search ×"}}
	for _, app := range Apps {
		for _, cname := range CompressorNames {
			pts := r.FXRZ[cname][app]
			fps := r.FRaZ[15][cname][app]
			if len(pts) == 0 || len(fps) == 0 {
				continue
			}
			ct := r.CompressTime[cname][app]
			var fxrzT time.Duration
			for _, p := range pts {
				fxrzT += p.Analysis
			}
			fxrzT /= time.Duration(len(pts))
			var frazT time.Duration
			for _, p := range fps {
				frazT += p.Search
			}
			frazT /= time.Duration(len(fps))
			t.AddRow(app, cname, ct.Round(time.Microsecond).String(),
				fmt.Sprintf("%.3f", float64(fxrzT)/float64(ct)),
				fmt.Sprintf("%.2f", float64(frazT)/float64(ct)))
		}
	}
	t.AddNote("FXRZ speedup over FRaZ-15: %.0f× (paper: 108×; FXRZ analysis ≈ 0.14× compression)", r.SpeedupOverFRaZ(15))
	return t.String()
}

func frazKey(field string, tcr float64) string { return fmt.Sprintf("%s|%.6g", field, tcr) }

func indexFRaZ(pts []FRaZPoint) map[string]float64 {
	m := make(map[string]float64, len(pts))
	for _, p := range pts {
		m[frazKey(p.Field, p.TCR)] = p.Achieved
	}
	return m
}

func avgFRaZErr(pts []FRaZPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += p.Err
	}
	return s / float64(len(pts))
}

// Fig14Result reproduces Fig 14: training across all application scopes,
// testing on RTM BigScale (paper: FXRZ keeps 6.76–19.81% error).
type Fig14Result struct {
	// Err[compressor] = [FXRZ, FRaZ-15].
	Err map[string][2]float64
}

// Fig14 trains a cross-scope pool and tests on RTM big-scale snapshots.
func Fig14(s *Session) (*Fig14Result, error) {
	var pool []*grid.Field
	for _, app := range Apps {
		fs, err := s.TrainFields(app)
		if err != nil {
			return nil, err
		}
		pool = append(pool, fs...)
	}
	tests, err := s.TestFields("rtm")
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{Err: map[string][2]float64{}}
	for _, cname := range CompressorNames {
		c, err := codecs.ByName(cname)
		if err != nil {
			return nil, err
		}
		// Merge the per-app sweep caches so the pooled training reuses them.
		curves := map[string]*core.Curve{}
		for _, app := range Apps {
			cs, err := s.Curves(app, cname)
			if err != nil {
				return nil, err
			}
			for k, v := range cs {
				curves[k] = v
			}
		}
		fw, err := core.TrainWithCurves(c, pool, s.Config(), curves)
		if err != nil {
			return nil, err
		}
		pts, err := evalFramework(s, fw, c, tests, max(4, s.S.TCRs/3))
		if err != nil {
			return nil, err
		}
		var frazSum float64
		var frazN int
		for _, f := range tests {
			targets, terr := s.Targets(fw, cname, f, max(4, s.S.TCRs/3))
			if terr != nil {
				return nil, terr
			}
			for _, tcr := range targets {
				r, err := fraz.Search(c, f, tcr, 15)
				if err != nil {
					return nil, err
				}
				frazSum += metrics.EstimationError(tcr, r.AchievedRatio)
				frazN++
			}
		}
		res.Err[cname] = [2]float64{avgErr(pts), frazSum / float64(frazN)}
	}
	return res, nil
}

// String renders Fig 14.
func (r *Fig14Result) String() string {
	t := &Table{Title: "Fig 14 — cross-application-scope training, tested on RTM BigScale",
		Header: []string{"compressor", "FXRZ", "FRaZ-15"}}
	for _, c := range CompressorNames {
		p := r.Err[c]
		t.AddRow(c, pct(p[0]), pct(p[1]))
	}
	t.AddNote("paper: FXRZ 11.49/6.76/13.66/19.81%% vs FRaZ 17.85/35.51/14.31/10.11%% (sz/zfp/mgard/fpzip)")
	return t.String()
}

// DumpResult reproduces the parallel data-dumping experiment: end-to-end
// makespan of FXRZ vs FRaZ-driven dumping across rank counts (paper:
// 1.18–8.71× gain up to 4096 cores).
type DumpResult struct {
	Ranks []int
	// Rows[i] = {fxrz makespan, fraz makespan, gain} per rank count.
	Rows [][3]float64
	// Measured single-rank inputs.
	Analysis, FRaZSearch, Compress time.Duration
	Bytes                          int64
}

// Dump measures real per-rank costs on a Nyx test field with SZ, then runs
// the discrete-event I/O model at each rank count.
func Dump(s *Session) (*DumpResult, error) {
	fw, err := s.Framework("nyx", "sz")
	if err != nil {
		return nil, err
	}
	tests, err := s.TestFields("nyx")
	if err != nil {
		return nil, err
	}
	f := tests[0]
	c, err := codecs.ByName("sz")
	if err != nil {
		return nil, err
	}
	mids, err := s.Targets(fw, "sz", f, 3)
	if err != nil {
		return nil, err
	}
	tcr := mids[len(mids)/2]
	est, err := fw.EstimateConfig(f, tcr)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	blob, err := c.Compress(f, est.Knob)
	if err != nil {
		return nil, err
	}
	compTime := time.Since(t0)
	fr, err := fraz.Search(c, f, tcr, 15)
	if err != nil {
		return nil, err
	}

	// Extrapolate the measured per-point costs to the paper's per-rank
	// volume (one 512³ field per rank): analysis, search, compression and
	// output size all grow linearly in the point count, while the I/O
	// bandwidth stays fixed — which is what makes I/O contention matter at
	// 4096 ranks and keeps the gain in the paper's 1.18–8.71× regime rather
	// than the pure compute ratio.
	volume := float64(512*512*512) / float64(f.Size())
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * volume) }
	res := &DumpResult{
		Ranks:    []int{512, 1024, 2048, 4096},
		Analysis: scale(est.AnalysisTime()), FRaZSearch: scale(fr.SearchTime),
		Compress: scale(compTime), Bytes: int64(float64(len(blob)) * volume),
	}
	// Calibrate the I/O model: the gain regime depends on the balance
	// between per-rank compute and shared I/O. The paper's testbed pairs
	// C-implementation SZ (~200 MB/s/core) with a 2 GB/s file system; our
	// pure-Go codec is slower per point, so the simulated bandwidth is
	// scaled by the measured-throughput ratio to keep the same balance.
	const cSZThroughput = 200e6 // bytes/s, SZ 2.x single core on Broadwell
	ourThroughput := float64(f.Bytes()) / compTime.Seconds()
	balance := ourThroughput / cSZThroughput
	if balance > 1 {
		balance = 1
	}
	io := dump.DefaultIO()
	io.Bandwidth *= balance
	for _, n := range res.Ranks {
		fxrzRes, err := dump.Simulate(dump.Uniform(n, dump.RankTask{
			AnalysisTime: res.Analysis, CompressTime: res.Compress, Bytes: res.Bytes,
		}), io)
		if err != nil {
			return nil, err
		}
		frazRes, err := dump.Simulate(dump.Uniform(n, dump.RankTask{
			AnalysisTime: res.FRaZSearch, CompressTime: res.Compress, Bytes: res.Bytes,
		}), io)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, [3]float64{
			fxrzRes.Makespan.Seconds(), frazRes.Makespan.Seconds(), dump.Gain(fxrzRes, frazRes),
		})
	}
	return res, nil
}

// String renders the dumping experiment.
func (r *DumpResult) String() string {
	t := &Table{Title: "Parallel data dumping — FXRZ vs FRaZ-15 (discrete-event model, measured single-rank costs)",
		Header: []string{"ranks", "FXRZ makespan (s)", "FRaZ makespan (s)", "gain"}}
	for i, n := range r.Ranks {
		t.AddRow(fmt.Sprintf("%d", n), f4(r.Rows[i][0]), f4(r.Rows[i][1]), fmt.Sprintf("%.2f×", r.Rows[i][2]))
	}
	t.AddNote("measured per rank: analysis %v (FXRZ) vs %v (FRaZ search), compression %v, %d bytes",
		r.Analysis.Round(time.Microsecond), r.FRaZSearch.Round(time.Microsecond), r.Compress.Round(time.Microsecond), r.Bytes)
	t.AddNote("paper: 1.18–8.71× overall gain on Bebop up to 4096 cores")
	return t.String()
}
