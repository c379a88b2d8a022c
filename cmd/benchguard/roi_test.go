package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// fullRoi builds a valid roi baseline, optionally mutated, as JSON.
func fullRoi(t *testing.T, mutate func(map[string]*roiEntry)) string {
	t.Helper()
	es := map[string]*roiEntry{
		"zfp_eighth": {
			Name: "zfp_eighth", Bench: "BenchmarkRegionDecode/zfp",
			NsFull: 8500000, NsRegion: 1450000, Speedup: 5.86, VolumeFrac: 0.125,
			SpeedupFloor: 4.0, IndexOverheadFrac: 0.0027, IndexOverheadCap: 0.01,
		},
		"sz_eighth": {
			Name: "sz_eighth", Bench: "BenchmarkRegionDecode/sz",
			NsFull: 18200000, NsRegion: 7000000, Speedup: 2.6, VolumeFrac: 0.125,
			SpeedupFloor: 2.0, IndexOverheadFrac: 0.0001, IndexOverheadCap: 0.01,
		},
	}
	if mutate != nil {
		mutate(es)
	}
	b := roiBaseline{
		Benchmark: "BenchmarkRegionDecode (repo root)",
		Date:      "2026-08-08",
		Runner:    compressRunner{CPU: "test", Cores: 1, Note: "test"},
	}
	for _, name := range []string{"zfp_eighth", "sz_eighth"} {
		if e := es[name]; e != nil {
			b.Regions = append(b.Regions, *e)
		}
	}
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestValidateRoiBaselines(t *testing.T) {
	if err := validate([]byte(fullRoi(t, nil))); err != nil {
		t.Fatalf("valid roi baseline rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(map[string]*roiEntry)
		wantErr string
	}{
		{"missing region", func(es map[string]*roiEntry) {
			es["sz_eighth"] = nil
		}, `missing required region "sz_eighth"`},
		{"missing bench", func(es map[string]*roiEntry) {
			es["zfp_eighth"].Bench = ""
		}, "missing bench"},
		{"zero ns", func(es map[string]*roiEntry) {
			es["zfp_eighth"].NsRegion = 0
		}, "ns_full/ns_region must be > 0"},
		{"inconsistent speedup", func(es map[string]*roiEntry) {
			es["zfp_eighth"].Speedup = 9.0
		}, "inconsistent with full/region ratio"},
		{"speedup below own floor", func(es map[string]*roiEntry) {
			es["zfp_eighth"].NsRegion = 3000000
			es["zfp_eighth"].Speedup = 2.83
		}, "below the 4.0x floor"},
		{"bad volume fraction", func(es map[string]*roiEntry) {
			es["sz_eighth"].VolumeFrac = 0
		}, "volume_frac must be in (0, 1]"},
		{"overhead above cap", func(es map[string]*roiEntry) {
			es["zfp_eighth"].IndexOverheadFrac = 0.02
		}, "exceeds the 0.01 cap"},
		{"headline floor weakened", func(es map[string]*roiEntry) {
			es["zfp_eighth"].SpeedupFloor = 1.5
		}, "speedup_floor 1.50 below the required 4.0x"},
		{"headline cap removed", func(es map[string]*roiEntry) {
			es["zfp_eighth"].IndexOverheadCap = 0
		}, "index_overhead_cap 0 must be in (0, 0.01]"},
		{"headline cap loosened", func(es map[string]*roiEntry) {
			es["zfp_eighth"].IndexOverheadCap = 0.5
			es["zfp_eighth"].IndexOverheadFrac = 0.4
		}, "index_overhead_cap 0.5 must be in (0, 0.01]"},
		{"sz floor weakened", func(es map[string]*roiEntry) {
			es["sz_eighth"].SpeedupFloor = 1.0
		}, "sz_eighth: speedup_floor 1.00 below the required 2.0x"},
		{"sz cap removed", func(es map[string]*roiEntry) {
			es["sz_eighth"].IndexOverheadCap = 0
		}, "sz_eighth: index_overhead_cap 0 must be in (0, 0.01]"},
		{"sz speedup below own floor", func(es map[string]*roiEntry) {
			es["sz_eighth"].NsRegion = 14800000
			es["sz_eighth"].Speedup = 1.23
		}, "below the 2.0x floor"},
	}
	for _, tc := range cases {
		err := validate([]byte(fullRoi(t, tc.mutate)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	dup := strings.Replace(fullRoi(t, nil), `"name":"sz_eighth"`, `"name":"zfp_eighth"`, 1)
	if err := validate([]byte(dup)); err == nil || !strings.Contains(err.Error(), "duplicate entry") {
		t.Errorf("duplicate region: err = %v", err)
	}
}

func TestParseRoiBenchLine(t *testing.T) {
	cases := []struct {
		line       string
		name, role string
		v          float64
		ok         bool
	}{
		{"BenchmarkRegionDecode/zfp/full-8      127   8488158 ns/op  0.0027 idx-frac", "zfp_eighth", "before", 8488158, true},
		{"BenchmarkRegionDecode/zfp/eighth-8    796   1454288 ns/op", "zfp_eighth", "after", 1454288, true},
		{"BenchmarkRegionDecode/sz/eighth        72  14830733 ns/op", "sz_eighth", "after", 14830733, true},
		{"BenchmarkRegionDecode/sz/half-8         1         1 ns/op", "", "", 0, false},
		{"BenchmarkRegionDecode/sz-8              1         1 ns/op", "", "", 0, false},
		{"BenchmarkServeUnpack/http            3074    386955 ns/op", "", "", 0, false},
		{"PASS", "", "", 0, false},
	}
	for _, tc := range cases {
		name, role, v, ok := parseRoiBenchLine(tc.line)
		if ok != tc.ok || name != tc.name || role != tc.role || v != tc.v {
			t.Errorf("parseRoiBenchLine(%q) = (%q, %q, %v, %v), want (%q, %q, %v, %v)",
				tc.line, name, role, v, ok, tc.name, tc.role, tc.v, tc.ok)
		}
	}
}

const healthyRoiBench = `
goos: linux
BenchmarkRegionDecode/zfp/full-8        127   8500000 ns/op  0.0027 idx-frac
BenchmarkRegionDecode/zfp/eighth-8      796   1450000 ns/op  0.0027 idx-frac
BenchmarkRegionDecode/sz/full-8          52  18200000 ns/op  0.0001 idx-frac
BenchmarkRegionDecode/sz/eighth-8        72   7000000 ns/op  0.0001 idx-frac
PASS
`

func TestRunDeltasRoi(t *testing.T) {
	baseline := t.TempDir() + "/BENCH_roi.json"
	if err := os.WriteFile(baseline, []byte(fullRoi(t, nil)), 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := runDeltas(strings.NewReader(healthyRoiBench), &sb, baseline, 1); err != nil {
		t.Fatalf("healthy run rejected: %v\n%s", err, sb.String())
	}
	for _, name := range []string{"zfp_eighth", "sz_eighth"} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("delta table missing %s:\n%s", name, sb.String())
		}
	}

	// The region speedup through its recorded floor fails: an eighth-volume
	// zfp decode of 3,000,000 ns is only 2.83x the full decode.
	slowed := strings.Replace(healthyRoiBench, " 1450000 ns/op", " 3000000 ns/op", 1)
	sb.Reset()
	err := runDeltas(strings.NewReader(slowed), &sb, baseline, 1)
	if err == nil || !strings.Contains(err.Error(), "below the 4.0x floor") {
		t.Fatalf("slowed run: err = %v, want floor failure", err)
	}

	// A small sz wobble (run-to-run noise against the recorded 2.6x) stays
	// above the 2.0x floor and must NOT fail the gate: region pairs gate on
	// their absolute floors, not on drift from the recorded ratio.
	wobble := strings.Replace(healthyRoiBench, " 7000000 ns/op", " 7800000 ns/op", 1)
	sb.Reset()
	if err := runDeltas(strings.NewReader(wobble), &sb, baseline, 1); err != nil {
		t.Fatalf("sz wobble rejected: %v\n%s", err, sb.String())
	}

	// Falling through the sz floor fails: 14,800,000 ns is only 1.23x.
	szSlow := strings.Replace(healthyRoiBench, " 7000000 ns/op", " 14800000 ns/op", 1)
	sb.Reset()
	err = runDeltas(strings.NewReader(szSlow), &sb, baseline, 1)
	if err == nil || !strings.Contains(err.Error(), "below the 2.0x floor") {
		t.Fatalf("slow sz run: err = %v, want sz floor failure", err)
	}

	// A missing eighth variant is a broken roster.
	missing := strings.Replace(healthyRoiBench, "BenchmarkRegionDecode/sz/eighth-8        72   7000000 ns/op  0.0001 idx-frac\n", "", 1)
	sb.Reset()
	err = runDeltas(strings.NewReader(missing), &sb, baseline, 1)
	if err == nil || !strings.Contains(err.Error(), "missing after variant") {
		t.Fatalf("missing-variant run: err = %v, want missing-variant failure", err)
	}
}

func TestRecordedRoiBaselineIsValid(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_roi.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(raw); err != nil {
		t.Errorf("recorded BENCH_roi.json rejected: %v", err)
	}
}
