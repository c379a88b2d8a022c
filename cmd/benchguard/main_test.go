package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRecordedBaselinesAreValid(t *testing.T) {
	for _, file := range []string{"../../BENCH_train.json", "../../BENCH_kernels.json", "../../BENCH_load.json"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate(raw); err != nil {
			t.Errorf("recorded %s rejected: %v", file, err)
		}
	}
}

func TestValidateRejectsMalformedBaselines(t *testing.T) {
	cases := []struct {
		name, blob, wantErr string
	}{
		{"not json", "nope", "not valid JSON"},
		{"empty object", "{}", "unknown schema"},
		{"missing benchmark", `{"results":[{"workers":1,"ns_per_op":1,"sweep_s":1}]}`, `missing required field "benchmark"`},
		{"missing date", `{"benchmark":"B","field":"f","results":[{"workers":1,"ns_per_op":1,"sweep_s":1}]}`, `missing required field "date"`},
		{"bad date", `{"benchmark":"B","date":"05-08-2026","field":"f","results":[{"workers":1,"ns_per_op":1,"sweep_s":1}]}`, "not YYYY-MM-DD"},
		{"missing field", `{"benchmark":"B","date":"2026-08-05","results":[{"workers":1,"ns_per_op":1,"sweep_s":1}]}`, `missing required field "field"`},
		{"no results", `{"benchmark":"B","date":"2026-08-05","field":"f","results":[]}`, "results is empty"},
		{"zero workers", `{"benchmark":"B","date":"2026-08-05","field":"f","results":[{"workers":0,"ns_per_op":1,"sweep_s":1}]}`, "workers must be > 0"},
		{"duplicate workers", `{"benchmark":"B","date":"2026-08-05","field":"f","results":[{"workers":2,"ns_per_op":1,"sweep_s":1},{"workers":2,"ns_per_op":1,"sweep_s":1}]}`, "duplicate entry"},
		{"zero ns_per_op", `{"benchmark":"B","date":"2026-08-05","field":"f","results":[{"workers":1,"ns_per_op":0,"sweep_s":1}]}`, "ns_per_op must be > 0"},
		{"negative sweep", `{"benchmark":"B","date":"2026-08-05","field":"f","results":[{"workers":1,"ns_per_op":1,"sweep_s":-3}]}`, "sweep_s must be > 0"},
	}
	for _, tc := range cases {
		err := validate([]byte(tc.blob))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// fullKernels builds a valid kernel baseline, optionally mutated, as JSON.
func fullKernels(t *testing.T, mutate func(map[string]*kernelResult)) string {
	t.Helper()
	ks := map[string]*kernelResult{
		"sz_quantize_3d":  {Name: "sz_quantize_3d", NsPerElemOld: 40, NsPerElemNew: 20, Speedup: 2},
		"zfp_encode_ints": {Name: "zfp_encode_ints", NsPerElemOld: 80, NsPerElemNew: 16, Speedup: 5},
		"huffman_decode":  {Name: "huffman_decode", NsPerElemOld: 6, NsPerElemNew: 4, Speedup: 1.5},
		"ca_scan":         {Name: "ca_scan", NsPerElemOld: 7.5, NsPerElemNew: 2.5, Speedup: 3},
		"lz_compress":     {Name: "lz_compress", NsPerElemOld: 16, NsPerElemNew: 4, Speedup: 4},
	}
	if mutate != nil {
		mutate(ks)
	}
	b := kernelBaseline{Benchmark: "BenchmarkKernel*", Date: "2026-08-05"}
	for _, name := range requiredKernels {
		if k, ok := ks[name]; ok {
			b.Kernels = append(b.Kernels, *k)
		}
	}
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestValidateKernelBaselines(t *testing.T) {
	if err := validate([]byte(fullKernels(t, nil))); err != nil {
		t.Fatalf("valid kernel baseline rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(map[string]*kernelResult)
		wantErr string
	}{
		{"missing required kernel", func(ks map[string]*kernelResult) {
			delete(ks, "ca_scan")
		}, `missing required kernel "ca_scan"`},
		{"quantize floor", func(ks map[string]*kernelResult) {
			ks["sz_quantize_3d"].NsPerElemNew = 30
			ks["sz_quantize_3d"].Speedup = 40.0 / 30.0
		}, "below floor 1.50"},
		{"huffman floor", func(ks map[string]*kernelResult) {
			ks["huffman_decode"].NsPerElemNew = 5
			ks["huffman_decode"].Speedup = 1.2
		}, "below floor 1.30"},
		{"lz floor", func(ks map[string]*kernelResult) {
			ks["lz_compress"].NsPerElemNew = 10
			ks["lz_compress"].Speedup = 1.6
		}, "below floor 2.00"},
		{"ca scan floor", func(ks map[string]*kernelResult) {
			ks["ca_scan"].NsPerElemNew = 5
			ks["ca_scan"].Speedup = 1.5
		}, "below floor 2.00"},
		{"regression floor", func(ks map[string]*kernelResult) {
			ks["zfp_encode_ints"].NsPerElemNew = 100
			ks["zfp_encode_ints"].Speedup = 0.8
		}, "below floor 0.90"},
		{"inconsistent speedup", func(ks map[string]*kernelResult) {
			ks["ca_scan"].Speedup = 2
		}, "inconsistent with before/after ratio"},
		{"zero before", func(ks map[string]*kernelResult) {
			ks["ca_scan"].NsPerElemOld = 0
		}, "must be > 0"},
		{"missing name", func(ks map[string]*kernelResult) {
			ks["ca_scan"].Name = ""
		}, "missing name"},
	}
	for _, tc := range cases {
		err := validate([]byte(fullKernels(t, tc.mutate)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line       string
		wantKernel string
		wantRole   string
		wantNs     float64
		wantOK     bool
	}{
		{"BenchmarkKernelQuantize3D/generic-4  19  11270620 ns/op  93.04 MB/s  42.99 ns/elem",
			"sz_quantize_3d", "before", 42.99, true},
		{"BenchmarkKernelQuantize3D/fast  42  5480697 ns/op  191.32 MB/s  20.91 ns/elem",
			"sz_quantize_3d", "after", 20.91, true},
		{"BenchmarkKernelHuffmanDecode/table-1  100  2733352 ns/op  5.213 ns/elem",
			"huffman_decode", "after", 5.213, true},
		{"BenchmarkKernelEncodeInts/perplane  42411  5282 ns/op  82.53 ns/elem",
			"zfp_encode_ints", "before", 82.53, true},
		{"BenchmarkKernelLZCompress/ref-2  153  9367455 ns/op  55.97 MB/s  17.87 ns/elem",
			"lz_compress", "before", 17.87, true},
		{"BenchmarkCompress-4  10  100 ns/op", "", "", 0, false},
		{"goos: linux", "", "", 0, false},
		{"BenchmarkKernelQuantize3D/fast  42  5480697 ns/op", "", "", 0, false}, // no ns/elem metric
	}
	for _, tc := range cases {
		kernel, role, ns, ok := parseBenchLine(tc.line)
		if ok != tc.wantOK || kernel != tc.wantKernel || role != tc.wantRole || ns != tc.wantNs {
			t.Errorf("parseBenchLine(%q) = (%q, %q, %v, %v), want (%q, %q, %v, %v)",
				tc.line, kernel, role, ns, ok, tc.wantKernel, tc.wantRole, tc.wantNs, tc.wantOK)
		}
	}
}

const healthyBench = `
BenchmarkKernelQuantize3D/generic  10  1 ns/op  40.0 ns/elem
BenchmarkKernelQuantize3D/fast  10  1 ns/op  19.5 ns/elem
BenchmarkKernelEncodeInts/perplane  10  1 ns/op  80.0 ns/elem
BenchmarkKernelEncodeInts/transposed  10  1 ns/op  16.5 ns/elem
BenchmarkKernelHuffmanDecode/bitwise  10  1 ns/op  6.0 ns/elem
BenchmarkKernelHuffmanDecode/table  10  1 ns/op  4.1 ns/elem
BenchmarkKernelCAScan/odometer  10  1 ns/op  7.5 ns/elem
BenchmarkKernelCAScan/fast  10  1 ns/op  2.6 ns/elem
BenchmarkKernelLZCompress/ref  10  1 ns/op  16.0 ns/elem
BenchmarkKernelLZCompress/fast  10  1 ns/op  4.2 ns/elem
`

func TestRunDeltasGatesRegressions(t *testing.T) {
	baseline := t.TempDir() + "/BENCH_kernels.json"
	if err := os.WriteFile(baseline, []byte(fullKernels(t, nil)), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runDeltas(strings.NewReader(healthyBench), &sb, baseline, 8); err != nil {
		t.Fatalf("healthy run rejected: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "sz_quantize_3d") {
		t.Fatalf("delta table missing kernels:\n%s", sb.String())
	}

	// Fast path slowed to a 1.02x speedup against a recorded 1.5x → >10% off.
	regressed := strings.Replace(healthyBench,
		"BenchmarkKernelHuffmanDecode/table  10  1 ns/op  4.1 ns/elem",
		"BenchmarkKernelHuffmanDecode/table  10  1 ns/op  5.9 ns/elem", 1)
	sb.Reset()
	err := runDeltas(strings.NewReader(regressed), &sb, baseline, 8)
	if err == nil || !strings.Contains(err.Error(), "regressed >10%") {
		t.Fatalf("regressed run: err = %v, want regression failure", err)
	}

	missing := strings.Replace(healthyBench,
		"BenchmarkKernelCAScan/fast  10  1 ns/op  2.6 ns/elem", "", 1)
	sb.Reset()
	err = runDeltas(strings.NewReader(missing), &sb, baseline, 8)
	if err == nil || !strings.Contains(err.Error(), "missing after variant") {
		t.Fatalf("missing-variant run: err = %v, want missing-variant failure", err)
	}

	sb.Reset()
	if err := runDeltas(strings.NewReader("no bench lines here"), &sb, "", 8); err == nil {
		t.Fatal("empty input accepted")
	}
}
