package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// sample is testdata/bench_sample.txt: the output of the two benchmark sets
// `make bench-gate` runs, recorded on the 2-vCPU box.
func sample(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/bench_sample.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// rewrite returns text with the result line of bench replaced by edit's
// return value, or dropped when that is empty.
func rewrite(t *testing.T, text, bench string, edit func(fields []string) []string) string {
	t.Helper()
	var out []string
	found := false
	for _, line := range strings.Split(text, "\n") {
		if name, _, ok := parseBenchLine(line); ok && name == bench {
			found = true
			fields := edit(strings.Fields(line))
			if fields == nil {
				continue
			}
			line = strings.Join(fields, "\t")
		}
		out = append(out, line)
	}
	if !found {
		t.Fatalf("sample has no line for %s", bench)
	}
	return strings.Join(out, "\n")
}

func drop([]string) []string { return nil }

// set makes the line report value in unit; renameUnit makes it report the
// same number in a unit no gate reads.
func set(unit, value string) func([]string) []string {
	return func(f []string) []string {
		for i := range f {
			if f[i] == unit {
				f[i-1] = value
			}
		}
		return f
	}
}

func renameUnit(unit string) func([]string) []string {
	return func(f []string) []string {
		for i := range f {
			if f[i] == unit {
				f[i] = "widgets"
			}
		}
		return f
	}
}

func TestSampleOutputPasses(t *testing.T) {
	for name, text := range map[string]string{
		"as recorded":  sample(t),
		"GOMAXPROCS=1": strings.ReplaceAll(sample(t), "-2 ", " "),
	} {
		var out bytes.Buffer
		if err := run(strings.NewReader(text), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range gates {
			if !strings.Contains(out.String(), g.name) {
				t.Errorf("%s: no row for %s in:\n%s", name, g.name, out.String())
			}
		}
	}
}

// Every way a row can stop gating is a failure that names the row and the
// leg, for every row of the table.
func TestEveryGateFailsByName(t *testing.T) {
	text := sample(t)
	for _, g := range gates {
		under := fmt.Sprint(g.floor * 0.99)
		for _, m := range []struct {
			name, in, want string
		}{
			{"ratio under floor", rewrite(t, rewrite(t, text, g.slow, set(g.unit, under)), g.fast, set(g.unit, "1")),
				fmt.Sprintf("%s: %.2fx is under the %.1fx floor", g.name, g.floor*0.99, g.floor)},
			{"missing slow leg", rewrite(t, text, g.slow, drop), g.name + ": slow leg: no result for " + g.slow},
			{"missing fast leg", rewrite(t, text, g.fast, drop), g.name + ": fast leg: no result for " + g.fast},
			{"unit absent", rewrite(t, text, g.fast, renameUnit(g.unit)), g.name + ": fast leg: " + g.fast + " reports no " + g.unit},
			{"zero value", rewrite(t, text, g.slow, set(g.unit, "0")), g.name + ": slow leg: " + g.slow + ": " + g.unit + ` value "0"`},
			{"negative value", rewrite(t, text, g.fast, set(g.unit, "-3.5")), g.name + ": fast leg: " + g.fast + ": " + g.unit + ` value "-3.5"`},
			{"not a number", rewrite(t, text, g.fast, set(g.unit, "NaN")), g.name + ": fast leg: " + g.fast + ": " + g.unit + ` value "NaN"`},
		} {
			var out bytes.Buffer
			err := run(strings.NewReader(m.in), &out)
			if err == nil {
				t.Errorf("%s, %s: passed", g.name, m.name)
				continue
			}
			if !strings.Contains(err.Error(), m.want) || !strings.Contains(err.Error(), fmt.Sprintf("1 of %d gates failed", len(gates))) {
				t.Errorf("%s, %s: error %q does not contain %q as the one failure", g.name, m.name, err, m.want)
			}
		}
	}
}

// The floors are the ones each fast path was merged under; loosening one
// has to change this table as well as the one in main.go.
func TestFloorsAreTheMergedOnes(t *testing.T) {
	merged := map[string]float64{
		"sz_quantize_3d": 1.5, "sz_reconstruct_3d": 1.5, "zfp_encode_ints": 5.0, "zfp_decode_ints": 2.0, "huffman_decode": 1.3,
		"lz_compress": 2.0, "ca_scan": 2.0, "features_3d": 1.5, "zfp_eighth": 4.0, "sz_eighth": 2.0,
	}
	if len(gates) != len(merged) {
		t.Fatalf("%d gates, want %d", len(gates), len(merged))
	}
	for _, g := range gates {
		if want, ok := merged[g.name]; !ok || g.floor != want {
			t.Errorf("%s: floor %v, merged %v (known row: %v)", g.name, g.floor, want, ok)
		}
		if g.slow == g.fast {
			t.Errorf("%s: both legs are %s", g.name, g.slow)
		}
	}
}

func TestParseBenchLine(t *testing.T) {
	for _, c := range []struct {
		line, name string
		ok         bool
	}{
		{"BenchmarkKernelCAScan/fast-2 \t 1485\t 996650 ns/op\t 1.992 ns/elem", "BenchmarkKernelCAScan/fast", true},
		{"BenchmarkKernelCAScan/fast \t 1485\t 996650 ns/op", "BenchmarkKernelCAScan/fast", true},
		{"BenchmarkRegionDecode/zfp/full-16 \t 166\t 6580802 ns/op", "BenchmarkRegionDecode/zfp/full", true},
		{"BenchmarkKernelCAScan/fast-2", "", false},
		{"ok  \tgithub.com/fxrz-go/fxrz/internal/core\t3.221s", "", false},
		{"--- FAIL: BenchmarkKernelCAScan/fast-2 1 2 ns/op", "", false},
		{"", "", false},
	} {
		name, pairs, ok := parseBenchLine(c.line)
		if ok != c.ok || name != c.name {
			t.Errorf("parseBenchLine(%q) = %q, %v; want %q, %v", c.line, name, ok, c.name, c.ok)
		}
		if ok && (len(pairs) < 2 || pairs[1] != "ns/op") {
			t.Errorf("parseBenchLine(%q): pairs %q do not start at the first value", c.line, pairs)
		}
	}
}

// A benchmark that ran several times (-count k) counts with its fastest
// line, wherever that line falls: a slow run of the fast leg cannot fail a
// gate, and a fast run of the slow leg sets its ratio.
func TestFastestLineWins(t *testing.T) {
	g := gates[0]
	line := func(bench, value string) string {
		return strings.Join([]string{bench + "-2", "1", "1 ns/op", value + " " + g.unit}, "\t") + "\n"
	}
	slowFast := strings.Repeat(line(g.fast, "1e9"), 4)
	var out bytes.Buffer
	for _, in := range []string{slowFast + sample(t), sample(t) + slowFast} {
		if err := run(strings.NewReader(in), &out); err != nil {
			t.Errorf("slow runs of the fast leg outweighed its fastest: %v", err)
		}
	}
	fastSlow := line(g.slow, "1e-3")
	for _, in := range []string{fastSlow + sample(t) + slowFast, slowFast + sample(t) + fastSlow} {
		err := run(strings.NewReader(in), &out)
		if err == nil || !strings.Contains(err.Error(), g.name+": 0.00x is under") {
			t.Errorf("the fastest run of the slow leg did not set the ratio: %v", err)
		}
	}
	bad := line(g.fast, "-1")
	if err := run(strings.NewReader(sample(t)+bad), &out); err == nil || !strings.Contains(err.Error(), "not a positive number") {
		t.Errorf("a repeated line with a bad value was not refused: %v", err)
	}
}
