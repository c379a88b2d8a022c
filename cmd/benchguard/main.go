// Command benchguard holds the within-run speedup floors the kernel fast
// paths and the region decoders were merged under. It reads `go test -bench`
// output on stdin, looks up both legs of every row of the gate table, prints
// the ratios, and exits 1 when a ratio is under its floor or a leg is
// missing, so a renamed benchmark or a package dropped from the run fails
// the gate instead of leaving it. Both legs of a row come from one run on
// one machine, which is what lets a ratio gate anywhere; everything absolute
// is measured by ./bench (BENCHMARK.json). A leg that ran several times
// (-count k) counts with its fastest run: a neighbour on a shared box only
// ever adds time, so best-of-k is the reading it disturbs least.
//
//	make bench-gate
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// gate is one floor: slow/fast must stay >= floor, both read from the named
// benchmark's value in unit.
type gate struct {
	name, slow, fast, unit string
	floor                  float64
}

// gates is the whole table. The kernel rows time a retained reference
// implementation against the production kernel; the region rows time a full
// Decompress of an indexed 64³ stream against DecompressRegion of its
// centered eighth.
var gates = []gate{
	{"sz_quantize_3d", "BenchmarkKernelQuantize3D/generic", "BenchmarkKernelQuantize3D/fast", "ns/elem", 1.5},
	{"sz_reconstruct_3d", "BenchmarkKernelReconstruct3D/generic", "BenchmarkKernelReconstruct3D/fast", "ns/elem", 1.5},
	{"zfp_encode_ints", "BenchmarkKernelEncodeInts/perplane", "BenchmarkKernelEncodeInts/transposed", "ns/elem", 5.0},
	{"zfp_decode_ints", "BenchmarkKernelDecodeInts/bitwise", "BenchmarkKernelDecodeInts/fast", "ns/elem", 2.0},
	{"huffman_decode", "BenchmarkKernelHuffmanDecode/bitwise", "BenchmarkKernelHuffmanDecode/table", "ns/elem", 1.3},
	{"lz_compress", "BenchmarkKernelLZCompress/ref", "BenchmarkKernelLZCompress/fast", "ns/elem", 2.0},
	{"ca_scan", "BenchmarkKernelCAScan/odometer", "BenchmarkKernelCAScan/fast", "ns/elem", 2.0},
	{"features_3d", "BenchmarkKernelFeatures3D/oracle", "BenchmarkKernelFeatures3D/lattice", "ns/elem", 1.5},
	{"zfp_eighth", "BenchmarkRegionDecode/zfp/full", "BenchmarkRegionDecode/zfp/eighth", "ns/op", 4.0},
	{"sz_eighth", "BenchmarkRegionDecode/sz/full", "BenchmarkRegionDecode/sz/eighth", "ns/op", 2.0},
}

// parseBenchLine splits one line of `go test -bench` output into the
// benchmark's name, with the -GOMAXPROCS suffix removed, and its
// "value unit" pairs. ok is false for every other line.
func parseBenchLine(line string) (name string, pairs []string, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	name = f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, f[2:], true
}

// leg returns the smallest value a benchmark reported in unit over its
// result lines; every line must report a positive one.
func leg(results map[string][][]string, bench, unit string) (float64, error) {
	lines, ok := results[bench]
	if !ok {
		return 0, fmt.Errorf("no result for %s", bench)
	}
	best := 0.0
	for _, pairs := range lines {
		v, found := 0.0, false
		for i := 0; i+1 < len(pairs) && !found; i += 2 {
			if pairs[i+1] != unit {
				continue
			}
			var err error
			v, err = strconv.ParseFloat(pairs[i], 64)
			if err != nil || !(v > 0) {
				return 0, fmt.Errorf("%s: %s value %q is not a positive number", bench, unit, pairs[i])
			}
			found = true
		}
		if !found {
			return 0, fmt.Errorf("%s reports no %s", bench, unit)
		}
		if best == 0 || v < best {
			best = v
		}
	}
	return best, nil
}

// run judges every gate against the benchmark output on in and prints one
// row per gate to out. A benchmark that appears more than once counts with
// its fastest line.
func run(in io.Reader, out io.Writer) error {
	results := map[string][][]string{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if name, pairs, ok := parseBenchLine(sc.Text()); ok {
			results[name] = append(results[name], pairs)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading benchmark output: %w", err)
	}
	var failed []string
	fmt.Fprintf(out, "%-16s %14s %14s  %-8s %7s %6s\n", "gate", "slow", "fast", "unit", "ratio", "floor")
	for _, g := range gates {
		slow, err := leg(results, g.slow, g.unit)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: slow leg: %v", g.name, err))
			continue
		}
		fast, err := leg(results, g.fast, g.unit)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: fast leg: %v", g.name, err))
			continue
		}
		ratio := slow / fast
		fmt.Fprintf(out, "%-16s %14s %14s  %-8s %6.2fx %5.1fx\n", g.name,
			strconv.FormatFloat(slow, 'f', -1, 64), strconv.FormatFloat(fast, 'f', -1, 64), g.unit, ratio, g.floor)
		if ratio < g.floor {
			failed = append(failed, fmt.Sprintf("%s: %.2fx is under the %.1fx floor", g.name, ratio, g.floor))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d gates failed:\n  %s", len(failed), len(gates), strings.Join(failed, "\n  "))
	}
	return nil
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
