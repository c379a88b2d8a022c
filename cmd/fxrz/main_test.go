package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/obs"
)

func TestFieldFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.f32")
	f, err := fxrz.NewField("nyx/test field", 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i)))
	}
	if err := writeField(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := readField(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "nyx/test_field" { // spaces are sanitised in the header
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Dims) != 3 || g.Dims[0] != 3 || g.Dims[2] != 5 {
		t.Errorf("dims = %v", g.Dims)
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("value %d: %v vs %v", i, f.Data[i], g.Data[i])
		}
	}
}

func TestReadFieldRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := writeBytes(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := readField(filepath.Join(dir, "missing.f32")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := readField(write("bad.f32", "not a field\n")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := readField(write("short.f32", "fxrzfield x 4 4\nshort")); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := readField(write("dims.f32", "fxrzfield x 4 nope\n")); err == nil {
		t.Error("non-numeric dim accepted")
	}
}

func writeBytes(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// TestNegativeParallelismRejected pins the flag-validation fix: pool.Workers
// treats any non-positive value as "all cores", so a negative -parallelism
// must be rejected at flag-parse time instead of silently maxing out.
func TestNegativeParallelismRejected(t *testing.T) {
	if err := cmdTrain([]string{"-parallelism", "-2"}); err == nil || !strings.Contains(err.Error(), "-parallelism must be >= 0") {
		t.Errorf("train: err = %v, want -parallelism validation error", err)
	}
	for _, pack := range []bool{false, true} {
		err := cmdEstimate([]string{"-parallelism", "-1"}, pack)
		if err == nil || !strings.Contains(err.Error(), "-parallelism must be >= 0") {
			t.Errorf("est(pack=%v): err = %v, want -parallelism validation error", pack, err)
		}
	}
	if err := checkParallelism("x", 0); err != nil {
		t.Errorf("parallelism 0 rejected: %v", err)
	}
	if err := checkParallelism("x", 4); err != nil {
		t.Errorf("parallelism 4 rejected: %v", err)
	}
}

// TestUnpackRegion drives `fxrz unpack -region` end to end: pack a field
// directly (no model needed — a raw codec stream), index it, and check the
// regioned unpack writes exactly the requested slab of the full unpack.
func TestUnpackRegion(t *testing.T) {
	dir := t.TempDir()
	f, err := fxrz.NewField("slab", 12, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i) * 0.05))
	}
	blob, err := fxrz.NewZFP().Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := fxrz.IndexBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	stream := filepath.Join(dir, "slab.zfpc")
	if err := writeBytes(stream, indexed); err != nil {
		t.Fatal(err)
	}
	fullOut := filepath.Join(dir, "full.f32")
	if err := cmdUnpack([]string{"-in", stream, "-o", fullOut}); err != nil {
		t.Fatal(err)
	}
	regionOut := filepath.Join(dir, "region.f32")
	if err := cmdUnpack([]string{"-in", stream, "-o", regionOut, "-region", "2:9,3:10,1:7", "-parallelism", "1"}); err != nil {
		t.Fatal(err)
	}
	full, err := readField(fullOut)
	if err != nil {
		t.Fatal(err)
	}
	region, err := readField(regionOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Dims) != 3 || region.Dims[0] != 7 || region.Dims[1] != 7 || region.Dims[2] != 6 {
		t.Fatalf("region dims = %v, want [7 7 6]", region.Dims)
	}
	for z := 0; z < 7; z++ {
		for y := 0; y < 7; y++ {
			for x := 0; x < 6; x++ {
				want := full.Data[full.Index(z+2, y+3, x+1)]
				got := region.Data[region.Index(z, y, x)]
				if math.Float32bits(want) != math.Float32bits(got) {
					t.Fatalf("region (%d,%d,%d) = %x, want %x", z, y, x,
						math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}

	// Bad inputs surface as errors, not panics or silent full decodes.
	if err := cmdUnpack([]string{"-in", stream, "-o", regionOut, "-region", "0:5"}); err == nil {
		t.Error("rank-mismatched -region accepted")
	}
	if err := cmdUnpack([]string{"-in", stream, "-o", regionOut, "-region", "0:99,0:1,0:1"}); err == nil {
		t.Error("out-of-bounds -region accepted")
	}
	if err := cmdUnpack([]string{"-in", stream, "-o", regionOut, "-region", "garbage"}); err == nil {
		t.Error("malformed -region accepted")
	}
}

// TestTrainObsJSONSnapshot drives `fxrz train -obs-json` end to end on a
// small synthetic suite and checks the snapshot carries the per-stage span
// timings and compressor run counts the README documents.
func TestTrainObsJSONSnapshot(t *testing.T) {
	defer obs.Disable() // -obs-json enables the process-global recorder
	dir := t.TempDir()
	var train []string
	for fi, phase := range []float64{3, 8} {
		f, err := fxrz.NewField(fmt.Sprintf("train-%d", fi), 16, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			f.Data[i] = float32(math.Sin(phase * float64(i) / 100))
		}
		p := filepath.Join(dir, f.Name+".f32")
		if err := writeField(p, f); err != nil {
			t.Fatal(err)
		}
		train = append(train, p)
	}
	model := filepath.Join(dir, "model.fxrz")
	snap := filepath.Join(dir, "obs.json")
	err := cmdTrain([]string{
		"-train", strings.Join(train, ","),
		"-o", model,
		"-stationary", "4",
		"-obs-json", snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got obs.Snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	for _, span := range []string{"train/total", "train/sweep", "train/analysis", "features/extract", "ca/scan"} {
		if got.Spans[span].Count == 0 {
			t.Errorf("snapshot missing span %q", span)
		}
	}
	if got.Counters["compressor_runs/sz"] < 8 { // 2 fields x 4 stationary points
		t.Errorf("compressor_runs/sz = %d, want >= 8", got.Counters["compressor_runs/sz"])
	}
	if got.Counters["train/fields"] != 2 {
		t.Errorf("train/fields = %d, want 2", got.Counters["train/fields"])
	}
}
