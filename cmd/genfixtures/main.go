// Command genfixtures regenerates the repository's committed test fixtures:
//
//   - testdata/golden/: one compressed stream per codec over a fixed
//     deterministic field, each paired with its bit-exact reconstruction.
//     golden_test.go diffs today's codecs against these files, so any
//     unintentional change to a stream format or a reconstruction — a
//     quantizer tweak, a Huffman table reorder, a header field — fails
//     loudly instead of silently orphaning previously written archives.
//   - testdata/fuzz/ seed corpora for the decoder fuzz targets that lack
//     them (internal/zfp, internal/fpzip, internal/mgard, and the top-level
//     FuzzDecompress), so `go test -fuzz` starts from valid streams instead
//     of rediscovering the header format from zero.
//
// Run from the repository root after an *intentional* format change:
//
//	go run ./cmd/genfixtures
//
// and commit the diff alongside the change that caused it. Everything the
// generator consumes is deterministic (datagen fields, serial codecs), so
// an unchanged tree regenerates byte-identical fixtures, which main_test.go
// checks. Fixtures pinning an older build's output (sz-indexed-seeded.blob
// and its fuzz seed) are frozen: no generator writes them.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "genfixtures:", err)
		os.Exit(1)
	}
}

// goldenCodecs fixes the codec/knob grid the golden fixtures cover. Knobs
// are chosen to exercise real quantization (not lossless-small, not
// everything-to-zero) on the fixture field.
var goldenCodecs = []struct {
	name string
	knob float64
}{
	{"sz", 1e-3},
	{"sz2", 1e-3},
	{"zfp", 1e-3},
	{"zfp-rate", 8},
	{"fpzip", 16},
	{"mgard", 1e-3},
}

// fuzzSeedDirs maps fuzz-target corpus directories to the codecs whose
// valid streams seed them.
var fuzzSeedDirs = []struct {
	dir    string
	codecs []string
}{
	{"internal/zfp/testdata/fuzz/FuzzDecompress", []string{"zfp", "zfp-rate"}},
	{"internal/fpzip/testdata/fuzz/FuzzDecompress", []string{"fpzip"}},
	{"internal/mgard/testdata/fuzz/FuzzDecompress", []string{"mgard"}},
	{"testdata/fuzz/FuzzDecompress", []string{
		"sz", "sz2", "zfp", "zfp-rate", "fpzip", "mgard", "sz-indexed", "zfp-indexed"}},
}

func run(args []string) error {
	fs := flag.NewFlagSet("genfixtures", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root to write fixtures under")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The golden field: a 16^3 Nyx-style baryon density block — big enough
	// that every codec's pipeline stages (blocking, prediction, entropy
	// coding) run for real, small enough to commit.
	f, err := datagen.NyxField("baryon_density", 1, 2, 16)
	if err != nil {
		return err
	}
	goldenDir := filepath.Join(*root, "testdata", "golden")
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}

	// The source field itself, as an fxrzfield container: the golden test
	// also pins the container format cmd/fxrz and fxrzd speak.
	var fbuf bytes.Buffer
	if err := fieldio.Write(&fbuf, f); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(goldenDir, "field.fxrzfield"), fbuf.Bytes()); err != nil {
		return err
	}

	blobs := map[string][]byte{}
	for _, gc := range goldenCodecs {
		c, err := fxrz.ByName(gc.name)
		if err != nil {
			return err
		}
		blob, err := c.Compress(f, gc.knob)
		if err != nil {
			return fmt.Errorf("%s: %w", gc.name, err)
		}
		rec, err := c.Decompress(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", gc.name, err)
		}
		var rbuf bytes.Buffer
		if err := fieldio.Write(&rbuf, rec); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(goldenDir, gc.name+".blob"), blob); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(goldenDir, gc.name+".recon"), rbuf.Bytes()); err != nil {
			return err
		}
		blobs[gc.name] = blob
	}

	// Indexed containers over the seekable codecs: pin the region-index
	// container format (wrapper framing, per-codec index payload, checksum)
	// so a change to index layout is a visible fixture diff, not a silent
	// break of archives indexed with an older build.
	for _, name := range []string{"sz", "zfp"} {
		indexed, err := fxrz.IndexBlob(blobs[name])
		if err != nil {
			return fmt.Errorf("%s index: %w", name, err)
		}
		if err := writeFile(filepath.Join(goldenDir, name+"-indexed.blob"), indexed); err != nil {
			return err
		}
		blobs[name+"-indexed"] = indexed
	}

	// A brick-store container over SZ: pins the random-access archive format.
	st, err := fxrz.BuildBricks(fxrz.NewSZ(), f, 8, 1e-3)
	if err != nil {
		return err
	}
	rec, err := st.ReadAll()
	if err != nil {
		return err
	}
	var rbuf bytes.Buffer
	if err := fieldio.Write(&rbuf, rec); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(goldenDir, "sz-bricks.store"), st.Marshal()); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(goldenDir, "sz-bricks.recon"), rbuf.Bytes()); err != nil {
		return err
	}

	// Fuzz seed corpora: each seed is one valid stream in the on-disk
	// corpus-entry encoding, named for the codec so diffs stay readable.
	for _, sd := range fuzzSeedDirs {
		dir := filepath.Join(*root, filepath.FromSlash(sd.dir))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, name := range sd.codecs {
			entry := corpusEntry(blobs[name])
			if err := writeFile(filepath.Join(dir, "seed-"+name), entry); err != nil {
				return err
			}
		}
	}
	return nil
}

// corpusEntry encodes one []byte seed in the `go test fuzz v1` on-disk
// corpus format.
func corpusEntry(b []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n")
}

func writeFile(path string, b []byte) error {
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(b))
	return nil
}
