package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestFixturesReproduce regenerates every fixture into a scratch root and
// requires each file to equal the committed one byte for byte. It fails when
// a stream or index format moves without `go run ./cmd/genfixtures`, or when
// a committed fixture (golden stream or fuzz seed) is edited by hand.
func TestFixturesReproduce(t *testing.T) {
	root := t.TempDir()
	if err := run([]string{"-root", root}); err != nil {
		t.Fatal(err)
	}
	repo := filepath.Join("..", "..")
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fresh, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		committed, err := os.ReadFile(filepath.Join(repo, rel))
		if err != nil {
			t.Errorf("%s: generated but not committed: %v", rel, err)
			return nil
		}
		if !bytes.Equal(fresh, committed) {
			t.Errorf("%s: regenerated %d bytes differ from the %d committed bytes", rel, len(fresh), len(committed))
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("genfixtures wrote no files")
	}
}
