package archive

import (
	"bytes"
	"errors"
	"math"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
)

func sampleField(name string, seed int) *fxrz.Field {
	f, err := fxrz.NewField(name, 12, 12, 12)
	if err != nil {
		panic(err)
	}
	for i := range f.Data {
		f.Data[i] = float32(math.Sin(float64(i+seed*37) / 20))
	}
	return f
}

func buildArchive(t *testing.T, names ...string) ([]byte, map[string]*fxrz.Field) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := fxrz.NewSZ()
	fields := map[string]*fxrz.Field{}
	for i, name := range names {
		f := sampleField(name, i)
		fields[name] = f
		blob, err := c.Compress(f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Add(name, blob, int64(f.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), fields
}

func TestArchiveRoundTrip(t *testing.T) {
	data, fields := buildArchive(t, "a", "b", "c")
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("%d members", len(list))
	}
	for _, e := range list {
		if e.Ratio() <= 0 {
			t.Errorf("%s: ratio %v", e.Name, e.Ratio())
		}
		got, err := r.Field(e.Name)
		if err != nil {
			t.Fatalf("Field(%s): %v", e.Name, err)
		}
		want := fields[e.Name]
		maxErr, err := fxrz.MaxAbsError(want, got)
		if err != nil {
			t.Fatal(err)
		}
		if maxErr > 1e-3 {
			t.Errorf("%s: max error %v", e.Name, maxErr)
		}
	}
	if r.TotalCompressed() <= 0 || r.TotalCompressed() >= int64(len(data)) {
		t.Errorf("TotalCompressed = %d of %d", r.TotalCompressed(), len(data))
	}
}

func TestArchiveRandomAccessOrderIndependent(t *testing.T) {
	data, _ := buildArchive(t, "x", "y", "z")
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Access members out of order.
	for _, name := range []string{"z", "x", "y", "x"} {
		if _, err := r.Field(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := r.Blob("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing member error = %v", err)
	}
}

func TestArchiveWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add("", []byte{1}, 0); err == nil {
		t.Error("empty name accepted")
	}
	if err := w.Add("a", nil, 0); err == nil {
		t.Error("empty stream accepted")
	}
	if err := w.Add("a", []byte{1, 2}, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("a", []byte{3}, 8); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("b", []byte{1}, 0); err == nil {
		t.Error("add after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestArchiveRejectsCorrupt(t *testing.T) {
	data, _ := buildArchive(t, "a")
	if _, err := OpenReader(bytes.NewReader(data[:4]), 4); err == nil {
		t.Error("truncated archive accepted")
	}
	if _, err := OpenReader(bytes.NewReader([]byte("JUNKJUNKJUNKJUNKJUNKJUNK")), 24); err == nil {
		t.Error("junk accepted")
	}
	// Cut the footer off.
	cut := data[:len(data)-3]
	if _, err := OpenReader(bytes.NewReader(cut), int64(len(cut))); err == nil {
		t.Error("missing footer accepted")
	}
	// Corrupt the index offset.
	mut := append([]byte(nil), data...)
	mut[len(mut)-9] ^= 0xFF
	if _, err := OpenReader(bytes.NewReader(mut), int64(len(mut))); err == nil {
		t.Error("corrupt index offset accepted")
	}
}
