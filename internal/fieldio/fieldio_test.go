package fieldio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestRoundTrip(t *testing.T) {
	f := grid.MustNew("a test field", 3, 4, 5)
	for i := range f.Data {
		f.Data[i] = float32(i) * 0.25
	}
	// Bit-exactness must survive NaN payloads and infinities.
	f.Data[0] = float32(math.NaN())
	f.Data[1] = float32(math.Inf(1))
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "a_test_field" {
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Dims) != 3 || g.Dims[0] != 3 || g.Dims[1] != 4 || g.Dims[2] != 5 {
		t.Errorf("dims = %v", g.Dims)
	}
	for i := range f.Data {
		if math.Float32bits(f.Data[i]) != math.Float32bits(g.Data[i]) {
			t.Fatalf("sample %d: %x != %x", i, math.Float32bits(f.Data[i]), math.Float32bits(g.Data[i]))
		}
	}
}

// The one-copy paths write and read exactly the bytes and bits the
// per-sample loops do, on random bit patterns with NaN payloads, −0,
// subnormals and infinities mixed in, from 0 samples up.
func TestFieldBytesMatchPerSample(t *testing.T) {
	if !samplesLE {
		t.Skip("big-endian host: the per-sample loops are the only path")
	}
	perSample := func(fn func()) {
		samplesLE = false
		defer func() { samplesLE = true }()
		fn()
	}
	rng := rand.New(rand.NewSource(35))
	specials := []uint32{0x7fc00001, 0xffbfffff, 0x7f800001, 0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000}
	for _, n := range []int{0, 1, 2, 3, 7, 1024, 4099} {
		f := &grid.Field{Name: "bits", Dims: []int{n}, Data: make([]float32, n)}
		for i := range f.Data {
			b := rng.Uint32()
			if i%3 == 0 {
				b = specials[rng.Intn(len(specials))]
			}
			f.Data[i] = math.Float32frombits(b)
		}
		var bulk, loop bytes.Buffer
		if err := Write(&bulk, f); err != nil {
			t.Fatal(err)
		}
		perSample(func() {
			if err := Write(&loop, f); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(bulk.Bytes(), loop.Bytes()) {
			t.Fatalf("%d samples: one-copy Write differs from the per-sample loop", n)
		}
		if n == 0 {
			continue // a container cannot hold a 0-sample field
		}
		// An odd-length header puts the payload off 4-byte alignment.
		for _, name := range []string{"bits", "odd"} {
			f.Name = name
			var buf bytes.Buffer
			if err := Write(&buf, f); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			var want *grid.Field
			perSample(func() { want, err = Decode(buf.Bytes()) })
			if err != nil {
				t.Fatal(err)
			}
			for i := range f.Data {
				b := math.Float32bits(f.Data[i])
				if math.Float32bits(got.Data[i]) != b || math.Float32bits(want.Data[i]) != b {
					t.Fatalf("%d samples, sample %d: one-copy %08x, per-sample %08x, written %08x",
						n, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]), b)
				}
			}
		}
	}
	if len(sampleBytes(nil)) != 0 || len(sampleBytes([]float32{})) != 0 {
		t.Error("byte view of no samples is not empty")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong magic":  "notafield x 3\nxxxx",
		"no dims":      "fxrzfield x\n",
		"bad dim":      "fxrzfield x 3 four\n",
		"zero dim":     "fxrzfield x 0\n",
		"neg dim":      "fxrzfield x -3\n",
		"too many":     "fxrzfield x 2 2 2 2 2\n",
		"overflow dim": "fxrzfield x 9999999 9999999 9999999\n",
		"truncated":    "fxrzfield x 2 2\n\x00\x00",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsUnboundedHeader(t *testing.T) {
	// A binary stream with no newline must fail fast, not buffer forever.
	junk := strings.Repeat("\xff", 3*maxHeaderLen)
	if _, err := Read(strings.NewReader(junk)); err == nil {
		t.Fatal("headerless binary stream accepted")
	}
}

// hostileHeader claims a 2³⁸-sample (1 TiB) field in 27 bytes — legal dims
// as far as grid is concerned, so only the payload-length check stands
// between it and the allocator.
const hostileHeader = "fxrzfield x 65536 65536 64\n"

// allocDelta reports the bytes allocated while fn runs.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShortBodyAllocatesByLength: a body shorter than its header claims must
// fail having allocated O(len(body)) — on both entry points, and with the
// error text callers already match on.
func TestShortBodyAllocatesByLength(t *testing.T) {
	for _, body := range []string{hostileHeader, hostileHeader + strings.Repeat("\x00", 4096)} {
		for name, decode := range map[string]func() error{
			"Decode": func() error { _, err := Decode([]byte(body)); return err },
			"Read":   func() error { _, err := Read(strings.NewReader(body)); return err },
			"Read of a stream": func() error {
				_, err := Read(io.MultiReader(strings.NewReader(body))) // no Len: not presized
				return err
			},
		} {
			var err error
			got := allocDelta(func() { err = decode() })
			if err == nil || !strings.Contains(err.Error(), "reading 274877906944 samples") {
				t.Errorf("%s(%d bytes): err = %v, want a short-payload error", name, len(body), err)
			}
			if got >= 1<<20 {
				t.Errorf("%s(%d bytes) allocated %d bytes before failing", name, len(body), got)
			}
		}
	}
}

// TestDecodeErrorsAndTail pins the messages the serve layer relays and the
// tolerance Read always had for bytes after the last sample.
func TestDecodeErrorsAndTail(t *testing.T) {
	for in, want := range map[string]string{
		"":                                       "reading header",
		"notafield x 3\nxxxx":                    "not an fxrzfield container",
		"fxrzfield x 3 four\n":                   "bad dim",
		"fxrzfield x 2 2\n\x00\x00":              "reading 4 samples",
		"fxrzfield x 0\n":                        "strictly positive",
		strings.Repeat("y", maxHeaderLen) + "\n": "header line exceeds",
	} {
		if _, err := Decode([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode(%.20q): err = %v, want %q", in, err, want)
		}
	}
	f, err := Decode([]byte("fxrzfield t 1\n\x00\x00\x80\x3ftrailing"))
	if err != nil || f.Name != "t" || f.Data[0] != 1 {
		t.Errorf("tail after the last sample: field %v, err %v", f, err)
	}
}

// FuzzFieldDecode: the container every network endpoint parses first never
// panics, never allocates beyond a multiple of its input, and re-encodes
// bit-exactly (NaN payloads included) whatever it accepts.
func FuzzFieldDecode(f *testing.F) {
	for _, dims := range [][]int{{5}, {2, 3}, {2, 3, 2}, {2, 1, 2, 2}} {
		fd := grid.MustNew("seed", dims...)
		for i := range fd.Data {
			fd.Data[i] = math.Float32frombits(0x7fc00000 + uint32(i)) // distinct NaN payloads
		}
		var buf bytes.Buffer
		if err := Write(&buf, fd); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3]) // truncated payload
	}
	f.Add([]byte(hostileHeader))
	f.Add([]byte("fxrzfield x 9999999 9999999 9999999\n"))
	f.Add([]byte(strings.Repeat("h", maxHeaderLen+1)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fd *grid.Field
		var err error
		// Header text, dims and the sample slice: a small constant plus the
		// payload's own size, never the header's claim.
		if got := allocDelta(func() { fd, err = Decode(data) }); got > 64<<10+2*uint64(len(data)) {
			t.Fatalf("Decode of %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, fd); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decoding an accepted field: %v", err)
		}
		if len(again.Data) != len(fd.Data) || fmt.Sprint(again.Dims) != fmt.Sprint(fd.Dims) {
			t.Fatalf("shape changed across a round trip: %v -> %v", fd.Dims, again.Dims)
		}
		for i := range fd.Data {
			if math.Float32bits(fd.Data[i]) != math.Float32bits(again.Data[i]) {
				t.Fatalf("sample %d not bit-exact across a round trip", i)
			}
		}
	})
}
