package brick

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/sz"
)

// header builds a store header: empty name, dims, side and the claimed count.
func header(side, count uint64, dims ...uint64) []byte {
	b := append([]byte("FXRZBRK1"), 0, byte(len(dims)))
	for _, d := range append(dims, side, count) {
		b = binary.AppendUvarint(b, d)
	}
	return b
}

// hostileStore is 21 bytes that describe 2^57 bricks and carry none.
var hostileStore = header(2, 0, 1<<20, 1<<20, 1<<20)

// allocDelta reports the bytes allocated while fn runs.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalAllocatesByLength: a header is a claim. Whatever geometry it
// states, Unmarshal fails having allocated O(len(blob)), before any per-brick
// geometry is built.
func TestUnmarshalAllocatesByLength(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		blob       []byte
	}{
		{"dims product past CheckDims", "overflow addressable size", hostileStore},
		{"2^36 bricks, no streams", "0 streams cannot fill", header(2, 0, 1<<13, 1<<13, 1<<13)},
		{"8 bricks, 3 streams", "3 streams cannot fill", append(header(2, 3, 4, 4, 4), 0, 0, 0)},
		{"8 bricks, 9 streams", "9 streams for 8 bricks", append(header(2, 9, 4, 4, 4), make([]byte, 9)...)},
		{"dim past MaxInt", "bad dim", header(2, 0, 1<<63)},
		{"side past MaxInt", "bad brick side", header(1<<63, 0, 4)},
	} {
		var err error
		got := allocDelta(func() { _, err = Unmarshal(nil, tc.blob) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if got >= 64<<10 {
			t.Errorf("%s: %d bytes allocated %d before failing", tc.name, len(tc.blob), got)
		}
	}
}

// FuzzUnmarshal: the store container never panics, a rejected input costs a
// small multiple of its own length (a slice header per stream it did carry),
// and an accepted one survives a Marshal round trip.
func FuzzUnmarshal(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/sz-bricks.store")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(hostileStore)
	f.Add(header(2, 0, 1<<13, 1<<13, 1<<13))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *Store
		var err error
		got := allocDelta(func() { st, err = Unmarshal(sz.New(), data) })
		if err != nil {
			if got > 64<<10+64*uint64(len(data)) {
				t.Fatalf("rejecting %d bytes allocated %d", len(data), got)
			}
			return
		}
		again, err := Unmarshal(sz.New(), st.Marshal())
		if err != nil {
			t.Fatalf("re-reading an accepted store: %v", err)
		}
		if again.Bricks() != st.Bricks() || !bytes.Equal(again.Marshal(), st.Marshal()) {
			t.Fatalf("store changed across a round trip: %d -> %d bricks", st.Bricks(), again.Bricks())
		}
	})
}
