package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
)

// randomItems builds a deterministic pseudo-random item set covering the
// frame's edge shapes: empty params, empty payloads, large IDs, binary
// payloads containing the container magics.
func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		it := &items[i]
		it.ID = rng.Uint64() >> uint(rng.Intn(64))
		if rng.Intn(3) > 0 {
			it.Params = "model=nyx-sz&target=8.5"[:rng.Intn(23)]
		}
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		if len(payload) > 0 && rng.Intn(4) == 0 {
			payload[0] = MagicRequest // payloads may look like containers
		}
		it.Payload = payload
	}
	return items
}

func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 64, 300} {
		items := randomItems(rng, n)
		blob := EncodeRequest(items)
		if _, err := DecodeResponse(blob); err == nil {
			t.Fatalf("n=%d: request container decodes as a response", n)
		}
		got, err := DecodeRequest(blob)
		if err != nil {
			t.Fatalf("n=%d: DecodeRequest: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d items", n, len(got))
		}
		for i := range items {
			if got[i].ID != items[i].ID || got[i].Params != items[i].Params ||
				!bytes.Equal(got[i].Payload, items[i].Payload) {
				t.Fatalf("n=%d item %d: round trip diverged: %+v != %+v", n, i, got[i], items[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	statuses := []int{200, 400, 404, 413, 503}
	for _, n := range []int{1, 3, 64} {
		results := make([]Result, n)
		for i := range results {
			payload := make([]byte, rng.Intn(48))
			rng.Read(payload)
			results[i] = Result{ID: rng.Uint64(), Status: statuses[rng.Intn(len(statuses))], Payload: payload}
		}
		blob := EncodeResponse(results)
		if _, err := DecodeRequest(blob); err == nil {
			t.Fatalf("n=%d: response container decodes as a request", n)
		}
		got, err := DecodeResponse(blob)
		if err != nil {
			t.Fatalf("n=%d: DecodeResponse: %v", n, err)
		}
		for i := range results {
			if got[i].ID != results[i].ID || got[i].Status != results[i].Status ||
				!bytes.Equal(got[i].Payload, results[i].Payload) {
				t.Fatalf("n=%d result %d: round trip diverged", n, i)
			}
		}
	}
}

// TestMutatedFrameRejected flips every byte of a valid container in turn:
// each mutation must either fail decoding or (never) decode to the original
// items. The trailing CRC makes "decodes differently but silently" impossible.
func TestMutatedFrameRejected(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(3)), 5)
	blob := EncodeRequest(items)
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		got, err := DecodeRequest(mut)
		if err != nil {
			continue
		}
		// A decode that still succeeds must have produced the same items —
		// which a single XOR under a CRC-protected frame cannot.
		t.Fatalf("byte %d: mutated container decoded to %d items without error", i, len(got))
	}
}

func TestTruncatedFrameRejected(t *testing.T) {
	blob := EncodeRequest(randomItems(rand.New(rand.NewSource(4)), 3))
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeRequest(blob[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(blob))
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"empty", nil, "not a batch container"},
		{"wrong magic", []byte{0xC1, 1, 0, 0, 0, 0, 0}, "not a batch container"},
		{"bad version", []byte{MagicRequest, 9, 0, 0, 0, 0, 0}, "version 9"},
		{"empty batch", withCRC([]byte{MagicRequest, Version, 0, 0}), "empty batch"},
		{"count overruns", withCRC([]byte{MagicRequest, Version, 200, 1}), "exceeds the container"},
		{"trailing bytes", withCRC(append(EncodeRequest([]Item{{ID: 1}})[:len(EncodeRequest([]Item{{ID: 1}}))-4], 0xFF)), "trailing bytes"},
	}
	for _, tc := range cases {
		_, err := DecodeRequest(tc.blob)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap compress.ErrCorrupt", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
	// A response status outside HTTP's range is structural corruption.
	bad := withCRC([]byte{MagicResponse, Version, 1, 1, 42, 0})
	if _, err := DecodeResponse(bad); err == nil || !strings.Contains(err.Error(), "outside 100..599") {
		t.Errorf("out-of-range status: err = %v", err)
	}
}

// withCRC appends the checksum a hand-built frame body needs to get past the
// frame check and into the structural validation under test.
func withCRC(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	sum := crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(out, sum)
}
