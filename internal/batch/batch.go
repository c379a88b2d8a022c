// Package batch implements the multi-item request/response container behind
// fxrzd's /v1/estimate-many, /v1/pack-many and /v1/unpack-many endpoints.
//
// The serving benchmarks show the HTTP round trip costs a roughly fixed
// ~200-400us per request (routing, admission, body parse, loopback TCP) — a
// 6.73x overhead on an estimate whose actual work is 78us. For the workload
// the framework targets (millions of clients issuing many small estimate and
// unpack calls, not one giant field) that fixed cost dominates. Batching
// amortizes it: one request carries N items, pays the per-request serving
// machinery once, and returns N independently-statused results, so one bad
// item fails alone while the rest succeed.
//
// # Request container
//
//	byte    magic (MagicRequest, 0xB5)
//	byte    version (1)
//	uvarint item count (>= 1)
//	per item:
//	  uvarint id — caller-chosen correlation id, echoed in the response
//	  uvarint params length, params bytes — optional URL-query-encoded
//	          per-item overrides ("model=...&target=...", "region=..."),
//	          merged over the request's own query parameters
//	  uvarint payload length, payload bytes — the item body, exactly what
//	          the corresponding single-item endpoint takes
//	u32le   CRC-32C over everything from the magic byte to the last payload
//
// # Response container
//
//	byte    magic (MagicResponse, 0xB6)
//	byte    version (1)
//	uvarint item count
//	per item:
//	  uvarint id — echoed from the request item
//	  uvarint status — the item's HTTP-semantics status code (200 = ok)
//	  uvarint payload length, payload bytes — the single-endpoint response
//	          body on success, a plain-text error message otherwise
//	u32le   CRC-32C over everything from the magic byte to the last payload
//
// The framing discipline is the indexed-container one (internal/roi, 0xC1):
// uvarint length prefixes, a trailing CRC-32C binding the frame, and loud
// rejection of anything mutated or truncated — a batch is one body parse,
// not N separately-framed sub-requests, so a single flipped byte must fail
// the whole parse rather than silently mis-split the items.
package batch

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/fxrz-go/fxrz/internal/compress"
)

// Container magic bytes. They share the one-byte namespace of the codec
// stream magics (compress.Magic*), so a batch container is cheaply
// distinguishable from any payload it could carry.
const (
	MagicRequest  byte = 0xB5
	MagicResponse byte = 0xB6
)

// Version is the container format version.
const Version = 1

// MaxItems bounds the item count any container may declare. It exists to
// make a hostile count harmless before allocation — real batch limits are
// the serving layer's (Config.MaxBatch, default 64).
const MaxItems = 1 << 16

// castagnoli is the CRC-32C table for the container checksum (hardware
// accelerated on amd64/arm64), matching the roi container's choice.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Item is one request entry: a correlation ID the response echoes, optional
// URL-query-encoded per-item parameter overrides, and the payload the
// single-item endpoint would have taken as its whole body.
type Item struct {
	ID      uint64
	Params  string
	Payload []byte
}

// Result is one response entry: the echoed ID, the item's own HTTP-semantics
// status, and the payload (result bytes on 2xx, an error message otherwise).
type Result struct {
	ID      uint64
	Status  int
	Payload []byte
}

// EncodeRequest frames items as a request container.
func EncodeRequest(items []Item) []byte {
	size := 2 + binary.MaxVarintLen64 + 4
	for _, it := range items {
		size += 3*binary.MaxVarintLen64 + len(it.Params) + len(it.Payload)
	}
	out := make([]byte, 0, size)
	out = append(out, MagicRequest, Version)
	out = binary.AppendUvarint(out, uint64(len(items)))
	for _, it := range items {
		out = binary.AppendUvarint(out, it.ID)
		out = binary.AppendUvarint(out, uint64(len(it.Params)))
		out = append(out, it.Params...)
		out = binary.AppendUvarint(out, uint64(len(it.Payload)))
		out = append(out, it.Payload...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// EncodeResponse frames results as a response container.
func EncodeResponse(results []Result) []byte {
	size := 2 + binary.MaxVarintLen64 + 4
	for _, r := range results {
		size += 3*binary.MaxVarintLen64 + len(r.Payload)
	}
	out := make([]byte, 0, size)
	out = append(out, MagicResponse, Version)
	out = binary.AppendUvarint(out, uint64(len(results)))
	for _, r := range results {
		out = binary.AppendUvarint(out, r.ID)
		out = binary.AppendUvarint(out, uint64(r.Status))
		out = binary.AppendUvarint(out, uint64(len(r.Payload)))
		out = append(out, r.Payload...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// DecodeRequest parses a request container. Item payloads and params alias
// blob — valid as long as the caller keeps blob alive.
func DecodeRequest(blob []byte) ([]Item, error) {
	body, count, err := openFrame(blob, MagicRequest)
	if err != nil {
		return nil, err
	}
	items := make([]Item, 0, count)
	for i := 0; i < count; i++ {
		id, rest, err := takeUvarint(body, "item id")
		if err != nil {
			return nil, err
		}
		params, rest, err := takeBytes(rest, "item params")
		if err != nil {
			return nil, err
		}
		payload, rest, err := takeBytes(rest, "item payload")
		if err != nil {
			return nil, err
		}
		items = append(items, Item{ID: id, Params: string(params), Payload: payload})
		body = rest
	}
	if len(body) != 0 {
		return nil, corruptf("%d trailing bytes after the last item", len(body))
	}
	return items, nil
}

// DecodeResponse parses a response container. Result payloads alias blob.
func DecodeResponse(blob []byte) ([]Result, error) {
	body, count, err := openFrame(blob, MagicResponse)
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, count)
	for i := 0; i < count; i++ {
		id, rest, err := takeUvarint(body, "result id")
		if err != nil {
			return nil, err
		}
		status, rest, err := takeUvarint(rest, "result status")
		if err != nil {
			return nil, err
		}
		if status < 100 || status > 599 {
			return nil, corruptf("result status %d outside 100..599", status)
		}
		payload, rest, err := takeBytes(rest, "result payload")
		if err != nil {
			return nil, err
		}
		results = append(results, Result{ID: id, Status: int(status), Payload: payload})
		body = rest
	}
	if len(body) != 0 {
		return nil, corruptf("%d trailing bytes after the last result", len(body))
	}
	return results, nil
}

// openFrame validates magic, version, checksum and count, returning the item
// body (everything between the count and the CRC) and the declared count.
func openFrame(blob []byte, magic byte) (body []byte, count int, err error) {
	if len(blob) < 2 || blob[0] != magic {
		return nil, 0, corruptf("not a batch container (magic 0x%02x)", firstByte(blob))
	}
	if blob[1] != Version {
		return nil, 0, corruptf("container version %d, want %d", blob[1], Version)
	}
	if len(blob) < 2+1+4 {
		return nil, 0, corruptf("truncated container (%d bytes)", len(blob))
	}
	framed, sum := blob[:len(blob)-4], binary.LittleEndian.Uint32(blob[len(blob)-4:])
	if got := crc32.Checksum(framed, castagnoli); got != sum {
		return nil, 0, corruptf("container checksum mismatch")
	}
	n, k := binary.Uvarint(framed[2:])
	if k <= 0 {
		return nil, 0, corruptf("bad item count")
	}
	if n == 0 {
		return nil, 0, corruptf("empty batch")
	}
	// Every item needs at least 3 bytes of framing, so a count the remaining
	// bytes cannot possibly hold is rejected before any allocation.
	body = framed[2+k:]
	if n > MaxItems || n > uint64(len(body)) {
		return nil, 0, corruptf("item count %d exceeds the container", n)
	}
	return body, int(n), nil
}

// takeUvarint pops one uvarint off blob.
func takeUvarint(blob []byte, what string) (uint64, []byte, error) {
	v, k := binary.Uvarint(blob)
	if k <= 0 {
		return 0, nil, corruptf("bad %s", what)
	}
	return v, blob[k:], nil
}

// takeBytes pops one length-prefixed byte run off blob.
func takeBytes(blob []byte, what string) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(blob, what+" length")
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, corruptf("truncated %s (%d of %d bytes)", what, len(rest), n)
	}
	return rest[:n:n], rest[n:], nil
}

// corruptf tags container parse failures with compress.ErrCorrupt so the
// serving layer maps them to 400, like every other malformed stream.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("batch: %w: "+format, append([]any{compress.ErrCorrupt}, args...)...)
}

func firstByte(blob []byte) byte {
	if len(blob) == 0 {
		return 0
	}
	return blob[0]
}
