// Package fieldio reads and writes the fxrzfield container — the tiny
// self-describing on-disk and on-wire format for dense float32 fields used
// by cmd/fxrz files and the fxrzd HTTP endpoints alike:
//
//	fxrzfield <name> <d0> [d1 ...]\n
//	<little-endian float32 samples, row-major>
//
// The header line is ASCII so a field file identifies itself under `head`;
// the payload is raw sample bits, so round trips are bit-exact (NaN
// payloads included).
//
// Every network endpoint parses this container first, from bytes in hand:
// Decode checks that the payload is as long as the header claims before it
// allocates anything sized by the header. Read is Decode over a drained reader.
package fieldio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// magicWord opens every container header line.
const magicWord = "fxrzfield"

// maxHeaderLen bounds the header line a decoder will scan for its newline:
// a name plus four 13-digit dims fit comfortably, and a binary blob mistaken
// for a field file fails after 4 KiB.
const maxHeaderLen = 4096

// samplesLE reports that a float32 sits in memory as the container stores
// it, little-endian, so a payload moves in one copy through sampleBytes.
// Elsewhere Decode and Write convert sample by sample; the tests clear it to
// hold the one-copy path to those loops.
var samplesLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sampleBytes views s as the 4·len(s) bytes it occupies in memory.
func sampleBytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// Write serialises f to w in the fxrzfield container format.
func Write(w io.Writer, f *grid.Field) error {
	bw := bufio.NewWriter(w) // write errors are sticky: Flush reports the first
	name := strings.ReplaceAll(f.Name, " ", "_")
	if name == "" {
		name = "field"
	}
	fmt.Fprintf(bw, "%s %s", magicWord, name)
	for _, d := range f.Dims {
		fmt.Fprintf(bw, " %d", d)
	}
	bw.WriteByte('\n')
	if samplesLE {
		bw.Write(sampleBytes(f.Data))
	} else {
		var buf [4]byte
		for _, v := range f.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			bw.Write(buf[:])
		}
	}
	return bw.Flush()
}

// Decode parses one field from the bytes in hand. Nothing is allocated on the
// header's say-so: the dims are validated (grid.CheckDims: 1–4 strictly
// positive extents, bounded product) and the payload checked to hold the
// 4·n sample bytes they claim before the sample slice is made, so a hostile
// header costs O(len(data)) whatever sizes it names. Samples are copied
// straight from data, which is not retained; bytes past the last sample are
// ignored.
func Decode(data []byte) (*grid.Field, error) {
	head := data[:min(len(data), maxHeaderLen)]
	nl := bytes.IndexByte(head, '\n')
	switch {
	case nl < 0 && len(head) == maxHeaderLen:
		return nil, fmt.Errorf("fieldio: header line exceeds %d bytes", maxHeaderLen)
	case nl < 0:
		return nil, fmt.Errorf("fieldio: reading header: %w", io.ErrUnexpectedEOF)
	}
	parts := strings.Fields(string(head[:nl]))
	if len(parts) < 3 || parts[0] != magicWord {
		return nil, fmt.Errorf("fieldio: not an fxrzfield container")
	}
	dims := make([]int, 0, len(parts)-2)
	for _, p := range parts[2:] {
		d, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("fieldio: bad dim %q", p)
		}
		dims = append(dims, d)
	}
	n, err := grid.CheckDims(dims)
	if err != nil {
		return nil, fmt.Errorf("fieldio: %w", err)
	}
	raw := data[nl+1:]
	if len(raw)/4 < n {
		return nil, fmt.Errorf("fieldio: reading %d samples: %w", n, io.ErrUnexpectedEOF)
	}
	vals := make([]float32, n)
	if samplesLE {
		copy(sampleBytes(vals), raw)
	} else {
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	return grid.FromData(parts[1], vals, dims...)
}

// Read drains r and decodes the one field it holds, so its allocation is
// bounded by the bytes r actually delivered, never by the header's claim;
// callers reading from untrusted sources cap the reader itself.
func Read(r io.Reader) (*grid.Field, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // an in-memory reader: stage it in one allocation
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("fieldio: reading: %w", err)
	}
	return Decode(buf.Bytes())
}
