// Package archive implements a simple multi-field container for campaigns
// of fixed-ratio-compressed scientific fields: many compressed streams, one
// file, random access by field name. It is the storage-quota use case of
// the paper (§III-B) made concrete — compress every snapshot of a campaign
// toward the quota-derived target ratio and keep them individually
// retrievable.
//
// Layout:
//
//	"FXRZARCH1"
//	entry*        each: raw compressed stream bytes
//	index         gob([]entryMeta)
//	footer        8-byte little-endian index offset, "FXRZEND1"
//
// Entries are written streaming (no seeking); the index carries offsets for
// random access on read.
package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	fxrz "github.com/fxrz-go/fxrz"
)

const (
	magic  = "FXRZARCH1"
	footer = "FXRZEND1"
)

// ErrNotFound reports a missing archive member.
var ErrNotFound = errors.New("archive: field not found")

// Entry describes one archived field.
type Entry struct {
	// Name is the archive member name (unique).
	Name string
	// Offset and Size locate the compressed stream in the file.
	Offset int64
	Size   int64
	// RawBytes is the uncompressed field size, for ratio accounting.
	RawBytes int64
}

// Ratio returns the member's compression ratio.
func (e Entry) Ratio() float64 {
	if e.Size == 0 {
		return 0
	}
	return float64(e.RawBytes) / float64(e.Size)
}

// Writer builds an archive on a streaming writer.
type Writer struct {
	w       io.Writer
	off     int64
	entries []Entry
	names   map[string]bool
	closed  bool
}

// NewWriter starts an archive on w.
func NewWriter(w io.Writer) (*Writer, error) {
	n, err := io.WriteString(w, magic)
	if err != nil {
		return nil, err
	}
	return &Writer{w: w, off: int64(n), names: map[string]bool{}}, nil
}

// Add appends a compressed stream under a unique name. rawBytes records the
// uncompressed size for ratio reporting (0 if unknown).
func (w *Writer) Add(name string, blob []byte, rawBytes int64) error {
	if w.closed {
		return errors.New("archive: writer closed")
	}
	if name == "" {
		return errors.New("archive: empty member name")
	}
	if w.names[name] {
		return fmt.Errorf("archive: duplicate member %q", name)
	}
	if len(blob) == 0 {
		return fmt.Errorf("archive: empty stream for %q", name)
	}
	n, err := w.w.Write(blob)
	if err != nil {
		return err
	}
	w.entries = append(w.entries, Entry{Name: name, Offset: w.off, Size: int64(n), RawBytes: rawBytes})
	w.names[name] = true
	w.off += int64(n)
	return nil
}

// Close writes the index and footer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	idxOff := w.off
	enc := gob.NewEncoder(w.w)
	if err := enc.Encode(w.entries); err != nil {
		return fmt.Errorf("archive: writing index: %w", err)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], uint64(idxOff))
	if _, err := w.w.Write(tail[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w.w, footer)
	return err
}

// Reader provides random access to an archive.
type Reader struct {
	r       io.ReaderAt
	entries []Entry
	byName  map[string]int
}

// OpenReader parses the index of an archive of the given total size.
func OpenReader(r io.ReaderAt, size int64) (*Reader, error) {
	head := make([]byte, len(magic))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("archive: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("archive: not an FXRZ archive")
	}
	tailLen := int64(8 + len(footer))
	if size < int64(len(magic))+tailLen {
		return nil, errors.New("archive: truncated")
	}
	tail := make([]byte, tailLen)
	if _, err := r.ReadAt(tail, size-tailLen); err != nil {
		return nil, fmt.Errorf("archive: reading footer: %w", err)
	}
	if string(tail[8:]) != footer {
		return nil, errors.New("archive: missing footer (truncated write?)")
	}
	idxOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if idxOff < int64(len(magic)) || idxOff > size-tailLen {
		return nil, errors.New("archive: corrupt index offset")
	}
	idx := make([]byte, size-tailLen-idxOff)
	if _, err := r.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("archive: reading index: %w", err)
	}
	var entries []Entry
	if err := gob.NewDecoder(bytes.NewReader(idx)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("archive: decoding index: %w", err)
	}
	rd := &Reader{r: r, entries: entries, byName: make(map[string]int, len(entries))}
	for i, e := range entries {
		if e.Offset < int64(len(magic)) || e.Size <= 0 || e.Offset+e.Size > idxOff {
			return nil, fmt.Errorf("archive: corrupt entry %q", e.Name)
		}
		rd.byName[e.Name] = i
	}
	return rd, nil
}

// List returns the archive members in write order.
func (r *Reader) List() []Entry { return append([]Entry(nil), r.entries...) }

// Blob returns the raw compressed stream of a member.
func (r *Reader) Blob(name string) ([]byte, error) {
	i, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e := r.entries[i]
	buf := make([]byte, e.Size)
	if _, err := r.r.ReadAt(buf, e.Offset); err != nil {
		return nil, fmt.Errorf("archive: reading %q: %w", name, err)
	}
	return buf, nil
}

// Field decompresses a member through the built-in codec dispatch.
func (r *Reader) Field(name string) (*fxrz.Field, error) {
	blob, err := r.Blob(name)
	if err != nil {
		return nil, err
	}
	return fxrz.Decompress(blob)
}

// TotalCompressed returns the summed member sizes (excluding index/framing).
func (r *Reader) TotalCompressed() int64 {
	var s int64
	for _, e := range r.entries {
		s += e.Size
	}
	return s
}
