package entropy

import "github.com/fxrz-go/fxrz/internal/pool"

// Scratch pools for the entropy stages: the frequency table, code table,
// LZ hash chains, decode table, symbol buffers and bit-stream payloads that a
// training sweep would otherwise allocate on every one of its dozens of runs
// per field. Every pool reports to the obs counters entropy/scratch_hit and
// entropy/scratch_miss. A buffer comes back with unspecified contents: the
// two readers that need zeros, the frequency count and the first-level decode
// table, clear it where they take it, and every other consumer overwrites an
// entry before reading it.
var (
	byteScratch  = newScratch[byte]()
	intScratch   = newScratch[int]()
	int32Scratch = newScratch[int32]()
	u32Scratch   = newScratch[uint32]()
	codeScratch  = newScratch[huffCode]()
	decScratch   = newScratch[decEntry]()
)

func newScratch[T any]() *pool.Slices[T] {
	return pool.NewSlices[T]("entropy/scratch_hit", "entropy/scratch_miss")
}
