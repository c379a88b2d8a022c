package sz

import "github.com/fxrz-go/fxrz/internal/pool"

// Scratch pools for the quantization buffers of both SZ codecs. A stationary
// sweep compresses the same field dozens of times; the code, reconstruction
// and byte-serialisation buffers are the three large per-run allocations, and
// all three are fully overwritten before any read (the Lorenzo predictor only
// consults reconstructed values at indices already written this run), so
// recycling them is safe without zeroing. Every pool reports to the obs
// counters sz/scratch_hit and sz/scratch_miss.
var (
	u16Scratch  = newScratch[uint16]()
	f32Scratch  = newScratch[float32]()
	byteScratch = newScratch[byte]()
)

func newScratch[T any]() *pool.Slices[T] {
	return pool.NewSlices[T]("sz/scratch_hit", "sz/scratch_miss")
}
