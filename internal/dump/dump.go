// Package dump simulates parallel data dumping on a supercomputer — the
// paper's end-to-end experiment (§V-H, 1024–4096 cores on ANL Bebop, GPFS at
// ~2 GB/s). Each rank analyses its field (FXRZ inference or FRaZ search),
// compresses it, and writes the result through a shared parallel file
// system. Analysis and compression are perfectly parallel across ranks;
// I/O contends for the aggregate bandwidth. The simulator is a discrete-
// event model fed with *measured* per-rank times from the real codecs, so
// the FXRZ-vs-FRaZ gain it reports reproduces the mechanism behind the
// paper's 1.18–8.71× speedups: FRaZ's per-rank analysis costs many
// compressions while FXRZ's costs almost nothing.
package dump

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// RankTask describes one rank's work.
type RankTask struct {
	// AnalysisTime is the fixed-ratio configuration search/inference cost.
	AnalysisTime time.Duration
	// CompressTime is the single compression at the chosen setting.
	CompressTime time.Duration
	// Bytes is the compressed output size to be written.
	Bytes int64
}

// IOConfig models the shared parallel file system.
type IOConfig struct {
	// Bandwidth is the aggregate write bandwidth in bytes/second
	// (Bebop's GPFS: ~2 GB/s), divided evenly among the channels.
	Bandwidth float64
}

// channels is the number of concurrent writers the I/O subsystem sustains
// (Bebop: 2 I/O nodes).
const channels = 2

// DefaultIO returns the Bebop-like I/O model used in the evaluation.
func DefaultIO() IOConfig { return IOConfig{Bandwidth: 2e9} }

// Result summarises one simulated dump.
type Result struct {
	// Makespan is the end-to-end wall time from job start to the last byte
	// written.
	Makespan time.Duration
	// ComputeTime is the mean per-rank analysis+compression time.
	ComputeTime time.Duration
	// IOBusy is the total time the I/O subsystem spent busy.
	IOBusy time.Duration
}

// Simulate runs the discrete-event model for the given rank tasks.
// Each channel serves requests in arrival order at Bandwidth/channels.
func Simulate(tasks []RankTask, io IOConfig) (Result, error) {
	if len(tasks) == 0 {
		return Result{}, fmt.Errorf("dump: no rank tasks")
	}
	if io.Bandwidth <= 0 {
		return Result{}, fmt.Errorf("dump: invalid I/O config %+v", io)
	}
	perChannel := io.Bandwidth / channels

	// Arrival events: rank i requests I/O at analysis+compress completion.
	type arrival struct {
		at    float64 // seconds
		bytes int64
	}
	arrivals := make([]arrival, len(tasks))
	var computeSum time.Duration
	for i, t := range tasks {
		if t.AnalysisTime < 0 || t.CompressTime < 0 || t.Bytes < 0 {
			return Result{}, fmt.Errorf("dump: negative task parameters at rank %d", i)
		}
		arrivals[i] = arrival{at: (t.AnalysisTime + t.CompressTime).Seconds(), bytes: t.Bytes}
		computeSum += t.AnalysisTime + t.CompressTime
	}
	// Sort arrivals by time (FIFO service).
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

	// Channel availability times as a min-heap.
	ch := make(minHeap, channels)
	heap.Init(&ch)

	var makespan, ioBusy float64
	for _, a := range arrivals {
		free := ch[0]
		start := a.at
		if free > start {
			start = free
		}
		service := float64(a.bytes) / perChannel
		end := start + service
		ch[0] = end
		heap.Fix(&ch, 0)
		ioBusy += service
		if end > makespan {
			makespan = end
		}
	}
	return Result{
		Makespan:    secondsToDuration(makespan),
		ComputeTime: computeSum / time.Duration(len(tasks)),
		IOBusy:      secondsToDuration(ioBusy),
	}, nil
}

// Uniform builds n identical rank tasks — the common case where every rank
// dumps one field of the same dataset.
func Uniform(n int, t RankTask) []RankTask {
	out := make([]RankTask, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// Gain returns how much faster dump a is than dump b (makespan_b /
// makespan_a).
func Gain(a, b Result) float64 {
	if a.Makespan <= 0 {
		return 0
	}
	return float64(b.Makespan) / float64(a.Makespan)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

type minHeap []float64

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *minHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
