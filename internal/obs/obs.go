// Package obs is FXRZ's lightweight observability layer: named counters,
// atomic gauges, timing histograms with percentile summaries, and span-style
// scoped timers that aggregate per-stage wall time and invocation counts.
//
// The layer is observational only — nothing read from it ever feeds back into
// training or inference, so instrumented code produces bit-identical results
// with recording on or off (the Parallelism-equality tests in internal/core
// run with recording enabled to enforce this).
//
// Recording is disabled by default. At startup a process opts in with
// Enable(), which swaps the process-wide no-op recorder for a live one; every
// recording call goes through one atomic pointer load, so the disabled cost
// on hot paths is a single predictable branch and no allocation. Span in
// particular returns a shared no-op closure when disabled — it does not even
// read the clock.
//
// Typical use:
//
//	defer obs.Span("train/sweep")()      // scoped stage timer
//	obs.Inc("compressor_runs/sz")        // named counter
//	obs.SetGauge("pool/workers", 8)      // atomic gauge
//
// Aggregated state is exported with TakeSnapshot (JSON-marshalable, see
// Snapshot) or published to expvar with Publish.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Recorder receives observability events. Two implementations exist: the
// package-private no-op recorder (the startup default) and the live recorder
// installed by Enable. Code under instrumentation always calls the package
// functions, which delegate to the active recorder.
type Recorder interface {
	// Add adds delta to the named counter.
	Add(name string, delta int64)
	// SetGauge stores v in the named gauge.
	SetGauge(name string, v int64)
	// AddGauge adds delta to the named gauge.
	AddGauge(name string, delta int64)
	// MaxGauge raises the named gauge to v if v exceeds its current value.
	MaxGauge(name string, v int64)
	// Observe records one duration sample in the named timing histogram.
	Observe(name string, d time.Duration)
	// Span starts a scoped timer; calling the returned func records the
	// elapsed time under name and bumps its invocation count.
	Span(name string) func()
	// Snapshot returns the aggregated state.
	Snapshot() *Snapshot
	// Reset clears all recorded state.
	Reset()
}

// nop is the disabled recorder: every method is a no-op and Span hands back a
// shared closure so a disabled span costs neither clock reads nor
// allocations.
type nop struct{}

var nopStop = func() {}

func (nop) Add(string, int64)             {}
func (nop) SetGauge(string, int64)        {}
func (nop) AddGauge(string, int64)        {}
func (nop) MaxGauge(string, int64)        {}
func (nop) Observe(string, time.Duration) {}
func (nop) Span(string) func()            { return nopStop }
func (nop) Snapshot() *Snapshot           { return &Snapshot{} }
func (nop) Reset()                        {}

// live is the recording recorder. Registries are sync.Maps so the steady
// state (metric already registered) is a lock-free read.
type live struct {
	counters sync.Map // name -> *atomic.Int64
	gauges   sync.Map // name -> *atomic.Int64
	hists    sync.Map // name -> *Histogram
}

func (l *live) counter(name string) *atomic.Int64 {
	if v, ok := l.counters.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := l.counters.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

func (l *live) gauge(name string) *atomic.Int64 {
	if v, ok := l.gauges.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := l.gauges.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

func (l *live) hist(name string) *Histogram {
	if v, ok := l.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := l.hists.LoadOrStore(name, newHistogram())
	return v.(*Histogram)
}

func (l *live) Add(name string, delta int64)      { l.counter(name).Add(delta) }
func (l *live) SetGauge(name string, v int64)     { l.gauge(name).Store(v) }
func (l *live) AddGauge(name string, delta int64) { l.gauge(name).Add(delta) }

// MaxGauge is a CAS loop so concurrent writers (e.g. request handlers
// reporting the in-flight peak) settle on the true maximum.
func (l *live) MaxGauge(name string, v int64) {
	g := l.gauge(name)
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}
func (l *live) Observe(name string, d time.Duration) { l.hist(name).Observe(d) }

func (l *live) Span(name string) func() {
	t0 := time.Now()
	return func() { l.hist(name).Observe(time.Since(t0)) }
}

func (l *live) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Spans:    map[string]SpanStats{},
	}
	l.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	l.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	l.hists.Range(func(k, v any) bool {
		s.Spans[k.(string)] = v.(*Histogram).Stats()
		return true
	})
	return s
}

func (l *live) Reset() {
	l.counters.Range(func(k, _ any) bool { l.counters.Delete(k); return true })
	l.gauges.Range(func(k, _ any) bool { l.gauges.Delete(k); return true })
	l.hists.Range(func(k, _ any) bool { l.hists.Delete(k); return true })
}

// active holds the recorder every package function delegates to. It starts
// as the no-op recorder; Enable swaps in a live one. The extra indirection
// through a struct keeps the interface value behind a single atomic pointer.
var active atomic.Pointer[holder]

type holder struct{ r Recorder }

func init() { active.Store(&holder{r: nop{}}) }

// Enable installs a live recorder, preserving state across repeated calls.
// It returns the active recorder for callers that want a handle.
func Enable() Recorder {
	h := active.Load()
	if _, ok := h.r.(*live); ok {
		return h.r
	}
	r := &live{}
	active.Store(&holder{r: r})
	return r
}

// Disable reinstalls the no-op recorder, dropping any recorded state.
func Disable() { active.Store(&holder{r: nop{}}) }

// Inc adds 1 to the named counter.
func Inc(name string) { active.Load().r.Add(name, 1) }

// Add adds delta to the named counter.
func Add(name string, delta int64) { active.Load().r.Add(name, delta) }

// SetGauge stores v in the named gauge.
func SetGauge(name string, v int64) { active.Load().r.SetGauge(name, v) }

// AddGauge adds delta to the named gauge.
func AddGauge(name string, delta int64) { active.Load().r.AddGauge(name, delta) }

// MaxGauge raises the named gauge to v if v exceeds its current value.
func MaxGauge(name string, v int64) { active.Load().r.MaxGauge(name, v) }

// Observe records one duration sample in the named timing histogram.
func Observe(name string, d time.Duration) { active.Load().r.Observe(name, d) }

// Span starts a scoped timer for a named stage; invoke the returned func to
// record the elapsed wall time and bump the stage's invocation count:
//
//	defer obs.Span("train/sweep")()
//
// When recording is disabled the returned closure is shared and free.
func Span(name string) func() { return active.Load().r.Span(name) }

// TakeSnapshot aggregates the current state of the active recorder.
func TakeSnapshot() *Snapshot { return active.Load().r.Snapshot() }

// Reset clears all state recorded so far (live recorder only).
func Reset() { active.Load().r.Reset() }
