package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The op types a caller waits for. A region op is an unpack restricted to an
// eighth of the volume; it is timed apart because its cost scales with the
// region, not the field.
type opKind int

const (
	opEstimate opKind = iota
	opPack
	opUnpack
	opRegion
	numOps
)

var opNames = [numOps]string{"estimate", "pack", "unpack", "region"}

// pass is one caller's complete pass over its fixed op list: a lib workload's
// round, or one serve client going once through its request list. Passes of a
// run do identical work, so they are the run's repeated measurements.
type pass struct {
	caller int
	calls  [numOps][]float64 // ms, one per verified op
	wall   time.Duration
}

// ops is how many verified ops the pass completed.
func (p *pass) ops() int {
	n := 0
	for k := range p.calls {
		n += len(p.calls[k])
	}
	return n
}

// outcome is what one measured phase produced: the complete passes with
// their latency samples, the attempted/failed tally, and which pack tuples
// ran.
type outcome struct {
	passes    []*pass
	mean      bool // a pass's central time is its mean, not its median (lib workloads)
	attempted int
	failed    int
	errs      []string // the first few failures, for the operator
	wall      time.Duration
	packed    map[string]bool // pack tuples executed at least once
}

func newOutcome() *outcome { return &outcome{packed: map[string]bool{}} }

// maxReportedErrs bounds the failure messages kept; the count is exact.
const maxReportedErrs = 5

// record counts one attempted op into the pass in progress. An op that
// returned an error or whose output failed verification is a failed op and
// contributes no latency sample: a wrong answer delivered quickly is not a
// fast answer.
func (o *outcome) record(p *pass, k opKind, d time.Duration, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < maxReportedErrs {
			o.errs = append(o.errs, fmt.Sprintf("%s: %v", opNames[k], err))
		}
		return
	}
	p.calls[k] = append(p.calls[k], ms(d))
}

// merge folds a client's outcome into o.
func (o *outcome) merge(c *outcome) {
	o.passes = append(o.passes, c.passes...)
	o.attempted += c.attempted
	o.failed += c.failed
	for _, e := range c.errs {
		if len(o.errs) < maxReportedErrs {
			o.errs = append(o.errs, e)
		}
	}
	for k := range c.packed {
		o.packed[k] = true
	}
}

// The recording box is a shared two-vCPU VM whose neighbours slow it by up to
// a third in bursts of a fraction of a second to minutes: the median over a
// run's passes moved 20% between identical runs, their minimum 2%. The
// interference only ever adds time, so every timing metric is taken from the
// fastest passes of the run — the classic best-of-N — and a change to the
// program moves the fastest pass as much as any other.

// central is one pass's typical time for an op type: the median over its
// calls, or on a lib workload the mean, because a round's eight calls fall
// in two modes (an sz call costs three zfp calls) and their median would sit
// on the edge between them.
func (o *outcome) central(p *pass, k opKind) float64 {
	if o.mean {
		return mean(p.calls[k])
	}
	return median(p.calls[k])
}

// lowest is the smallest value of stat over the passes that have samples of
// k; ok is false when there is none.
func (o *outcome) lowest(k opKind, stat func(*pass) float64) (v float64, ok bool) {
	for _, p := range o.passes {
		if len(p.calls[k]) == 0 {
			continue
		}
		if x := stat(p); !ok || x < v {
			v, ok = x, true
		}
	}
	return v, ok
}

// p50 is the op type's central time in the pass where it is lowest.
func (o *outcome) p50(k opKind) float64 {
	v, _ := o.lowest(k, func(p *pass) float64 { return o.central(p, k) })
	return v
}

// p90 is the op type's 90th percentile within a pass, in the pass where it
// is lowest.
func (o *outcome) p90(k opKind) float64 {
	v, _ := o.lowest(k, func(p *pass) float64 {
		x, _ := percentile(p.calls[k], 0.90)
		return x
	})
	return v
}

// all pools every sample of an op type, for the tails the traced run reports.
func (o *outcome) all(k opKind) []float64 {
	var xs []float64
	for _, p := range o.passes {
		xs = append(xs, p.calls[k]...)
	}
	return xs
}

// opsPerSecond adds up, over the callers, each caller's fastest pass rate.
func (o *outcome) opsPerSecond() float64 {
	best := map[int]float64{}
	for _, p := range o.passes {
		if p.wall > 0 {
			best[p.caller] = max(best[p.caller], float64(p.ops())/p.wall.Seconds())
		}
	}
	var sum float64
	for _, r := range best {
		sum += r
	}
	return sum
}

// meanRate is completed ops over the wall time of the whole phase.
func (o *outcome) meanRate() float64 {
	if o.wall <= 0 {
		return 0
	}
	return float64(o.attempted-o.failed) / o.wall.Seconds()
}

// span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark-side spans in memory. A nil *tracer is tracing
// switched off: begin and end then cost one nil check, which is what the
// end-to-end runs pay.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allots the identifier the spans of one request share.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfNS is a span's duration minus the time its direct children cover.
func (t *tracer) selfNS(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.spans[id-1]
	self := root.End - root.Start
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return self
}

// residentMiB reads the process's current resident set. It is 0 where /proc
// is absent; the sampler then falls back to the Go runtime's own figure.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / (1 << 20)
}

// rssWatch samples the resident set while a phase runs. The kernel's own
// high-water mark (VmHWM) cannot be used: it covers the whole process life,
// and the repeated set-ups before the measured phase are what sets it.
type rssWatch struct {
	quit chan struct{}
	done chan float64
}

// rssEvery is the sampling period: short against a 20 s phase, long against
// the 20 us a sample costs.
const rssEvery = 50 * time.Millisecond

func watchRSS() *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		peak := residentMiB()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentMiB())
			case <-w.quit:
				w.done <- max(peak, residentMiB())
				return
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the largest resident set seen, in MiB.
func (w *rssWatch) stop() float64 {
	close(w.quit)
	return <-w.done
}
