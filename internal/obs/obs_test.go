package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// withLive runs fn against a fresh live recorder and restores the disabled
// default afterwards, so tests cannot leak state into each other.
func withLive(t *testing.T, fn func()) {
	t.Helper()
	Disable()
	Enable()
	t.Cleanup(Disable)
	fn()
}

func TestDisabledRecorderIsInert(t *testing.T) {
	Disable()
	Inc("c")
	Add("c", 5)
	SetGauge("g", 3)
	AddGauge("g", 2)
	Observe("h", time.Millisecond)
	stop := Span("h")
	stop()
	s := TakeSnapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Spans) != 0 {
		t.Fatalf("disabled snapshot not empty: %+v", s)
	}
	Reset() // no-op, must not panic
	if _, ok := active.Load().r.(nop); !ok {
		t.Fatalf("active recorder = %T, want nop", active.Load().r)
	}
}

func TestCountersAndGauges(t *testing.T) {
	withLive(t, func() {
		if _, ok := active.Load().r.(*live); !ok {
			t.Fatalf("active recorder = %T after Enable, want *live", active.Load().r)
		}
		Inc("runs")
		Add("runs", 4)
		SetGauge("workers", 8)
		AddGauge("workers", -3)
		AddGauge("inflight", 2)
		s := TakeSnapshot()
		if s.Counters["runs"] != 5 {
			t.Errorf("runs = %d, want 5", s.Counters["runs"])
		}
		if s.Gauges["workers"] != 5 {
			t.Errorf("workers = %d, want 5", s.Gauges["workers"])
		}
		if s.Gauges["inflight"] != 2 {
			t.Errorf("inflight = %d, want 2", s.Gauges["inflight"])
		}
	})
}

func TestEnableIsIdempotent(t *testing.T) {
	withLive(t, func() {
		Inc("kept")
		r := Enable() // second Enable must keep state
		if r != active.Load().r {
			t.Error("Enable did not return the active recorder")
		}
		if got := TakeSnapshot().Counters["kept"]; got != 1 {
			t.Errorf("counter lost across Enable: %d", got)
		}
	})
}

func TestSpanRecordsElapsedTime(t *testing.T) {
	withLive(t, func() {
		stop := Span("stage/a")
		time.Sleep(2 * time.Millisecond)
		stop()
		Span("stage/a")() // a second, near-zero invocation
		s := TakeSnapshot()
		st, ok := s.Spans["stage/a"]
		if !ok {
			t.Fatal("span stage/a missing from snapshot")
		}
		if st.Count != 2 {
			t.Errorf("count = %d, want 2", st.Count)
		}
		if st.TotalMS < 2 {
			t.Errorf("total = %vms, want >= 2ms", st.TotalMS)
		}
		if st.MaxMS < st.MinMS {
			t.Errorf("max %v < min %v", st.MaxMS, st.MinMS)
		}
	})
}

func TestObserveAndReset(t *testing.T) {
	withLive(t, func() {
		Observe("h", 10*time.Millisecond)
		Observe("h", 20*time.Millisecond)
		s := TakeSnapshot()
		if s.Spans["h"].Count != 2 {
			t.Fatalf("count = %d, want 2", s.Spans["h"].Count)
		}
		Reset()
		s = TakeSnapshot()
		if len(s.Spans)+len(s.Counters)+len(s.Gauges) != 0 {
			t.Fatalf("state survived Reset: %+v", s)
		}
	})
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	if h.Stats().Count != 0 {
		t.Error("empty histogram stats non-zero")
	}
	// 100 samples: 1ms ... 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if st := h.Stats(); st.Count != 100 || st.MeanMS != 50.5 {
		t.Fatalf("count = %d, mean = %vms, want 100, 50.5ms", st.Count, st.MeanMS)
	}
	// Power-of-two buckets are accurate to within ~√2; check the ballpark.
	p50 := h.Quantile(0.50)
	if p50 < 20*time.Millisecond || p50 > 100*time.Millisecond {
		t.Errorf("p50 = %v, want within [20ms, 100ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	// Clamped quantile arguments.
	if h.Quantile(-1) == 0 {
		// q<0 clamps to the smallest sample's bucket, which is non-zero here
		t.Error("q=-1 returned 0 for non-empty histogram")
	}
	if h.Quantile(2) > 100*time.Millisecond {
		t.Errorf("q=2 exceeds max: %v", h.Quantile(2))
	}
	st := h.Stats()
	if st.MinMS != 1 || st.MaxMS != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", st.MinMS, st.MaxMS)
	}
	if st.MeanMS < 50 || st.MeanMS > 51 {
		t.Errorf("mean = %v, want 50.5", st.MeanMS)
	}
}

func TestHistogramNegativeAndZeroDurations(t *testing.T) {
	h := newHistogram()
	h.Observe(-time.Second) // clock skew safety: clamps to 0
	h.Observe(0)
	if st := h.Stats(); st.Count != 2 || st.MeanMS != 0 {
		t.Fatalf("count=%d mean=%vms, want 2, 0", st.Count, st.MeanMS)
	}
	if q := h.Quantile(1); q != 0 {
		t.Errorf("quantile = %v, want 0", q)
	}
}

func TestBucketMid(t *testing.T) {
	if bucketMid(0, 0, 0) != 0 {
		t.Error("bucket 0 mid != 0")
	}
	// Midpoint clamps into the observed range.
	if got := bucketMid(20, 5, 10); got != 10 {
		t.Errorf("clamped mid = %v, want 10", got)
	}
	if got := bucketMid(1, 100, 200); got != 100 {
		t.Errorf("clamped mid = %v, want 100", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	withLive(t, func() {
		Inc("a")
		SetGauge("b", 7)
		Observe("c", time.Millisecond)
		var buf bytes.Buffer
		if err := TakeSnapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var got Snapshot
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Counters["a"] != 1 || got.Gauges["b"] != 7 || got.Spans["c"].Count != 1 {
			t.Errorf("round trip lost data: %+v", got)
		}
	})
}

func TestWriteJSONFile(t *testing.T) {
	withLive(t, func() {
		Inc("x")
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := TakeSnapshot().WriteJSONFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got Snapshot
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Counters["x"] != 1 {
			t.Errorf("file snapshot = %+v", got)
		}
		// Unwritable path surfaces the error.
		if err := TakeSnapshot().WriteJSONFile(filepath.Join(path, "nope")); err == nil {
			t.Error("expected error for unwritable path")
		}
	})
}

func TestTimingTable(t *testing.T) {
	if (&Snapshot{}).TimingTable() != "" {
		t.Error("empty snapshot produced a table")
	}
	withLive(t, func() {
		Observe("fast", time.Millisecond)
		Observe("slow", 50*time.Millisecond)
		Observe("slow", 50*time.Millisecond)
		table := TakeSnapshot().TimingTable()
		if !strings.Contains(table, "slow") || !strings.Contains(table, "fast") {
			t.Fatalf("table missing stages:\n%s", table)
		}
		// Sorted by total wall time: slow (100ms) before fast (1ms).
		if strings.Index(table, "slow") > strings.Index(table, "fast") {
			t.Errorf("table not sorted by total time:\n%s", table)
		}
		if !strings.Contains(table, "stage") {
			t.Errorf("table missing header:\n%s", table)
		}
	})
}

func TestPublishExpvar(t *testing.T) {
	withLive(t, func() {
		Inc("published")
		Publish()
		Publish() // idempotent
		v := expvar.Get("fxrz_obs")
		if v == nil {
			t.Fatal("fxrz_obs not registered")
		}
		var got Snapshot
		if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
			t.Fatal(err)
		}
		if got.Counters["published"] != 1 {
			t.Errorf("expvar snapshot = %+v", got)
		}
	})
}

func TestConcurrentRecording(t *testing.T) {
	withLive(t, func() {
		const goroutines = 8
		const perG = 500
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					Inc("conc/counter")
					AddGauge("conc/gauge", 1)
					Observe("conc/hist", time.Duration(i)*time.Microsecond)
				}
			}()
		}
		wg.Wait()
		s := TakeSnapshot()
		if s.Counters["conc/counter"] != goroutines*perG {
			t.Errorf("counter = %d, want %d", s.Counters["conc/counter"], goroutines*perG)
		}
		if s.Gauges["conc/gauge"] != goroutines*perG {
			t.Errorf("gauge = %d, want %d", s.Gauges["conc/gauge"], goroutines*perG)
		}
		if s.Spans["conc/hist"].Count != goroutines*perG {
			t.Errorf("hist count = %d, want %d", s.Spans["conc/hist"].Count, goroutines*perG)
		}
	})
}

func TestQuantileMonotonic(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(math.Pow(1.01, float64(i))) * time.Microsecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile %v = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}
