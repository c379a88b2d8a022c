package ratelimit

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for exact refill math.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLimiter(cfg Config) (*Limiter, *fakeClock) {
	l := New(cfg)
	clk := newFakeClock()
	l.SetClock(clk.now)
	return l, clk
}

func TestBurstThenRefill(t *testing.T) {
	l, clk := newTestLimiter(Config{Rate: 2, Burst: 2})
	for k := 0; k < 2; k++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("burst request %d refused", k)
		}
	}
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("third back-to-back request allowed past the burst")
	}
	// Empty bucket at 2 tokens/s: a full token is 500ms away.
	if retry != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms", retry)
	}
	clk.advance(499 * time.Millisecond)
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("allowed 1ms before the refill lands")
	}
	clk.advance(2 * time.Millisecond)
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("refused after the refill landed")
	}
}

// TestRetryAfterIsRefillDerived pins the satellite requirement: the wait is
// computed from the actual bucket state, not a constant.
func TestRetryAfterIsRefillDerived(t *testing.T) {
	l, clk := newTestLimiter(Config{Rate: 0.25, Burst: 1})
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("first request refused")
	}
	if ok, retry := l.Allow("c"); ok || retry != 4*time.Second {
		t.Fatalf("empty bucket at 0.25/s: ok=%v retry=%v, want refused after 4s", ok, retry)
	}
	// Half a token refilled: only half the wait remains.
	clk.advance(2 * time.Second)
	if ok, retry := l.Allow("c"); ok || retry != 2*time.Second {
		t.Fatalf("half-full bucket: ok=%v retry=%v, want refused after 2s", ok, retry)
	}
}

func TestBurstCapAfterLongIdle(t *testing.T) {
	l, clk := newTestLimiter(Config{Rate: 10, Burst: 3})
	for k := 0; k < 3; k++ {
		l.Allow("c")
	}
	clk.advance(time.Hour)
	allowed := 0
	for {
		ok, _ := l.Allow("c")
		if !ok {
			break
		}
		allowed++
	}
	if allowed != 3 {
		t.Fatalf("after a long idle, %d requests allowed, want burst of 3", allowed)
	}
}

func TestClientsAreIndependent(t *testing.T) {
	l, _ := newTestLimiter(Config{Rate: 1, Burst: 1})
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("a refused")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a's second request allowed")
	}
	// A different client is untouched by a's exhausted bucket.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b refused because of a's traffic")
	}
}

func TestEvictionBoundsMemory(t *testing.T) {
	l, _ := newTestLimiter(Config{Rate: 1, Burst: 1})
	l.Allow("a") // a's bucket now empty
	l.Allow("b")
	for i := 0; i < maxClients-2; i++ {
		l.Allow(fmt.Sprintf("fill-%d", i))
	}
	l.Allow("c") // the 4097th client: evicts a (least recently seen)
	if n := len(l.buckets); n != maxClients {
		t.Fatalf("resident clients = %d, want %d", n, maxClients)
	}
	// a returns with a fresh bucket — the documented eviction trade-off.
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("evicted client did not restart with a full bucket")
	}
	// The order is a (front), c, the fillers, b — touching a evicted b. Spend
	// c's remaining state to check LRU order held: c's bucket is empty, so it
	// must still be resident.
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("c's bucket state was lost although b was the LRU entry")
	}
}

func TestDisabledLimiter(t *testing.T) {
	l, _ := newTestLimiter(Config{Rate: 0})
	if l.Enabled() {
		t.Fatal("Rate 0 reported enabled")
	}
	for k := 0; k < 100; k++ {
		if ok, retry := l.Allow("c"); !ok || retry != 0 {
			t.Fatal("disabled limiter refused a request")
		}
	}
	if n := len(l.buckets); n != 0 {
		t.Fatalf("disabled limiter allocated %d buckets", n)
	}
}

func TestBurstDefault(t *testing.T) {
	l, _ := newTestLimiter(Config{Rate: 2.5})
	// Default burst is ceil(2.5) = 3.
	allowed := 0
	for {
		ok, _ := l.Allow("c")
		if !ok {
			break
		}
		allowed++
	}
	if allowed != 3 {
		t.Fatalf("default burst admitted %d, want ceil(rate) = 3", allowed)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Nanosecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{4 * time.Second, 4},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestConcurrentClients exercises the mutex under -race: many goroutines,
// shared and private IDs, no torn state afterwards.
func TestConcurrentClients(t *testing.T) {
	l, clk := newTestLimiter(Config{Rate: 1000, Burst: 5})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				l.Allow(fmt.Sprintf("client-%d", g%4))
				if k%50 == 0 {
					clk.advance(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(l.buckets); n != 4 {
		t.Fatalf("resident clients = %d, want one per distinct client (4)", n)
	}
}

// TestAllowNChargesPerItem pins the batch-endpoint contract: an N-item batch
// draws N tokens, so it cannot slip past the limiter as one cheap request.
func TestAllowNChargesPerItem(t *testing.T) {
	l, clk := newTestLimiter(Config{Rate: 2, Burst: 8})
	if ok, _ := l.AllowN("c", 6); !ok {
		t.Fatal("6-token batch refused against a full 8-deep bucket")
	}
	// 2 tokens left: a 3-item batch must wait, all-or-nothing.
	ok, retry := l.AllowN("c", 3)
	if ok {
		t.Fatal("3-token batch allowed with only 2 tokens left")
	}
	// Deficit is 1 token at 2/s: 500ms.
	if retry != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms", retry)
	}
	// The refusal must not have spent the remaining tokens.
	if ok, _ := l.AllowN("c", 2); !ok {
		t.Fatal("refused batch consumed tokens it was not granted")
	}
	clk.advance(time.Second)
	if ok, _ := l.AllowN("c", 2); !ok {
		t.Fatal("refill did not restore batch budget")
	}
}

// TestAllowNBeyondBurst: a batch deeper than the bucket waits for a full
// bucket — the closest state the client can reach — instead of reporting an
// unreachable wait.
func TestAllowNBeyondBurst(t *testing.T) {
	l, _ := newTestLimiter(Config{Rate: 1, Burst: 4})
	ok, retry := l.AllowN("c", 10)
	if ok {
		t.Fatal("10-token batch allowed against a 4-deep bucket")
	}
	// Bucket is full (4 tokens); target clamps to the 4-deep burst, so the
	// deficit is zero and the wait is zero — the caller should split the
	// batch rather than retry it whole.
	if retry != 0 {
		t.Fatalf("retryAfter = %v, want 0 for an already-full bucket", retry)
	}
	// A split into burst-sized pieces goes through.
	if ok, _ := l.AllowN("c", 4); !ok {
		t.Fatal("burst-sized batch refused against a full bucket")
	}
}

func TestAllowNDegeneratesToAllow(t *testing.T) {
	a, clkA := newTestLimiter(Config{Rate: 3, Burst: 3})
	b, clkB := newTestLimiter(Config{Rate: 3, Burst: 3})
	for step := 0; step < 12; step++ {
		okA, retryA := a.Allow("c")
		okB, retryB := b.AllowN("c", 1)
		if okA != okB || retryA != retryB {
			t.Fatalf("step %d: Allow=(%v,%v) AllowN(1)=(%v,%v)", step, okA, retryA, okB, retryB)
		}
		clkA.advance(100 * time.Millisecond)
		clkB.advance(100 * time.Millisecond)
	}
}

func TestAllowNDisabledAndNonPositive(t *testing.T) {
	l, _ := newTestLimiter(Config{Rate: 1, Burst: 1})
	if ok, _ := l.AllowN("c", 0); !ok {
		t.Error("n=0 refused; a free decision must pass")
	}
	disabled := New(Config{Rate: 0})
	if ok, _ := disabled.AllowN("c", 1000); !ok {
		t.Error("disabled limiter refused a batch")
	}
}
