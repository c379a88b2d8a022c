package qos

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// serveClasses mirrors the serving tier's class roster: estimate gets twice
// the reserved weight of unpack and pack.
var serveClasses = []Class{
	{Name: "estimate", Weight: 2},
	{Name: "unpack", Weight: 1},
	{Name: "pack", Weight: 1},
}

func TestReserveDistribution(t *testing.T) {
	cases := []struct {
		capacity int
		classes  []Class
		want     []int
	}{
		// Half of 8 is 4, split 2:1:1.
		{8, serveClasses, []int{2, 1, 1}},
		// Half of 16 is 8, split 4:2:2.
		{16, serveClasses, []int{4, 2, 2}},
		// Half of 4 is 2: estimate's exact share is 1; the leftover slot goes
		// to the highest-priority class among the tied remainders (unpack).
		{4, serveClasses, []int{1, 1, 0}},
		// Half of 2 is 1: the single reserved slot goes to estimate.
		{2, serveClasses, []int{1, 0, 0}},
		// Capacity 1 reserves nothing: the controller degenerates to a flat
		// semaphore.
		{1, serveClasses, []int{0, 0, 0}},
		// Equal weights, odd budget: the extra slot follows priority order.
		{9, []Class{{"a", 1}, {"b", 1}, {"c", 1}}, []int{2, 1, 1}},
	}
	for _, tc := range cases {
		c := NewController(tc.capacity, tc.classes)
		for i, want := range tc.want {
			if got := c.Status()[i].Reserve; got != want {
				t.Errorf("capacity %d: reserve[%d] = %d, want %d", tc.capacity, i, got, want)
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := map[string]func(){
		"no classes":     func() { NewController(4, nil) },
		"empty name":     func() { NewController(4, []Class{{Name: "", Weight: 1}}) },
		"duplicate name": func() { NewController(4, []Class{{"a", 1}, {"a", 1}}) },
		"zero weight":    func() { NewController(4, []Class{{"a", 0}}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestGuaranteeUnderFlood is the package-level starvation proof: with the
// lowest-priority class saturating everything it can reach, every
// higher-priority class still gets its full reserve admitted on first try.
func TestGuaranteeUnderFlood(t *testing.T) {
	c := NewController(8, serveClasses) // reserves 2/1/1
	const pack = 2

	// Pack floods: own reserve (1) plus borrowed slots while the free pool
	// still covers estimate's 2 + unpack's 1 unused guarantees = 5 total.
	admitted := 0
	for c.TryAcquire(pack) {
		admitted++
	}
	if admitted != 5 {
		t.Fatalf("pack flood admitted %d slots, want 5 (1 reserve + 4 borrowable)", admitted)
	}

	// Estimates arrive into a saturated server: the full reserve admits.
	for k := 0; k < 2; k++ {
		if !c.TryAcquire(0) {
			t.Fatalf("estimate %d shed despite a guaranteed reserve of 2", k)
		}
	}
	// Beyond the reserve there is nothing left to borrow (unpack's guarantee
	// still needs the last free slot).
	if c.TryAcquire(0) {
		t.Error("estimate admitted past its reserve into unpack's guarantee")
	}
	if !c.TryAcquire(1) {
		t.Error("unpack shed despite its guaranteed reserve")
	}
	if c.Total() != 8 {
		t.Fatalf("total = %d, want 8", c.Total())
	}
	// Everything is full now; every class sheds.
	for i := range serveClasses {
		if c.TryAcquire(i) {
			t.Errorf("class %d admitted past capacity", i)
		}
	}

	// A retiring pack frees a borrowed slot; pack can re-take it only after
	// the guarantees are no longer waiting on it.
	c.Release(pack)
	if !c.TryAcquire(pack) {
		t.Error("pack shed although all guarantees are fully admitted")
	}
}

// TestWorkConservingBorrow: a lone class may grow to capacity minus the
// others' unused reserves, and regains headroom as guaranteed traffic runs.
func TestWorkConservingBorrow(t *testing.T) {
	c := NewController(8, serveClasses) // reserves 2/1/1

	// Estimate alone: 8 - (1+1) = 6 slots reachable.
	n := 0
	for c.TryAcquire(0) {
		n++
	}
	if n != 6 {
		t.Fatalf("estimate alone reached %d slots, want 6", n)
	}
	for k := 0; k < 6; k++ {
		c.Release(0)
	}

	// With unpack and pack each running at their reserve, their guarantees
	// are satisfied and estimate may take everything that remains.
	if !c.TryAcquire(1) || !c.TryAcquire(2) {
		t.Fatal("reserved admissions failed on an idle controller")
	}
	n = 0
	for c.TryAcquire(0) {
		n++
	}
	if n != 6 {
		t.Fatalf("estimate reached %d slots alongside satisfied guarantees, want 6", n)
	}
}

// TestCapacityOneIsFlatSemaphore: with no reserves, the first class in wins
// and everyone else sheds — exactly the pre-QoS behavior.
func TestCapacityOneIsFlatSemaphore(t *testing.T) {
	c := NewController(1, serveClasses)
	if !c.TryAcquire(2) {
		t.Fatal("first acquire shed on an empty controller")
	}
	for i := range serveClasses {
		if c.TryAcquire(i) {
			t.Errorf("class %d admitted past capacity 1", i)
		}
	}
	c.Release(2)
	if !c.TryAcquire(0) {
		t.Error("freed slot not admissible")
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on Release without acquire")
		}
	}()
	NewController(4, serveClasses).Release(0)
}

// TestInvariantProperty drives a long random acquire/release sequence and
// checks, after every step, the load-bearing invariant (free slots cover all
// unused guarantees) plus its consequence: an acquire for a class below its
// reserve never fails.
func TestInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewController(8, serveClasses)
	held := make([]int, len(serveClasses))
	for step := 0; step < 5000; step++ {
		i := rng.Intn(len(serveClasses))
		if rng.Intn(2) == 0 && held[i] > 0 {
			c.Release(i)
			held[i]--
		} else {
			under := c.Status()[i].InFlight < c.Status()[i].Reserve
			if c.TryAcquire(i) {
				held[i]++
			} else if under {
				t.Fatalf("step %d: class %d shed below its reserve", step, i)
			}
		}
		free := c.Capacity() - c.Total()
		needed := 0
		for j := range serveClasses {
			if d := c.Status()[j].Reserve - c.Status()[j].InFlight; d > 0 {
				needed += d
			}
		}
		if free < needed {
			t.Fatalf("step %d: invariant broken: %d free < %d unused guarantees", step, free, needed)
		}
	}
}

// TestConcurrentAccounting hammers the controller from many goroutines (the
// -race CI pass runs this) and checks the books balance afterwards.
func TestConcurrentAccounting(t *testing.T) {
	c := NewController(6, serveClasses)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 400; k++ {
				i := rng.Intn(len(serveClasses))
				if c.TryAcquire(i) {
					if c.Status()[i].InFlight < 1 || c.Total() > c.Capacity() {
						t.Errorf("inconsistent counts under concurrency")
					}
					c.Release(i)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Total() != 0 {
		t.Fatalf("total = %d after all releases, want 0", c.Total())
	}
	for i := range serveClasses {
		if c.Status()[i].InFlight != 0 {
			t.Errorf("class %d inflight = %d after all releases", i, c.Status()[i].InFlight)
		}
	}
}

// TestObsCounters: the guarantee must be *observable* — admissions, sheds and
// borrows show up per class in the obs snapshot.
func TestObsCounters(t *testing.T) {
	obs.Enable()
	before := obs.TakeSnapshot()
	c := NewController(2, serveClasses) // reserve 1/0/0
	if !c.TryAcquire(2) {               // pack borrows the unreserved slot
		t.Fatal("pack shed on empty controller")
	}
	if c.TryAcquire(2) { // estimate's reserve is not borrowable
		t.Fatal("pack admitted into estimate's guarantee")
	}
	if !c.TryAcquire(0) {
		t.Fatal("estimate shed below its reserve")
	}
	c.Release(0)
	c.Release(2)
	after := obs.TakeSnapshot()
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if delta("qos/admitted/pack") != 1 || delta("qos/borrowed/pack") != 1 || delta("qos/shed/pack") != 1 {
		t.Errorf("pack counters = admitted %d borrowed %d shed %d, want 1/1/1",
			delta("qos/admitted/pack"), delta("qos/borrowed/pack"), delta("qos/shed/pack"))
	}
	if delta("qos/admitted/estimate") != 1 || delta("qos/shed/estimate") != 0 {
		t.Errorf("estimate counters = admitted %d shed %d, want 1/0",
			delta("qos/admitted/estimate"), delta("qos/shed/estimate"))
	}
	if after.Gauges["qos/reserve/estimate"] != 1 || after.Gauges["qos/capacity"] != 2 {
		t.Errorf("reserve/capacity gauges = %d/%d, want 1/2",
			after.Gauges["qos/reserve/estimate"], after.Gauges["qos/capacity"])
	}
}

func TestStatus(t *testing.T) {
	c := NewController(8, serveClasses)
	c.TryAcquire(1)
	st := c.Status()
	if len(st) != 3 || st[0].Name != "estimate" || st[0].Reserve != 2 || st[0].Weight != 2 {
		t.Fatalf("status[0] = %+v", st)
	}
	if st[1].InFlight != 1 {
		t.Errorf("unpack in-flight = %d, want 1", st[1].InFlight)
	}
	c.Release(1)
}

// TestBatchTicketArithmetic pins the n-slot admission rule on capacity 8
// (reserves 2/1/1): a batch is admitted iff, after taking all n slots, free
// still covers every class's unused guarantee.
func TestBatchTicketArithmetic(t *testing.T) {
	c := NewController(8, serveClasses)
	// Idle: estimate may take up to capacity - other reserves = 8-2 = 6.
	if got := c.MaxCost(0); got != 6 {
		t.Fatalf("MaxCost(estimate) = %d, want 6", got)
	}
	if c.TryAcquireN(0, 7) {
		t.Fatal("7-slot estimate batch admitted; it would eat unpack/pack guarantees")
	}
	if !c.TryAcquireN(0, 6) {
		t.Fatal("6-slot estimate batch shed on an idle controller")
	}
	// 2 free, both owed to unpack and pack: no further estimate slot, but the
	// guaranteed classes still get theirs.
	if c.TryAcquire(0) {
		t.Fatal("estimate admitted into slots owed to other guarantees")
	}
	if !c.TryAcquire(1) || !c.TryAcquire(2) {
		t.Fatal("guaranteed classes shed while the invariant promised them slots")
	}
	c.ReleaseN(0, 6)
	c.Release(1)
	c.Release(2)
	if c.Total() != 0 {
		t.Fatalf("books unbalanced after releases: total = %d", c.Total())
	}
}

// TestBatchTicketAllOrNothing checks a shed batch leaves no partial state.
func TestBatchTicketAllOrNothing(t *testing.T) {
	c := NewController(8, serveClasses)
	if !c.TryAcquireN(1, 3) {
		t.Fatal("3-slot unpack batch shed on an idle controller")
	}
	before := c.Total()
	if c.TryAcquireN(1, 6) {
		t.Fatal("6-slot unpack batch admitted with only 5 free")
	}
	if c.Total() != before || c.Status()[1].InFlight != 3 {
		t.Fatalf("shed batch changed the books: total %d->%d, inflight %d",
			before, c.Total(), c.Status()[1].InFlight)
	}
	c.ReleaseN(1, 3)
}

// TestTryAcquireNMatchesSingles: a class's n-slot ticket is admitted exactly
// when n consecutive single acquires would all be — the batch path must not
// change admission semantics, only atomicity.
func TestTryAcquireNMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := NewController(8, serveClasses)
		b := NewController(8, serveClasses)
		// Put both controllers in the same random occupancy.
		for k := 0; k < rng.Intn(8); k++ {
			i := rng.Intn(len(serveClasses))
			ra, rb := a.TryAcquire(i), b.TryAcquire(i)
			if ra != rb {
				t.Fatalf("trial %d: controllers diverged during setup", trial)
			}
		}
		i, n := rng.Intn(len(serveClasses)), 1+rng.Intn(6)
		singles := true
		taken := 0
		for k := 0; k < n; k++ {
			if !a.TryAcquire(i) {
				singles = false
				break
			}
			taken++
		}
		if got := b.TryAcquireN(i, n); got != singles {
			t.Fatalf("trial %d: TryAcquireN(%d, %d) = %v, %d singles said %v",
				trial, i, n, got, n, singles)
		}
		_ = taken
	}
}

func TestMaxCostFloorsAtOne(t *testing.T) {
	// Capacity 2 gives estimate reserve 1 and the others 0; pack's MaxCost is
	// capacity - 1 = 1. Nothing may ever report a max below one slot.
	c := NewController(2, serveClasses)
	for i := range serveClasses {
		if got := c.MaxCost(i); got < 1 {
			t.Errorf("MaxCost(%d) = %d, want >= 1", i, got)
		}
	}
	if got := c.MaxCost(2); got != 1 {
		t.Errorf("MaxCost(pack) = %d, want 1", got)
	}
}

func TestReleaseNUnderflowPanics(t *testing.T) {
	c := NewController(8, serveClasses)
	if !c.TryAcquireN(0, 2) {
		t.Fatal("setup acquire failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on ReleaseN beyond in-flight count")
		}
	}()
	c.ReleaseN(0, 3)
}

func TestBatchBorrowedAccounting(t *testing.T) {
	obs.Enable()
	before := obs.TakeSnapshot()
	c := NewController(8, serveClasses)
	// unpack reserve is 1: a 3-slot ticket uses its 1 guaranteed slot and
	// borrows 2.
	if !c.TryAcquireN(1, 3) {
		t.Fatal("3-slot unpack batch shed on an idle controller")
	}
	mid := obs.TakeSnapshot()
	if got := mid.Counters["qos/borrowed/unpack"] - before.Counters["qos/borrowed/unpack"]; got != 2 {
		t.Errorf("borrowed counter delta = %d, want 2", got)
	}
	if got := mid.Counters["qos/admitted/unpack"] - before.Counters["qos/admitted/unpack"]; got != 1 {
		t.Errorf("admitted counter delta = %d, want 1 (one ticket, not three)", got)
	}
	if got := mid.Gauges["qos/inflight/unpack"] - before.Gauges["qos/inflight/unpack"]; got != 3 {
		t.Errorf("inflight gauge delta = %d, want 3", got)
	}
	c.ReleaseN(1, 3)
	after := obs.TakeSnapshot()
	if got := after.Gauges["qos/inflight/unpack"] - before.Gauges["qos/inflight/unpack"]; got != 0 {
		t.Errorf("inflight gauge delta after release = %d, want 0", got)
	}
}
