// Package qos is the serving tier's admission policy: a fixed pool of
// request slots split into weighted priority classes, each with a guaranteed
// share, plus work-conserving borrowing of whatever the guarantees do not
// currently need.
//
// The problem it solves is starvation across request costs. fxrzd's estimate
// endpoint is a feature lookup (microseconds–milliseconds); pack runs a full
// compressor over the field (milliseconds–seconds). Behind a single flat
// semaphore, a burst of packs occupies every slot for their full duration and
// the cheap, high-volume estimates — the paper's actual production path — are
// shed even though serving them would cost almost nothing. A priority class
// with a guaranteed slot share makes that impossible: some capacity is always
// answerable for each class, no matter what the others are doing.
//
// The policy is admit-or-shed, never queue (matching the serving layer's
// latency-honesty rule), and is enforced with one invariant:
//
//	free slots >= sum over classes of (unused guarantee)
//
// where a class's unused guarantee is max(0, reserve - inflight). A request
// is admitted only if the invariant still holds afterwards. Two properties
// follow directly:
//
//   - Guarantee: a class below its reserve is ALWAYS admitted — the invariant
//     says enough free slots exist to cover its unused reserve, and admitting
//     it decrements both sides equally.
//   - Work conservation: slots beyond the guarantees are first-come
//     first-served across all classes, so any single class may grow to
//     capacity minus the other classes' *unused* reserves — as guaranteed
//     traffic arrives and retires, borrowed headroom adapts instead of being
//     a fixed partition.
//
// Reserves are sized from the class weights over half the capacity (the
// other half is permanently borrowable), so guarantees can never consume the
// whole pool; at capacity 1 there are no reserves and the controller
// degenerates to the flat semaphore it replaced.
package qos

import (
	"fmt"
	"sync"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// Class declares one priority class. Order matters: earlier classes are
// higher priority, which breaks ties when distributing reserve slots.
type Class struct {
	// Name labels the class in obs metrics and health output.
	Name string
	// Weight is the class's relative share of the reserved half of the
	// capacity. Must be >= 1.
	Weight int
}

// Controller is the class-aware admission gate. Create with NewController;
// the zero value is not usable.
//
// All methods are safe for concurrent use. Admission runs under one mutex —
// at serving request rates (each admitted request then does microseconds to
// seconds of work) the lock is never contended enough to matter, and it
// keeps the invariant arithmetic exact, which the guarantee proof needs.
type Controller struct {
	capacity int
	classes  []Class
	reserve  []int

	mu       sync.Mutex
	inflight []int
	total    int
}

// NewController builds a controller with the given total slot capacity
// (values < 1 are treated as 1) over the classes in priority order. It
// panics on an empty class list, a duplicate name, or a weight < 1 — all
// programmer errors, not runtime conditions.
func NewController(capacity int, classes []Class) *Controller {
	if len(classes) == 0 {
		panic("qos: NewController with no classes")
	}
	seen := make(map[string]bool, len(classes))
	for _, cl := range classes {
		if cl.Name == "" || seen[cl.Name] {
			panic(fmt.Sprintf("qos: empty or duplicate class name %q", cl.Name))
		}
		seen[cl.Name] = true
		if cl.Weight < 1 {
			panic(fmt.Sprintf("qos: class %q has weight %d (must be >= 1)", cl.Name, cl.Weight))
		}
	}
	if capacity < 1 {
		capacity = 1
	}
	c := &Controller{
		capacity: capacity,
		classes:  append([]Class(nil), classes...),
		reserve:  distributeReserves(capacity/2, classes),
		inflight: make([]int, len(classes)),
	}
	obs.SetGauge("qos/capacity", int64(capacity))
	for i, cl := range c.classes {
		obs.SetGauge("qos/reserve/"+cl.Name, int64(c.reserve[i]))
	}
	return c
}

// distributeReserves splits budget slots among the classes proportionally to
// weight by largest remainder; ties (and the order quotas are topped up in)
// follow class priority. The budget is half the capacity, so the sum of all
// reserves never exceeds capacity/2 and borrowing always has headroom.
func distributeReserves(budget int, classes []Class) []int {
	reserves := make([]int, len(classes))
	if budget <= 0 {
		return reserves
	}
	sumW := 0
	for _, cl := range classes {
		sumW += cl.Weight
	}
	assigned := 0
	// remainders are budget*weight mod sumW, scaled integers so ordering is
	// exact (no float ties).
	rem := make([]int, len(classes))
	for i, cl := range classes {
		reserves[i] = budget * cl.Weight / sumW
		rem[i] = budget*cl.Weight - reserves[i]*sumW
		assigned += reserves[i]
	}
	for assigned < budget {
		best := -1
		for i := range classes {
			if rem[i] >= 0 && (best < 0 || rem[i] > rem[best]) {
				best = i
			}
		}
		if best < 0 { // unreachable: floors drop < 1 slot per class
			break
		}
		reserves[best]++
		rem[best] = -1 // each class tops up at most once per full pass
		assigned++
	}
	return reserves
}

// TryAcquire claims a slot for class i without blocking, reporting whether
// admission succeeded. A class below its reserve always succeeds; beyond it,
// admission succeeds only while the remaining free slots still cover every
// other class's unused guarantee (a borrowed slot must never be one a
// guarantee will need). A false return means shed — the caller should answer
// 429 and must not Release.
func (c *Controller) TryAcquire(i int) bool { return c.TryAcquireN(i, 1) }

// TryAcquireN claims n slots for class i in one admission decision — the
// batch endpoints' cost-based ticket, where n is the weighted item count of
// the batch. The invariant check is the n-slot generalisation of TryAcquire:
// admit only if, after taking all n slots, the free slots still cover every
// class's unused guarantee (class i's own included, recomputed at its new
// in-flight count). For n = 1 this reduces exactly to the single-slot rule:
// a class below its reserve is always admitted, and borrowing never takes a
// slot a guarantee will need. All n slots are admitted or none are — a batch
// never holds a partial ticket. Slots of the n beyond the class's reserve
// count as borrowed in the obs metrics.
func (c *Controller) TryAcquireN(i, n int) bool {
	if n < 1 {
		panic(fmt.Sprintf("qos: TryAcquireN with n = %d for class %s", n, c.classes[i].Name))
	}
	name := c.classes[i].Name
	c.mu.Lock()
	free := c.capacity - c.total
	if free < n {
		c.mu.Unlock()
		obs.Inc("qos/shed/" + name)
		return false
	}
	needed := 0
	for j := range c.classes {
		after := c.inflight[j]
		if j == i {
			after += n
		}
		if after < c.reserve[j] {
			needed += c.reserve[j] - after
		}
	}
	if free-n < needed {
		c.mu.Unlock()
		obs.Inc("qos/shed/" + name)
		return false
	}
	borrowed := borrowedOf(c.inflight[i], c.reserve[i], n)
	c.inflight[i] += n
	c.total += n
	peak := int64(c.inflight[i])
	c.mu.Unlock()
	obs.Inc("qos/admitted/" + name)
	if borrowed > 0 {
		obs.Add("qos/borrowed/"+name, int64(borrowed))
	}
	obs.AddGauge("qos/inflight/"+name, int64(n))
	obs.MaxGauge("qos/inflight_peak/"+name, peak)
	return true
}

// borrowedOf counts how many of n newly admitted slots land beyond the
// class's reserve at in-flight count inflight.
func borrowedOf(inflight, reserve, n int) int {
	b := inflight + n - reserve
	if b > n {
		b = n
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Release returns a slot previously acquired for class i. Releasing a class
// with nothing in flight panics, as that always indicates an accounting bug.
func (c *Controller) Release(i int) { c.ReleaseN(i, 1) }

// ReleaseN returns the n slots of a batch ticket previously granted by
// TryAcquireN. Releasing more than the class has in flight panics.
func (c *Controller) ReleaseN(i, n int) {
	c.mu.Lock()
	if n < 1 || c.inflight[i] < n {
		c.mu.Unlock()
		panic(fmt.Sprintf("qos: ReleaseN(%d) without matching slots for class %s", n, c.classes[i].Name))
	}
	c.inflight[i] -= n
	c.total -= n
	c.mu.Unlock()
	obs.AddGauge("qos/inflight/"+c.classes[i].Name, int64(-n))
}

// MaxCost returns the largest n TryAcquireN(i, n) could ever grant: the
// capacity minus every other class's full reserve. A batch ticket above this
// cost would violate the guarantee invariant even on an idle controller, so
// callers clamp their cost here — the batch then only runs when the server
// is quiet enough, instead of being permanently inadmissible.
func (c *Controller) MaxCost(i int) int {
	others := 0
	for j := range c.classes {
		if j != i {
			others += c.reserve[j]
		}
	}
	m := c.capacity - others
	if m < 1 {
		m = 1
	}
	return m
}

// Capacity returns the total slot count.
func (c *Controller) Capacity() int { return c.capacity }

// Total returns the currently admitted count across all classes.
func (c *Controller) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// ClassStatus is one class's admission state, as reported by Status.
type ClassStatus struct {
	Name     string `json:"name"`
	Weight   int    `json:"weight"`
	Reserve  int    `json:"reserve"`
	InFlight int    `json:"in_flight"`
}

// Status returns a consistent snapshot of every class's admission state, in
// priority order.
func (c *Controller) Status() []ClassStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ClassStatus, len(c.classes))
	for i, cl := range c.classes {
		out[i] = ClassStatus{Name: cl.Name, Weight: cl.Weight, Reserve: c.reserve[i], InFlight: c.inflight[i]}
	}
	return out
}
