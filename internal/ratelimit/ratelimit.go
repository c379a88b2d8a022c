// Package ratelimit is a per-client token-bucket rate limiter for the
// serving tier. Where internal/qos protects the server's capacity across
// request *classes*, this package protects it across *clients*: one greedy
// caller cannot monopolize the admission slots that QoS would otherwise share
// fairly among everyone in its class.
//
// Each client ID owns an independent bucket of Burst tokens refilled
// continuously at Rate tokens per second. A request costs one token; a
// client with an empty bucket is refused, and the refusal carries the exact
// time until the bucket next holds a full token — the serving layer turns
// that into an honest Retry-After header instead of a generic "try later".
//
// The bucket table is bounded: at most MaxClients buckets are resident, and
// the least-recently-seen client is evicted to make room. An evicted client
// that returns starts with a full bucket again — the limiter trades perfect
// memory for bounded memory, which is the right trade for a shedding tier
// (an attacker cycling IDs is better handled by qos capacity limits anyway).
package ratelimit

import (
	"container/list"
	"math"
	"sync"
	"time"
)

// Config sizes a Limiter.
type Config struct {
	// Rate is each client's sustained request budget in requests/second.
	// Rate <= 0 disables the limiter: every Allow succeeds.
	Rate float64
	// Burst is the bucket depth — how many requests a client may issue
	// back-to-back after an idle period. Default: ceil(Rate), at least 1.
	Burst int
	// MaxClients bounds the resident bucket table (default 4096); the
	// least-recently-seen client is evicted when it overflows.
	MaxClients int
}

func (c Config) withDefaults() Config {
	if c.Burst <= 0 {
		c.Burst = int(math.Ceil(c.Rate))
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	return c
}

// bucket is one client's token state. Tokens are fractional: refill is
// continuous, not stepped, so Retry-After math is exact.
type bucket struct {
	id     string
	tokens float64
	last   time.Time
	elem   *list.Element
}

// Limiter applies a Config across client IDs. Create with New; safe for
// concurrent use.
type Limiter struct {
	cfg Config
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	lru     *list.List // front = most recently seen
}

// New builds a limiter from cfg (see Config for defaults and the Rate <= 0
// disabled state).
func New(cfg Config) *Limiter {
	return &Limiter{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		buckets: make(map[string]*bucket),
		lru:     list.New(),
	}
}

// SetClock replaces the limiter's time source. Tests use this to make refill
// and Retry-After math exact; production code never calls it.
func (l *Limiter) SetClock(now func() time.Time) { l.now = now }

// Enabled reports whether the limiter enforces anything.
func (l *Limiter) Enabled() bool { return l.cfg.Rate > 0 }

// Allow spends one token from id's bucket. When the bucket is empty it
// returns ok=false and the exact duration until a full token will have
// refilled — the honest Retry-After for this client.
func (l *Limiter) Allow(id string) (ok bool, retryAfter time.Duration) {
	return l.AllowN(id, 1)
}

// AllowN spends n tokens from id's bucket in one all-or-nothing decision —
// the batch endpoints' charge, one token per item, so a 64-item batch draws
// the same budget as 64 single requests instead of slipping past the limiter
// as one. A refusal carries the exact duration until n tokens will have
// refilled; when n exceeds the bucket's burst depth, that wait is computed
// against the depth the bucket can actually reach, so the Retry-After stays
// meaningful (the caller is expected to split the batch or be shed again).
func (l *Limiter) AllowN(id string, n int) (ok bool, retryAfter time.Duration) {
	if !l.Enabled() || n <= 0 {
		return true, 0
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[id]
	if b == nil {
		b = &bucket{id: id, tokens: float64(l.cfg.Burst), last: now}
		l.buckets[id] = b
		b.elem = l.lru.PushFront(b)
		if len(l.buckets) > l.cfg.MaxClients {
			oldest := l.lru.Back().Value.(*bucket)
			l.lru.Remove(oldest.elem)
			delete(l.buckets, oldest.id)
		}
	} else {
		l.lru.MoveToFront(b.elem)
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(float64(l.cfg.Burst), b.tokens+dt*l.cfg.Rate)
		}
		b.last = now
	}
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	// The bucket refills no deeper than Burst, so a demand beyond it waits
	// for a full bucket — the closest the client can ever get.
	target := math.Min(need, float64(l.cfg.Burst))
	deficit := target - b.tokens
	return false, time.Duration(deficit / l.cfg.Rate * float64(time.Second))
}

// RetryAfterSeconds renders a refill wait as an HTTP Retry-After value:
// whole seconds, rounded up, at least 1 (a zero Retry-After would invite an
// immediate retry against a bucket that is still empty).
func RetryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
