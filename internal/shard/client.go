// The peer HTTP client: one scatter-gather forward is a POST of a re-encoded
// batch request container to the owning peer, with the original client
// identity and the remaining request deadline propagated in headers so the
// peer's rate limiter and QoS admission charge the real client under the
// real time budget. Connect errors and 5xx responses are retried a bounded
// number of times with jittered exponential backoff; everything else — a
// peer's own shed (429), a client-caused 4xx, an undecodable response
// container — is returned to the router for per-item status mapping.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// ClientHeader names the request header that identifies a client to the
// rate limiter (internal/serve aliases it); the router copies it onto
// forwarded sub-batches so every shard charges the same client.
const ClientHeader = "X-Fxrz-Client"

// ForwardedHeader marks a sub-batch forwarded by a shard router. A server
// receiving it executes the batch locally — all instances compute the same
// owners, so re-routing could only loop, never improve.
const ForwardedHeader = "X-Fxrz-Forwarded"

// DeadlineHeader carries the forwarding shard's remaining request budget in
// microseconds; the receiving shard clamps its own per-request timeout to
// it, so a sub-batch never outlives the client request that spawned it.
const DeadlineHeader = "X-Fxrz-Deadline-Us"

// Retry policy: a forward gets 1 + Retries attempts, with jittered
// exponential backoff starting at Backoff between them.
const (
	Retries = 2
	Backoff = 25 * time.Millisecond
)

// PeerError is a failed sub-batch forward: every item of the sub-batch gets
// Status, and Err says why (the merged response stays 200 — a dead peer
// fails its own items, not its neighbours').
type PeerError struct {
	Peer   string
	Status int
	Err    error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("shard peer %s: %v", e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// errCorrupt tags an undecodable peer response container: never retried
// (the bytes already arrived; asking again cannot fix a framing bug) and
// never silently merged — the sub-batch's items all fail with 400.
var errCorrupt = errors.New("corrupt response container")

// errPeerStatus tags a non-200 outer response during an attempt.
type errPeerStatus struct {
	code int
	body string
}

func (e *errPeerStatus) Error() string {
	if e.body == "" {
		return fmt.Sprintf("status %d", e.code)
	}
	return fmt.Sprintf("status %d: %s", e.code, e.body)
}

// client forwards sub-batches to peers with bounded retries.
type client struct {
	hc *http.Client

	mu             sync.Mutex
	sleep          func(time.Duration) // injectable: tests install a no-op recorder
	rng            *rand.Rand
	attemptTimeout time.Duration // 0 = the whole remaining ctx budget per attempt
}

func newClient() *client {
	return &client{
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}},
		sleep: time.Sleep,
		rng:   rand.New(rand.NewSource(1)),
	}
}

// forward posts items to peer as one batch request container and returns the
// decoded per-item results. Connect errors and outer 5xx responses retry up
// to the budget; a nil error guarantees len(results) == len(items). Failures
// come back as *PeerError with the per-item status the caller should record:
// 503 for an unreachable/stalled/5xx peer, 400 for a corrupt response
// container, the peer's own code for an outer 4xx (429 = the peer shed the
// sub-batch under the forwarded client's budget).
func (c *client) forward(ctx context.Context, peer, pathAndQuery, clientID string, items []batch.Item) ([]batch.Result, error) {
	body := batch.EncodeRequest(items)
	url := strings.TrimSuffix(peer, "/") + pathAndQuery
	var lastErr error
	for attempt := 0; ; attempt++ {
		results, err := c.attempt(ctx, url, clientID, body, len(items))
		if err == nil {
			return results, nil
		}
		lastErr = err
		if !retryable(err) || attempt >= Retries || ctx.Err() != nil {
			break
		}
		obs.Inc("shard/retry")
		c.sleepBackoff(attempt)
	}
	return nil, &PeerError{Peer: peer, Status: failStatus(lastErr), Err: lastErr}
}

// attempt is one forward try. The outgoing request carries the parent ctx
// (capped at the attempt timeout when one is set), the original client
// identity, the forwarded marker, and the remaining deadline in
// microseconds.
func (c *client) attempt(ctx context.Context, url, clientID string, body []byte, n int) ([]batch.Result, error) {
	c.mu.Lock()
	at := c.attemptTimeout
	c.mu.Unlock()
	if at > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, at)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(ForwardedHeader, "1")
	if clientID != "" {
		req.Header.Set(ClientHeader, clientID)
	}
	if dl, ok := ctx.Deadline(); ok {
		if us := time.Until(dl).Microseconds(); us > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(us, 10))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &errPeerStatus{code: resp.StatusCode, body: errSnippet(respBody)}
	}
	results, err := batch.DecodeResponse(respBody)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if len(results) != n {
		return nil, fmt.Errorf("%w: %d results for %d items", errCorrupt, len(results), n)
	}
	return results, nil
}

// retryable says whether an attempt error may resolve on its own: transport
// failures (connection refused, reset, an attempt that outlived its slice of
// the deadline) and outer 5xx responses do; a peer's deliberate refusal
// (4xx) and an undecodable response container do not.
func retryable(err error) bool {
	var ps *errPeerStatus
	if errors.As(err, &ps) {
		return ps.code >= 500
	}
	return !errors.Is(err, errCorrupt)
}

// failStatus maps the final attempt error to the per-item status the
// sub-batch's items will carry.
func failStatus(err error) int {
	var ps *errPeerStatus
	if errors.As(err, &ps) {
		if ps.code >= 500 {
			return http.StatusServiceUnavailable
		}
		return ps.code
	}
	if errors.Is(err, errCorrupt) {
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

// sleepBackoff waits the jittered exponential backoff for attempt (0-based):
// uniformly within [d/2, d) for d = backoff << attempt, so synchronized
// retries against a recovering peer spread out. The sleep function is
// injectable (tests install a recorder and never wall-wait).
func (c *client) sleepBackoff(attempt int) {
	d := Backoff << uint(attempt)
	c.mu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)))
	sleep := c.sleep
	c.mu.Unlock()
	sleep(jittered)
}

// errSnippet trims an error body for the per-item payload.
func errSnippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
