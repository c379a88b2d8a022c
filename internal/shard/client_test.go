// Fault-injection coverage for the peer client and the scatter-gather
// router: peers that die mid-batch, stall past the deadline, shed with
// 429, answer 5xx, or return a corrupted response container. Every retry
// is observable (recorded sleeps + the shard/retry counter) and no test
// wall-waits — the backoff sleep is a no-op recorder and stalled peers
// are cut off by a tiny attempt timeout.
package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/obs"
)

func TestMain(m *testing.M) {
	obs.Enable()
	os.Exit(m.Run())
}

// sleepRecorder captures backoff sleeps without waiting.
type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (sr *sleepRecorder) sleep(d time.Duration) {
	sr.mu.Lock()
	sr.slept = append(sr.slept, d)
	sr.mu.Unlock()
}

func (sr *sleepRecorder) durations() []time.Duration {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]time.Duration(nil), sr.slept...)
}

// testRouter builds a two-peer router (self + the given peer URL) with a
// no-op recorded sleep, returning the router and the recorder.
func testRouter(t *testing.T, peer string) (*Router, *sleepRecorder) {
	t.Helper()
	rt, err := NewRouter("http://self.invalid", []string{"http://self.invalid", peer})
	if err != nil {
		t.Fatal(err)
	}
	sr := &sleepRecorder{}
	rt.SetSleep(sr.sleep)
	return rt, sr
}

// echoPeer answers any batch request with per-item 200s echoing the
// payloads back, after n initial responses served by warmup (which may
// fail them).
func echoPeer(t *testing.T, warmupN int, warmup http.HandlerFunc) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(calls.Add(1)) <= warmupN {
			warmup(w, r)
			return
		}
		body := make([]byte, 0)
		buf := make([]byte, 1<<16)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		items, err := batch.DecodeRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]batch.Result, len(items))
		for i, it := range items {
			results[i] = batch.Result{ID: it.ID, Status: 200, Payload: it.Payload}
		}
		_, _ = w.Write(batch.EncodeResponse(results))
	}))
}

func threeItems() []batch.Item {
	return []batch.Item{
		{ID: 1, Payload: []byte("alpha")},
		{ID: 2, Payload: []byte("beta")},
		{ID: 3, Payload: []byte("gamma")},
	}
}

func retryCount(t *testing.T, before, after *obs.Snapshot) int64 {
	t.Helper()
	return after.Counters["shard/retry"] - before.Counters["shard/retry"]
}

// TestShardForwardOK: the happy path — one attempt, no sleeps, results in
// item order.
func TestShardForwardOK(t *testing.T) {
	peer := echoPeer(t, 0, nil)
	defer peer.Close()
	rt, sr := testRouter(t, peer.URL)

	res, err := rt.client.forward(context.Background(), peer.URL, "/v1/estimate-many?model=m", "client-a", threeItems())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, want := range []string{"alpha", "beta", "gamma"} {
		if res[i].Status != 200 || string(res[i].Payload) != want {
			t.Errorf("result %d = (%d, %q), want (200, %q)", i, res[i].Status, res[i].Payload, want)
		}
	}
	if n := len(sr.durations()); n != 0 {
		t.Errorf("happy path recorded %d backoff sleeps, want 0", n)
	}
}

// TestShardForwardHeaders: a forwarded sub-batch carries the forwarded
// marker, the original client identity, and the remaining deadline in
// microseconds (no larger than the actual budget).
func TestShardForwardHeaders(t *testing.T) {
	var gotForwarded, gotClient, gotDeadline string
	peer := echoPeer(t, 1, nil)
	defer peer.Close()
	// Wrap: first call records headers then falls through to echo via a
	// second request — simpler to just record inside a fresh echo peer.
	peer.Close()
	peer = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwarded = r.Header.Get(ForwardedHeader)
		gotClient = r.Header.Get(ClientHeader)
		gotDeadline = r.Header.Get(DeadlineHeader)
		_, _ = w.Write(batch.EncodeResponse([]batch.Result{{ID: 7, Status: 200}}))
	}))
	defer peer.Close()
	rt, _ := testRouter(t, peer.URL)

	budget := 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if _, err := rt.client.forward(ctx, peer.URL, "/v1/pack-many", "tenant-9", []batch.Item{{ID: 7}}); err != nil {
		t.Fatal(err)
	}
	if gotForwarded != "1" {
		t.Errorf("%s = %q, want \"1\"", ForwardedHeader, gotForwarded)
	}
	if gotClient != "tenant-9" {
		t.Errorf("%s = %q, want \"tenant-9\"", ClientHeader, gotClient)
	}
	us, err := strconv.ParseInt(gotDeadline, 10, 64)
	if err != nil || us <= 0 || us > budget.Microseconds() {
		t.Errorf("%s = %q, want 0 < us <= %d", DeadlineHeader, gotDeadline, budget.Microseconds())
	}
}

// TestShardForwardRetriesThenOK: a peer that answers 503 twice and then
// recovers succeeds within the default budget; both retries are counted
// and both backoff sleeps fall inside the jitter window [d/2, d) for
// d = backoff << attempt.
func TestShardForwardRetriesThenOK(t *testing.T) {
	peer := echoPeer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "transient", http.StatusServiceUnavailable)
	})
	defer peer.Close()
	rt, sr := testRouter(t, peer.URL)

	before := obs.TakeSnapshot()
	res, err := rt.client.forward(context.Background(), peer.URL, "/v1/unpack-many", "", threeItems())
	after := obs.TakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Status != 200 {
		t.Fatalf("recovered peer: got %v", res)
	}
	if got := retryCount(t, before, after); got != 2 {
		t.Errorf("shard/retry delta = %d, want 2", got)
	}
	slept := sr.durations()
	if len(slept) != 2 {
		t.Fatalf("recorded %d sleeps, want 2", len(slept))
	}
	for attempt, d := range slept {
		base := Backoff << uint(attempt)
		if d < base/2 || d >= base {
			t.Errorf("backoff %d = %v, want in [%v, %v)", attempt, d, base/2, base)
		}
	}
}

// TestShardForwardBoundedRetries: an always-5xx peer gets exactly
// 1 + Retries attempts, then every item fails 503. The retry
// budget is observable, not wall-clock.
func TestShardForwardBoundedRetries(t *testing.T) {
	var attempts atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "down for good", http.StatusBadGateway)
	}))
	defer peer.Close()
	rt, sr := testRouter(t, peer.URL)

	before := obs.TakeSnapshot()
	_, err := rt.client.forward(context.Background(), peer.URL, "/v1/estimate-many", "", threeItems())
	after := obs.TakeSnapshot()
	pe, ok := err.(*PeerError)
	if !ok {
		t.Fatalf("err = %v, want *PeerError", err)
	}
	if pe.Status != http.StatusServiceUnavailable {
		t.Errorf("PeerError.Status = %d, want 503", pe.Status)
	}
	if got := attempts.Load(); got != 1+Retries {
		t.Errorf("peer saw %d attempts, want %d", got, 1+Retries)
	}
	if got := retryCount(t, before, after); got != Retries {
		t.Errorf("shard/retry delta = %d, want %d", got, Retries)
	}
	if n := len(sr.durations()); n != Retries {
		t.Errorf("recorded %d sleeps, want %d", n, Retries)
	}
}

// TestShardForwardDeadPeer: a closed listener (connection refused) retries
// like any transport error, then fails the sub-batch with 503.
func TestShardForwardDeadPeer(t *testing.T) {
	peer := echoPeer(t, 0, nil)
	peerURL := peer.URL
	peer.Close() // dead before the first byte

	rt, sr := testRouter(t, peerURL)
	before := obs.TakeSnapshot()
	_, err := rt.client.forward(context.Background(), peerURL, "/v1/unpack-many", "", threeItems())
	after := obs.TakeSnapshot()
	pe, ok := err.(*PeerError)
	if !ok || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("dead peer: err = %v, want *PeerError with 503", err)
	}
	if got := retryCount(t, before, after); got != Retries {
		t.Errorf("shard/retry delta = %d, want %d", got, Retries)
	}
	if n := len(sr.durations()); n != Retries {
		t.Errorf("recorded %d sleeps, want %d", n, Retries)
	}
}

// TestShardForwardCorrupt: a corrupted response container — garbage bytes,
// a flipped CRC, or a result count that disagrees with the request — maps
// to 400 and is never retried: the bytes already arrived, asking again
// cannot fix a framing bug, and the items must not silently merge.
func TestShardForwardCorrupt(t *testing.T) {
	goodTwo := batch.EncodeResponse([]batch.Result{{ID: 1, Status: 200}, {ID: 2, Status: 200}})
	flipped := append([]byte(nil), batch.EncodeResponse([]batch.Result{
		{ID: 1, Status: 200}, {ID: 2, Status: 200}, {ID: 3, Status: 200},
	})...)
	flipped[len(flipped)-1] ^= 0x01

	cases := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("this is not a container")},
		{"flipped CRC", flipped},
		{"wrong result count", goodTwo},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var attempts atomic.Int64
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				attempts.Add(1)
				_, _ = w.Write(tc.body)
			}))
			defer peer.Close()
			rt, sr := testRouter(t, peer.URL)

			before := obs.TakeSnapshot()
			_, err := rt.client.forward(context.Background(), peer.URL, "/v1/estimate-many", "", threeItems())
			after := obs.TakeSnapshot()
			pe, ok := err.(*PeerError)
			if !ok || pe.Status != http.StatusBadRequest {
				t.Fatalf("corrupt container: err = %v, want *PeerError with 400", err)
			}
			if got := attempts.Load(); got != 1 {
				t.Errorf("peer saw %d attempts, want 1 (corruption must not retry)", got)
			}
			if got := retryCount(t, before, after); got != 0 {
				t.Errorf("shard/retry delta = %d, want 0", got)
			}
			if n := len(sr.durations()); n != 0 {
				t.Errorf("recorded %d sleeps, want 0", n)
			}
		})
	}
}

// TestShardForwardPeerRefusal: a peer's own 4xx (a shed sub-batch, a
// client error) passes through as the per-item status without retrying —
// the refusal is deliberate, not transient.
func TestShardForwardPeerRefusal(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusRequestEntityTooLarge} {
		var attempts atomic.Int64
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			http.Error(w, "refused", code)
		}))
		rt, sr := testRouter(t, peer.URL)

		_, err := rt.client.forward(context.Background(), peer.URL, "/v1/pack-many", "", threeItems())
		pe, ok := err.(*PeerError)
		if !ok || pe.Status != code {
			t.Errorf("peer %d: err = %v, want *PeerError with %d", code, err, code)
		}
		if got := attempts.Load(); got != 1 {
			t.Errorf("peer %d saw %d attempts, want 1", code, got)
		}
		if n := len(sr.durations()); n != 0 {
			t.Errorf("peer %d: recorded %d sleeps, want 0", code, n)
		}
		peer.Close()
	}
}

// TestShardForwardCanceled: a context already done never retries — the
// request that spawned the forward is gone.
func TestShardForwardCanceled(t *testing.T) {
	peer := echoPeer(t, 0, nil)
	defer peer.Close()
	rt, sr := testRouter(t, peer.URL)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.client.forward(ctx, peer.URL, "/v1/estimate-many", "", threeItems())
	pe, ok := err.(*PeerError)
	if !ok || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("canceled ctx: err = %v, want *PeerError with 503", err)
	}
	if n := len(sr.durations()); n != 0 {
		t.Errorf("canceled ctx recorded %d sleeps, want 0", n)
	}
}

// TestShardForwardStalledPeer: a peer that accepts the connection and then
// never answers is cut off by the attempt timeout, retried within the
// budget, and finally failed with 503. The stall is bounded by the tiny
// injected timeout, not the wall clock.
func TestShardForwardStalledPeer(t *testing.T) {
	var attempts atomic.Int64
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		<-release // stall well past the attempt timeout
	}))
	defer peer.Close()
	defer close(release) // runs first: unblock the stalled handlers so Close can reap them
	rt, sr := testRouter(t, peer.URL)
	rt.SetAttemptTimeout(5 * time.Millisecond)

	before := obs.TakeSnapshot()
	_, err := rt.client.forward(context.Background(), peer.URL, "/v1/unpack-many", "", threeItems())
	after := obs.TakeSnapshot()
	pe, ok := err.(*PeerError)
	if !ok || pe.Status != http.StatusServiceUnavailable {
		t.Fatalf("stalled peer: err = %v, want *PeerError with 503", err)
	}
	if got := attempts.Load(); got != 1+Retries {
		t.Errorf("stalled peer saw %d attempts, want %d", got, 1+Retries)
	}
	if got := retryCount(t, before, after); got != Retries {
		t.Errorf("shard/retry delta = %d, want %d", got, Retries)
	}
	if n := len(sr.durations()); n != Retries {
		t.Errorf("recorded %d sleeps, want %d", n, Retries)
	}
}

// TestShardScatterMerge: one live peer and one dead peer in the same
// scatter — the dead peer's items carry per-item 503s, the live peer's
// and the local items are untouched, and the failure increments
// shard/peer_err exactly once (one sub-batch failed, not three items).
func TestShardScatterMerge(t *testing.T) {
	live := echoPeer(t, 0, nil)
	defer live.Close()
	dead := echoPeer(t, 0, nil)
	deadURL := dead.URL
	dead.Close()

	self := "http://self.invalid"
	rt, err := NewRouter(self, []string{self, live.URL, deadURL})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetSleep(func(time.Duration) {})

	items := []batch.Item{
		{ID: 10, Payload: []byte("p0")}, // -> live
		{ID: 11, Payload: []byte("p1")}, // -> dead
		{ID: 12, Payload: []byte("p2")}, // -> dead
		{ID: 13, Payload: []byte("p3")}, // -> local (left zero)
	}
	remote := []SubBatch{
		{Peer: live.URL, Idx: []int{0}},
		{Peer: deadURL, Idx: []int{1, 2}},
	}
	results := make([]batch.Result, len(items))

	before := obs.TakeSnapshot()
	rt.Scatter(context.Background(), "/v1/estimate-many", "c", items, remote, results)
	after := obs.TakeSnapshot()

	if results[0].Status != 200 || string(results[0].Payload) != "p0" {
		t.Errorf("live peer item: got (%d, %q), want (200, \"p0\")", results[0].Status, results[0].Payload)
	}
	for _, i := range []int{1, 2} {
		if results[i].Status != http.StatusServiceUnavailable {
			t.Errorf("dead peer item %d: status %d, want 503", i, results[i].Status)
		}
		if results[i].ID != items[i].ID {
			t.Errorf("dead peer item %d: ID %d, want %d", i, results[i].ID, items[i].ID)
		}
		if len(results[i].Payload) == 0 {
			t.Errorf("dead peer item %d: want an error payload", i)
		}
	}
	if results[3].Status != 0 {
		t.Errorf("local item was written by Scatter: %v", results[3])
	}
	if d := after.Counters["shard/peer_err"] - before.Counters["shard/peer_err"]; d != 1 {
		t.Errorf("shard/peer_err delta = %d, want 1 (one failed sub-batch)", d)
	}
	if d := after.Counters["shard/forwarded"] - before.Counters["shard/forwarded"]; d != 3 {
		t.Errorf("shard/forwarded delta = %d, want 3 (items routed off-box)", d)
	}
}

// TestShardPartition: every index lands exactly once, local indexes stay
// local, and the remote fan-out order is deterministic (peers sorted).
func TestShardPartition(t *testing.T) {
	self := "http://10.0.0.1:8080"
	rt, err := NewRouter(self, fourPeers)
	if err != nil {
		t.Fatal(err)
	}
	keys := brickKeys(200)
	local, remote := rt.Partition(keys)
	seen := make(map[int]bool)
	for _, i := range local {
		if owner := rt.Ring().Owner(keys[i]); owner != self {
			t.Errorf("local index %d owned by %q", i, owner)
		}
		seen[i] = true
	}
	for k := 1; k < len(remote); k++ {
		if remote[k-1].Peer >= remote[k].Peer {
			t.Errorf("remote sub-batches out of order: %q before %q", remote[k-1].Peer, remote[k].Peer)
		}
	}
	for _, sb := range remote {
		for _, i := range sb.Idx {
			if owner := rt.Ring().Owner(keys[i]); owner != sb.Peer {
				t.Errorf("index %d grouped under %q but owned by %q", i, sb.Peer, owner)
			}
			if seen[i] {
				t.Errorf("index %d partitioned twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(keys) {
		t.Errorf("partition covered %d of %d indexes", len(seen), len(keys))
	}
}
