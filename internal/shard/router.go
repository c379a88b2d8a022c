// The scatter-gather router: partition a decoded batch by owning shard,
// forward the remote sub-batches concurrently, and hand the local indexes
// back to the caller — internal/serve runs those through its own charged
// execution path (rate limit, QoS admission, pool.Split worker budget)
// while the forwards are in flight, then the merged per-item results go
// out as one response container.
package shard

import (
	"context"
	"net/http"
	"net/url"
	"sort"
	"time"

	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
)

// Router owns the ring and the peer client for one fxrzd instance.
type Router struct {
	ring   *Ring
	client *client
}

// NewRouter builds the router of instance self over the placement ring of
// peers; the peer list must validate (NewRing).
func NewRouter(self string, peers []string) (*Router, error) {
	ring, err := NewRing(self, peers)
	if err != nil {
		return nil, err
	}
	return &Router{ring: ring, client: newClient()}, nil
}

// Ring exposes the placement map (healthz reports its membership).
func (rt *Router) Ring() *Ring { return rt.ring }

// SetSleep replaces the retry-backoff sleep function. Tests use this to
// count and bound retries without wall-clock waits (the shard analogue of
// ratelimit.SetClock); production code never calls it.
func (rt *Router) SetSleep(sleep func(time.Duration)) {
	rt.client.mu.Lock()
	defer rt.client.mu.Unlock()
	if sleep == nil {
		sleep = time.Sleep
	}
	rt.client.sleep = sleep
}

// SetAttemptTimeout caps each forward attempt (0 = the whole remaining
// request budget). Tests use a tiny cap to force the stalled-peer path
// deterministically; production deployments can bound how long one slow
// peer holds up a merge before the retry kicks in.
func (rt *Router) SetAttemptTimeout(d time.Duration) {
	rt.client.mu.Lock()
	defer rt.client.mu.Unlock()
	rt.client.attemptTimeout = d
}

// SubBatch is the slice of a batch owned by one remote peer: Idx holds the
// original item indexes, in order.
type SubBatch struct {
	Peer string
	Idx  []int
}

// Partition splits item indexes by owner: local collects the indexes this
// instance owns, remote groups the rest per peer (peers sorted, so the
// forward fan-out order is deterministic).
func (rt *Router) Partition(keys []string) (local []int, remote []SubBatch) {
	byPeer := make(map[string][]int)
	for i, key := range keys {
		owner := rt.ring.Owner(key)
		if owner == rt.ring.Self() {
			local = append(local, i)
			continue
		}
		byPeer[owner] = append(byPeer[owner], i)
	}
	peers := make([]string, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		remote = append(remote, SubBatch{Peer: p, Idx: byPeer[p]})
	}
	return local, remote
}

// Scatter forwards every remote sub-batch concurrently and writes its
// per-item results into results at the original indexes. A failed forward
// fails only its own sub-batch: every item gets the PeerError's status (503
// for a dead/stalled/5xx peer, 400 for a corrupt response container, the
// peer's own code for an outer refusal) with the error text as payload.
// The fan-out obeys the pool.Split budget rule against the machine's worker
// budget — forwards are network-bound, but their goroutine count still
// never exceeds the configured parallelism.
func (rt *Router) Scatter(ctx context.Context, pathAndQuery, clientID string, items []batch.Item, remote []SubBatch, results []batch.Result) {
	if len(remote) == 0 {
		return
	}
	outer, _ := pool.Split(pool.Workers(0), len(remote))
	pool.Run(outer, len(remote), func(k int) {
		sb := remote[k]
		sub := make([]batch.Item, len(sb.Idx))
		for j, idx := range sb.Idx {
			sub[j] = items[idx]
		}
		obs.Add("shard/forwarded", int64(len(sb.Idx)))
		done := obs.Span("shard/peer/" + peerLabel(sb.Peer))
		res, err := rt.client.forward(ctx, sb.Peer, pathAndQuery, clientID, sub)
		done()
		if err != nil {
			obs.Inc("shard/peer_err")
			pe, ok := err.(*PeerError)
			status := http.StatusServiceUnavailable
			if ok {
				status = pe.Status
			}
			for _, idx := range sb.Idx {
				results[idx] = batch.Result{ID: items[idx].ID, Status: status, Payload: []byte(err.Error())}
			}
			return
		}
		for j, idx := range sb.Idx {
			results[idx] = res[j]
		}
	})
}

// peerLabel shortens a peer base URL to host:port for metric names.
func peerLabel(peer string) string {
	if u, err := url.Parse(peer); err == nil && u.Host != "" {
		return u.Host
	}
	return peer
}
