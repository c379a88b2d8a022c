// The request pipeline. Every heavy request — /v1/<op> and /v1/<op>-many
// alike — is a list of batch.Items taken through five stages:
//
//	decode   the body, staged under the size cap, becomes items: the frames
//	         of a batch container (internal/batch, magic 0xB5, at most
//	         Config.MaxBatch of them), or the one item a single call's body is
//	charge   the client's rate budget pays one token per item
//	         (ratelimit.AllowN) and the operation's QoS class one ticket
//	         priced by the weighted item count (qos.TryAcquireN)
//	route    the entry shard of a ring splits a batch by owner and forwards
//	         the remote slices; a single call is never routed
//	execute  the endpoint row's exec runs once per item under the ticket's
//	         worker budget, and an item fails alone
//	encode   a single call writes its one result as the response itself, a
//	         batch writes one response container with a status per item
//
// The wires differ in exactly one ordering: a single call's item count is
// known before its body, so it is charged first and a refused call never has
// its body read; a batch's count is inside its body, so it is charged after
// decode. Both then pay the same charge: a 64-item batch draws the per-client
// budget of 64 single calls, and its one ticket costs ceil(n / perSlot)
// slots, clamped to what the class could ever hold (qos.MaxCost) so a large
// batch waits for a quiet server instead of being unadmittable or eating
// other classes' guarantees.
package serve

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
	"github.com/fxrz-go/fxrz/internal/ratelimit"
	"github.com/fxrz-go/fxrz/internal/shard"
)

// serve answers one request on either wire of ep.
func (s *Server) serve(w *statusWriter, r *http.Request, ep *endpoint, many bool) {
	// One deadline on both wires, running from before the body is read: the
	// configured timeout, clamped to what a forwarding shard had left.
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	defer cancel()
	// The cap is handed net/http's own writer, not the status wrapper: only
	// that one marks an oversized request's connection Connection: close.
	capped := http.MaxBytesReader(w.ResponseWriter, r.Body, s.cfg.MaxBodyBytes)

	// charge, early: a single call is one item whatever its body holds.
	var cost int
	if !many {
		var ref *refusal
		if cost, ref = s.charge(r, ep, 1); ref != nil {
			// The body is unread and stays so: net/http would otherwise drain
			// up to 256 KiB of it before the status line to keep the
			// connection, and a stalled sender would hold back its own refusal.
			w.Header().Set("Connection", "close")
			ref.write(w)
			return
		}
		defer s.discharge(ep, cost)
	}
	// decode
	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(capped, buf)
	if err != nil {
		fail(w, err)
		return
	}

	items := []batch.Item{{Payload: body}}
	if many {
		if items, err = batch.DecodeRequest(body); err != nil {
			fail(w, err)
			return
		}
		if n := len(items); n > s.cfg.MaxBatch {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch of %d items exceeds the %d-item limit; split the request", n, s.cfg.MaxBatch))
			return
		}
	}

	// charge (a batch, now that it has been counted), route, execute
	var results []batch.Result
	var hdrs []http.Header
	switch {
	case !many:
		results, hdrs = s.run(ctx, ep, r.URL.Query(), items, cost*s.inner)
	case s.router != nil && r.Header.Get(shard.ForwardedHeader) == "":
		// Entry shard of a ring. Refusals become per-item statuses: the
		// merged response itself stays 200.
		results = s.scatter(ctx, r, ep, items)
	default:
		// Single instance, or a forwarded sub-batch (every item is ours by
		// construction): a refusal refuses the batch outright.
		var ref *refusal
		if results, ref = s.local(ctx, r, ep, items); ref != nil {
			ref.write(w)
			return
		}
	}

	// encode
	var out []byte
	ctype := "application/octet-stream"
	if many {
		okCount := 0
		for i := range results {
			if results[i].Status < 400 {
				okCount++
			}
		}
		route := ep.route(many)
		obs.Add("serve/batch/item_ok/"+route, int64(okCount))
		obs.Add("serve/batch/item_err/"+route, int64(len(results)-okCount))
		out = batch.EncodeResponse(results)
	} else if res := results[0]; res.Status >= 400 {
		writeError(w, res.Status, string(res.Payload))
		return
	} else {
		maps.Copy(w.Header(), hdrs[0])
		out, ctype = res.Payload, ep.contentType
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	if _, err := w.Write(out); err != nil {
		// Headers are gone; all we can do is count it.
		obs.Inc("serve/errors/" + ep.route(many) + "_write")
	}
}

// requestTimeout is the configured per-request budget, clamped to a
// forwarded deadline (shard.DeadlineHeader, microseconds) when one arrived —
// a sub-batch never outlives the client request that spawned it.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	d := s.cfg.Timeout
	if v := r.Header.Get(shard.DeadlineHeader); v != "" {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil && us > 0 {
			if fwd := time.Duration(us) * time.Microsecond; fwd < d {
				d = fwd
			}
		}
	}
	return d
}

// refusal is a request shed before any work happened: a 429 with the
// Retry-After its cause dictates — or, on the entry shard of a ring, the
// per-item status of the local slice.
type refusal struct {
	retryAfter, msg string
}

func (ref *refusal) write(w http.ResponseWriter) {
	w.Header().Set("Retry-After", ref.retryAfter)
	writeError(w, http.StatusTooManyRequests, ref.msg)
}

// charge draws n items from the client's rate budget and takes the QoS
// ticket for them, in that order, so a rate-limited client never consumes a
// slot. It returns the ticket's cost in slots — which discharge must return
// — or the refusal. The rate limit's Retry-After is the client's actual
// bucket refill time; an overload's is a fixed second.
func (s *Server) charge(r *http.Request, ep *endpoint, n int) (int, *refusal) {
	if ok, retry := s.limits.AllowN(clientID(r), n); !ok {
		obs.Inc("serve/rejected/ratelimit")
		return 0, &refusal{strconv.Itoa(ratelimit.RetryAfterSeconds(retry)),
			fmt.Sprintf("%d item(s) over the client's %g req/s rate limit", n, s.cfg.RatePerClient)}
	}
	cost := max(1, min((n+ep.perSlot-1)/ep.perSlot, s.admit.MaxCost(ep.class)))
	if !s.admit.TryAcquireN(ep.class, cost) {
		obs.Inc("serve/rejected/overload")
		return 0, &refusal{"1", fmt.Sprintf("server at capacity for %s requests (%d of %d slots in use, %d item(s) need %d)",
			ep.name, s.admit.Total(), s.admit.Capacity(), n, cost)}
	}
	obs.AddGauge("serve/inflight", int64(cost))
	obs.MaxGauge("serve/inflight_peak", int64(s.admit.Total()))
	return cost, nil
}

// discharge returns a ticket charge granted.
func (s *Server) discharge(ep *endpoint, cost int) {
	obs.AddGauge("serve/inflight", int64(-cost))
	s.admit.ReleaseN(ep.class, cost)
}

// local charges for a batch's items and runs them here, returning one result
// per item — or the refusal, when the batch is shed before any work happens.
func (s *Server) local(ctx context.Context, r *http.Request, ep *endpoint, items []batch.Item) ([]batch.Result, *refusal) {
	cost, ref := s.charge(r, ep, len(items))
	if ref != nil {
		return nil, ref
	}
	defer s.discharge(ep, cost)
	obs.Add("serve/batch/items/"+ep.route(true), int64(len(items)))
	results, _ := s.run(ctx, ep, r.URL.Query(), items, cost*s.inner)
	return results, nil
}

// scatter routes one batch across the shard ring: items are keyed (explicit
// shard-key param, else model, else payload hash — shard.ItemKey),
// partitioned by rendezvous-hashed owner, and the remote sub-batches
// forwarded concurrently while the local slice runs under this instance's
// own charge. Per-item statuses merge back into one response: a dead peer
// 503s its own items, a corrupt peer response 400s its sub-batch, a local
// shed 429s the local slice — healthy items always survive.
func (s *Server) scatter(ctx context.Context, r *http.Request, ep *endpoint, items []batch.Item) []batch.Result {
	base := r.URL.Query()
	keys := make([]string, len(items))
	for i, it := range items {
		iq, _ := itemQuery(it) // a bad params string keys by payload; the item still fails with 400 where it runs
		keys[i] = shard.ItemKey(func(k string) string { return mergedGet(base, iq, k) }, it.Payload)
	}
	local, remote := s.router.Partition(keys)
	results := make([]batch.Result, len(items))

	var fwd sync.WaitGroup
	if len(remote) > 0 {
		fwd.Add(1)
		go func() {
			defer fwd.Done()
			s.router.Scatter(ctx, r.URL.RequestURI(), clientID(r), items, remote, results)
		}()
	}
	if len(local) > 0 {
		sub := make([]batch.Item, len(local))
		for j, idx := range local {
			sub[j] = items[idx]
		}
		res, ref := s.local(ctx, r, ep, sub)
		for j, idx := range local {
			if ref != nil {
				results[idx] = batch.Result{ID: items[idx].ID, Status: http.StatusTooManyRequests, Payload: []byte(ref.msg)}
			} else {
				results[idx] = res[j]
			}
		}
	}
	fwd.Wait()
	obs.Inc("shard/merged")
	obs.Add("shard/local_items", int64(len(local)))
	return results
}

// run executes items on ep under a worker budget and returns one result per
// item, plus whatever response headers each exec reported (a single call
// sends them; a batch has nowhere to). The pool.Split budget rule holds twice
// over: a ticket holding cost slots brings cost × inner workers, split across
// its items, so slots × item workers × per-item workers never oversubscribes
// the configured budget. Each item's params are merged over the request
// query; an item past the deadline is not started.
func (s *Server) run(ctx context.Context, ep *endpoint, base url.Values, items []batch.Item, budget int) ([]batch.Result, []http.Header) {
	results := make([]batch.Result, len(items))
	hdrs := make([]http.Header, len(items))
	outer, perItem := pool.Split(budget, len(items))
	pool.Run(outer, len(items), func(i int) {
		it := items[i]
		iq, err := itemQuery(it)
		if err == nil {
			err = ctx.Err()
		}
		var out []byte
		if err == nil {
			wk := work{payload: it.Payload, workers: perItem, get: func(k string) string { return mergedGet(base, iq, k) }}
			out, hdrs[i], err = ep.exec(s, ctx, wk)
		}
		if err != nil {
			results[i] = batch.Result{ID: it.ID, Status: errorStatus(err), Payload: []byte(err.Error())}
		} else {
			results[i] = batch.Result{ID: it.ID, Status: http.StatusOK, Payload: out}
		}
	})
	return results, hdrs
}

// itemQuery parses an item's params override; empty params are an empty set.
func itemQuery(it batch.Item) (url.Values, error) {
	if it.Params == "" {
		return nil, nil
	}
	q, err := url.ParseQuery(it.Params)
	if err != nil {
		return nil, badRequestf("item params %q: %v", it.Params, err)
	}
	return q, nil
}

// mergedGet resolves one parameter: the item override when present, the
// request-level query otherwise.
func mergedGet(base, item url.Values, key string) string {
	if v := item.Get(key); v != "" {
		return v
	}
	return base.Get(key)
}
