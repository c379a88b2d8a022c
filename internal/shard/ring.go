// Package shard is fxrzd's multi-instance serving tier: a rendezvous-hash
// (HRW) placement map over a static peer list, an HTTP peer client with
// deadline propagation and bounded jittered retries, and a scatter-gather
// router that splits a /v1/*-many batch container by owning shard, forwards
// the sub-batches concurrently, and merges the per-item statuses back into
// one response. FRaZ-style distributed I/O pipelines (many nodes, each
// touching a slice of a snapshot) and fleet-scale estimate sweeps are both
// scatter-gather over shards, not one giant field — this package is the
// routing half of that story; internal/serve owns the per-shard execution.
//
// Placement is rendezvous hashing rather than a token ring: every peer
// scores every key and the highest score owns it, so removing one of N
// peers relocates exactly the keys the dead peer owned (~1/N of them) and
// no others — no token rebalancing, no shared state, any instance computes
// the same owner from the same static peer list.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable rendezvous-hash placement map over a static peer
// list. Peers are opaque strings (fxrzd uses base URLs); Self names the
// instance holding this ring.
type Ring struct {
	self  string
	peers []string // sorted, deduplicated
}

// NewRing validates a static peer list into a placement map. The list must
// be non-empty, free of duplicates and empty entries, and contain self —
// every instance carries the same list, differing only in which entry it
// calls its own.
func NewRing(self string, peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("shard: empty peer list")
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	seen := make(map[string]bool, len(sorted))
	for _, p := range sorted {
		if p == "" {
			return nil, fmt.Errorf("shard: empty peer entry")
		}
		if seen[p] {
			return nil, fmt.Errorf("shard: duplicate peer %q", p)
		}
		seen[p] = true
	}
	if !seen[self] {
		return nil, fmt.Errorf("shard: self %q is not in the peer list %v", self, sorted)
	}
	return &Ring{self: self, peers: sorted}, nil
}

// Self returns this instance's own peer entry.
func (r *Ring) Self() string { return r.self }

// Members returns the sorted peer list (a copy).
func (r *Ring) Members() []string { return append([]string(nil), r.peers...) }

// Owner returns the peer owning key: the peer with the highest rendezvous
// score. Ties (a hash collision across peers) break toward the
// lexicographically smaller peer, so every instance agrees.
func (r *Ring) Owner(key string) string {
	best := r.peers[0]
	bestScore := score(r.peers[0], key)
	for _, p := range r.peers[1:] {
		if s := score(p, key); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// score hashes one (peer, key) pair. FNV-1a over peer + NUL + key — stable
// across processes and Go versions (unlike hash/maphash), with the NUL
// separator keeping ("ab","c") and ("a","bc") distinct — then a 64-bit
// finalizer: FNV alone avalanches poorly on near-identical keys (brick IDs
// differ only in trailing digits) and skews the argmax across peers by up
// to ~50%; the multiply-xorshift mix restores uniform placement.
func score(peer, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(peer))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 finalizer: a bijective scramble whose output bits
// each depend on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ItemKey derives the placement key for one batch item from its effective
// parameters (the item's params merged over the request query) and payload:
//
//   - an explicit shard-key parameter wins — clients that know their brick
//     IDs route deterministically without the server inspecting payloads;
//   - else the item's model ID — estimate and pack items for one model
//     co-locate with that model's warm registry cache;
//   - else a content hash of the payload — unpack items (compressed bricks)
//     spread by their bytes.
func ItemKey(get func(string) string, payload []byte) string {
	if k := get("shard-key"); k != "" {
		return k
	}
	if m := get("model"); m != "" {
		return "model:" + m
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	return fmt.Sprintf("blob:%016x", h.Sum64())
}
