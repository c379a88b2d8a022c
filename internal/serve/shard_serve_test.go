// Sharded serving end to end: real multi-instance rings over loopback
// listeners, scatter-gather merge identity against a single instance, and
// fault injection at the serving layer — a dead shard, a corrupt peer
// response, an always-5xx peer, a shed local slice. Retries are observed
// through obs counters and recorded sleeps, never wall-clock waits.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/serve"
	"github.com/fxrz-go/fxrz/internal/shard"
)

// shardCluster starts n HTTP endpoints whose base URLs form one static
// ring. An index with a handler in fakes serves that handler instead of a
// real serve.Server — fault injection slots for corrupt, 5xx, or refusing
// peers. Real instances get a no-op recorded sleep so no retry in the
// suite ever wall-waits. stop(i) kills instance i mid-test.
func shardCluster(t *testing.T, n int, mutate func(i int, c *serve.Config), fakes map[int]http.Handler) (bases []string, servers []*serve.Server, stop func(i int)) {
	t.Helper()
	lns := make([]net.Listener, n)
	bases = make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		bases[i] = "http://" + ln.Addr().String()
	}
	servers = make([]*serve.Server, n)
	httpSrvs := make([]*http.Server, n)
	for i := range lns {
		var h http.Handler
		if fake, ok := fakes[i]; ok {
			h = fake
		} else {
			cfg := serve.Config{ModelsDir: modelsDir, Peers: append([]string(nil), bases...), Self: bases[i]}
			if mutate != nil {
				mutate(i, &cfg)
			}
			s := serve.NewServer(cfg)
			s.ShardRouter().SetSleep(func(time.Duration) {})
			servers[i] = s
			h = s.Handler()
		}
		httpSrvs[i] = &http.Server{Handler: h}
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(httpSrvs[i], lns[i])
	}
	t.Cleanup(func() {
		for i := range httpSrvs {
			_ = httpSrvs[i].Close()
		}
	})
	return bases, servers, func(i int) { _ = httpSrvs[i].Close() }
}

// keysOwnedBy generates count distinct shard-key values the ring places on
// owner — the same placement every instance of the cluster computes.
func keysOwnedBy(t *testing.T, bases []string, owner string, count int) []string {
	t.Helper()
	ring, err := shard.NewRing(bases[0], bases)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; len(keys) < count; i++ {
		if i > 100000 {
			t.Fatalf("no %d keys owned by %s in 100k candidates", count, owner)
		}
		k := fmt.Sprintf("key-%05d", i)
		if ring.Owner(k) == owner {
			keys = append(keys, k)
		}
	}
	return keys
}

// featuresPayload builds a deterministic features-mode estimate body.
func featuresPayload(t *testing.T, f *fxrz.Field, target float64) []byte {
	t.Helper()
	full, err := trainedFW.EstimateConfig(f, target)
	if err != nil {
		t.Fatal(err)
	}
	ft := fxrz.ExtractFeatures(f, 4)
	body, _ := json.Marshal(serve.FeaturesRequest{
		ValueRange: ft.ValueRange, MeanValue: ft.MeanValue,
		MND: ft.MND, MLD: ft.MLD, MSD: ft.MSD, CARatio: full.NonConstantR,
	})
	return body
}

// estimateModuloTime strips the wall-clock AnalysisMS and re-marshals, so
// two estimate payloads can be compared bit-wise.
func estimateModuloTime(t *testing.T, payload []byte) []byte {
	t.Helper()
	var er serve.EstimateResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatalf("estimate payload %q: %v", payload, err)
	}
	er.AnalysisMS = 0
	out, _ := json.Marshal(er)
	return out
}

// TestScatterEstimateMatchesSingleInstance: a mixed-shard estimate batch
// through a two-instance ring answers item for item what a single instance
// answers (modulo the wall-clock AnalysisMS), with the remote items
// observably forwarded.
func TestScatterEstimateMatchesSingleInstance(t *testing.T) {
	bases, _, _ := shardCluster(t, 2, nil, nil)
	single, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	feat := featuresPayload(t, f, target)

	localKeys := keysOwnedBy(t, bases, bases[0], 2)
	remoteKeys := keysOwnedBy(t, bases, bases[1], 2)
	items := []batch.Item{
		{ID: 0, Params: "shard-key=" + localKeys[0], Payload: feat},
		{ID: 1, Params: "shard-key=" + remoteKeys[0], Payload: feat},
		{ID: 2, Params: "shard-key=" + remoteKeys[1] + "&model=m0", Payload: feat},
		{ID: 3, Params: "shard-key=" + localKeys[1], Payload: feat},
	}
	url := fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", target)

	before := obs.TakeSnapshot()
	status, got, _ := postBatch(t, bases[0]+url, items)
	after := obs.TakeSnapshot()
	if status != 200 {
		t.Fatalf("cluster outer status %d", status)
	}
	st2, want, _ := postBatch(t, single.URL+url, items)
	if st2 != 200 {
		t.Fatalf("single-instance outer status %d", st2)
	}
	for i := range items {
		if got[i].ID != items[i].ID {
			t.Fatalf("result %d echoes ID %d, want %d", i, got[i].ID, items[i].ID)
		}
		if got[i].Status != 200 {
			t.Fatalf("item %d status %d: %s", i, got[i].Status, got[i].Payload)
		}
		g := estimateModuloTime(t, got[i].Payload)
		w := estimateModuloTime(t, want[i].Payload)
		if !bytes.Equal(g, w) {
			t.Errorf("item %d diverged from single-instance:\ncluster: %s\n single: %s", i, g, w)
		}
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("shard/forwarded"); d != 2 {
		t.Errorf("shard/forwarded delta = %d, want 2 (the remote-keyed items)", d)
	}
	if d := delta("shard/merged"); d != 1 {
		t.Errorf("shard/merged delta = %d, want 1", d)
	}
	if d := delta("shard/local_items"); d != 2 {
		// Counted by the entry shard's merge only; the peer's forwarded slice
		// runs the plain (non-routing) path.
		t.Errorf("shard/local_items delta = %d, want 2", d)
	}
}

// TestScatterPackUnpackBitIdentical: pack-many and a mixed-shard
// unpack-many (with item-level regions) through the ring return payloads
// bit-identical to the single instance.
func TestScatterPackUnpackBitIdentical(t *testing.T) {
	bases, _, _ := shardCluster(t, 2, nil, nil)
	single, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	blob, _, err := trainedFW.CompressToRatio(f, target)
	if err != nil {
		t.Fatal(err)
	}

	localKeys := keysOwnedBy(t, bases, bases[0], 2)
	remoteKeys := keysOwnedBy(t, bases, bases[1], 2)

	packItems := []batch.Item{
		{ID: 0, Params: "shard-key=" + localKeys[0], Payload: fb.Bytes()},
		{ID: 1, Params: "shard-key=" + remoteKeys[0], Payload: fb.Bytes()},
	}
	packURL := fmt.Sprintf("/v1/pack-many?model=nyx-sz&target=%g", target)
	status, got, _ := postBatch(t, bases[0]+packURL, packItems)
	if status != 200 {
		t.Fatalf("cluster pack-many status %d", status)
	}
	st2, want, _ := postBatch(t, single.URL+packURL, packItems)
	if st2 != 200 {
		t.Fatalf("single pack-many status %d", st2)
	}
	for i := range packItems {
		if got[i].Status != 200 {
			t.Fatalf("pack item %d status %d: %s", i, got[i].Status, got[i].Payload)
		}
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("pack item %d stream not bit-identical to single-instance", i)
		}
	}

	const region = "4:20,8:21,2:17"
	unpackItems := []batch.Item{
		{ID: 10, Params: "shard-key=" + remoteKeys[0] + "&region=" + region, Payload: blob},
		{ID: 11, Params: "shard-key=" + localKeys[0], Payload: blob},
		{ID: 12, Params: "shard-key=" + remoteKeys[1], Payload: blob},
		{ID: 13, Params: "shard-key=" + localKeys[1] + "&region=" + region, Payload: blob},
	}
	status, got, _ = postBatch(t, bases[0]+"/v1/unpack-many", unpackItems)
	if status != 200 {
		t.Fatalf("cluster unpack-many status %d", status)
	}
	st2, want, _ = postBatch(t, single.URL+"/v1/unpack-many", unpackItems)
	if st2 != 200 {
		t.Fatalf("single unpack-many status %d", st2)
	}
	for i := range unpackItems {
		if got[i].Status != 200 {
			t.Fatalf("unpack item %d status %d: %s", i, got[i].Status, got[i].Payload)
		}
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("unpack item %d field not bit-identical to single-instance", i)
		}
	}
}

// TestScatterDeadPeer: killing one of two shards mid-ring fails exactly
// that shard's items with per-item 503s — the outer response stays 200,
// the surviving shard's items answer bit-identically to a single instance,
// and the retries stay within the bounded budget (observed, not slept).
func TestScatterDeadPeer(t *testing.T) {
	bases, _, stop := shardCluster(t, 2, nil, nil)
	single, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	feat := featuresPayload(t, f, target)

	localKeys := keysOwnedBy(t, bases, bases[0], 2)
	remoteKeys := keysOwnedBy(t, bases, bases[1], 2)
	items := []batch.Item{
		{ID: 0, Params: "shard-key=" + localKeys[0], Payload: feat},
		{ID: 1, Params: "shard-key=" + remoteKeys[0], Payload: feat},
		{ID: 2, Params: "shard-key=" + localKeys[1], Payload: feat},
		{ID: 3, Params: "shard-key=" + remoteKeys[1], Payload: feat},
	}
	url := fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", target)

	stop(1) // shard B dies before the batch arrives

	before := obs.TakeSnapshot()
	status, got, _ := postBatch(t, bases[0]+url, items)
	after := obs.TakeSnapshot()
	if status != 200 {
		t.Fatalf("outer status %d — a dead peer must not fail the whole batch", status)
	}
	wantStatus := []int{200, 503, 200, 503}
	for i, r := range got {
		if r.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (%s)", i, r.Status, wantStatus[i], r.Payload)
		}
	}
	// The healthy items answer exactly like a single instance.
	st2, want, _ := postBatch(t, single.URL+url, items)
	if st2 != 200 {
		t.Fatalf("single-instance status %d", st2)
	}
	for _, i := range []int{0, 2} {
		if !bytes.Equal(estimateModuloTime(t, got[i].Payload), estimateModuloTime(t, want[i].Payload)) {
			t.Errorf("surviving item %d diverged from single-instance", i)
		}
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("shard/retry"); d != shard.Retries {
		t.Errorf("shard/retry delta = %d, want %d (bounded budget)", d, shard.Retries)
	}
	if d := delta("shard/peer_err"); d != 1 {
		t.Errorf("shard/peer_err delta = %d, want 1 (one failed sub-batch)", d)
	}
}

// TestScatterCorruptPeer: a peer answering 200 with an undecodable response
// container fails only its own sub-batch, with per-item 400s and zero
// retries — corrupt bytes must never be silently merged or re-fetched.
func TestScatterCorruptPeer(t *testing.T) {
	corrupt := func(w http.ResponseWriter, r *http.Request) {
		// A well-formed container whose CRC was flipped in flight.
		body := batch.EncodeResponse([]batch.Result{{ID: 0, Status: 200, Payload: []byte("x")}})
		body[len(body)-1] ^= 0x01
		_, _ = w.Write(body)
	}
	bases, _, _ := shardCluster(t, 2, nil, map[int]http.Handler{1: http.HandlerFunc(corrupt)})
	f := testField(t)
	target := midTarget(t, f)
	feat := featuresPayload(t, f, target)

	localKeys := keysOwnedBy(t, bases, bases[0], 1)
	remoteKeys := keysOwnedBy(t, bases, bases[1], 2)
	items := []batch.Item{
		{ID: 0, Params: "shard-key=" + remoteKeys[0], Payload: feat},
		{ID: 1, Params: "shard-key=" + localKeys[0], Payload: feat},
		{ID: 2, Params: "shard-key=" + remoteKeys[1], Payload: feat},
	}
	before := obs.TakeSnapshot()
	status, got, _ := postBatch(t, bases[0]+fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", target), items)
	after := obs.TakeSnapshot()
	if status != 200 {
		t.Fatalf("outer status %d", status)
	}
	wantStatus := []int{400, 200, 400}
	for i, r := range got {
		if r.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (%s)", i, r.Status, wantStatus[i], r.Payload)
		}
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("shard/retry"); d != 0 {
		t.Errorf("shard/retry delta = %d, want 0 (corruption must not retry)", d)
	}
	if d := delta("shard/peer_err"); d != 1 {
		t.Errorf("shard/peer_err delta = %d, want 1", d)
	}
}

// TestScatterRefusingPeers: an always-5xx peer exhausts the bounded retry
// budget and 503s its items; a peer shedding with 429 passes its refusal
// through per item without any retry.
func TestScatterRefusingPeers(t *testing.T) {
	cases := []struct {
		name        string
		peerStatus  int
		wantStatus  int
		wantRetries int64
	}{
		{"always 503", http.StatusServiceUnavailable, 503, shard.Retries},
		{"peer shed 429", http.StatusTooManyRequests, 429, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := func(w http.ResponseWriter, r *http.Request) { http.Error(w, tc.name, tc.peerStatus) }
			bases, _, _ := shardCluster(t, 2, nil, map[int]http.Handler{1: http.HandlerFunc(fake)})
			f := testField(t)
			target := midTarget(t, f)
			feat := featuresPayload(t, f, target)

			localKeys := keysOwnedBy(t, bases, bases[0], 1)
			remoteKeys := keysOwnedBy(t, bases, bases[1], 1)
			items := []batch.Item{
				{ID: 0, Params: "shard-key=" + localKeys[0], Payload: feat},
				{ID: 1, Params: "shard-key=" + remoteKeys[0], Payload: feat},
			}
			before := obs.TakeSnapshot()
			status, got, _ := postBatch(t, bases[0]+fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", target), items)
			after := obs.TakeSnapshot()
			if status != 200 {
				t.Fatalf("outer status %d", status)
			}
			if got[0].Status != 200 {
				t.Errorf("local item status %d, want 200 (%s)", got[0].Status, got[0].Payload)
			}
			if got[1].Status != tc.wantStatus {
				t.Errorf("remote item status %d, want %d (%s)", got[1].Status, tc.wantStatus, got[1].Payload)
			}
			if d := after.Counters["shard/retry"] - before.Counters["shard/retry"]; d != tc.wantRetries {
				t.Errorf("shard/retry delta = %d, want %d", d, tc.wantRetries)
			}
		})
	}
}

// TestScatterLocalShed: when the entry shard's own rate limit refuses the
// local slice, those items carry per-item 429s while the forwarded items
// still succeed — a local shed never poisons the remote half of the merge.
func TestScatterLocalShed(t *testing.T) {
	bases, _, _ := shardCluster(t, 2, func(i int, c *serve.Config) {
		if i == 0 {
			c.RatePerClient = 0.001 // effectively no refill during the test
			c.RateBurst = 1
		}
	}, nil)
	f := testField(t)
	target := midTarget(t, f)
	feat := featuresPayload(t, f, target)

	localKeys := keysOwnedBy(t, bases, bases[0], 2)
	remoteKeys := keysOwnedBy(t, bases, bases[1], 1)
	items := []batch.Item{
		{ID: 0, Params: "shard-key=" + localKeys[0], Payload: feat},
		{ID: 1, Params: "shard-key=" + remoteKeys[0], Payload: feat},
		{ID: 2, Params: "shard-key=" + localKeys[1], Payload: feat},
	}
	// The 2-item local slice overdraws the burst of 1; the forwarded item is
	// charged at the peer, whose limiter is disabled.
	body := batch.EncodeRequest(items)
	req, _ := http.NewRequest("POST", bases[0]+fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", target), bytes.NewReader(body))
	req.Header.Set(serve.ClientHeader, "shed-client")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("outer status %d — a local shed must stay per-item in scatter mode (%s)", resp.StatusCode, raw)
	}
	got, err := batch.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{429, 200, 429}
	for i, r := range got {
		if r.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (%s)", i, r.Status, wantStatus[i], r.Payload)
		}
	}
}

// TestScatterForwardedMarkerExecutesLocally: a sub-batch carrying the
// forwarded marker executes where it lands, even for keys the ring places
// elsewhere — the loop-prevention contract (all instances agree on owners,
// so re-routing could only bounce forever).
func TestScatterForwardedMarkerExecutesLocally(t *testing.T) {
	bases, _, _ := shardCluster(t, 2, nil, nil)
	f := testField(t)
	target := midTarget(t, f)
	feat := featuresPayload(t, f, target)

	// Keys owned by shard A, posted to shard B with the forwarded marker:
	// B must answer them itself, forwarding nothing.
	keysA := keysOwnedBy(t, bases, bases[0], 2)
	items := []batch.Item{
		{ID: 0, Params: "shard-key=" + keysA[0], Payload: feat},
		{ID: 1, Params: "shard-key=" + keysA[1], Payload: feat},
	}
	body := batch.EncodeRequest(items)
	req, _ := http.NewRequest("POST", bases[1]+fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", target), bytes.NewReader(body))
	req.Header.Set(shard.ForwardedHeader, "1")

	before := obs.TakeSnapshot()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	after := obs.TakeSnapshot()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	got, err := batch.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Status != 200 {
			t.Errorf("item %d status %d: %s", i, r.Status, r.Payload)
		}
	}
	if d := after.Counters["shard/forwarded"] - before.Counters["shard/forwarded"]; d != 0 {
		t.Errorf("shard/forwarded delta = %d, want 0 (marked sub-batches must not re-route)", d)
	}
}

// TestShardHealthzShape pins the /healthz JSON contract a load balancer
// weights shards by: the exact top-level key set, the model census, and
// live cache hit/miss accounting — plus the ring membership block on a
// sharded instance (and its absence on a single instance).
func TestShardHealthzShape(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	feat := featuresPayload(t, f, target)

	// Two estimates against one model: one cold load, one cache hit.
	for i := 0; i < 2; i++ {
		st, body := postSingle(t, fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target), "application/json", feat)
		if st != 200 {
			t.Fatalf("estimate %d status %d: %s", i, st, body)
		}
	}

	fetch := func(url string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := fetch(ts.URL)
	wantKeys := []string{"status", "in_flight", "admission_slots", "classes", "model_count", "model_cache", "resident_models"}
	for _, k := range wantKeys {
		if _, ok := m[k]; !ok {
			t.Errorf("healthz missing %q", k)
		}
	}
	if len(m) != len(wantKeys) {
		t.Errorf("healthz has %d top-level keys, want exactly %d: %v", len(m), len(wantKeys), m)
	}
	var health serve.HealthResponse
	raw, _ := json.Marshal(m)
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	// 5 fixture IDs + corrupt.fxm; README.txt skipped.
	if health.ModelCount != len(modelIDs)+1 {
		t.Errorf("model_count = %d, want %d", health.ModelCount, len(modelIDs)+1)
	}
	if health.ModelCache.Hits != 1 || health.ModelCache.Misses != 1 {
		t.Errorf("model_cache hits/misses = %d/%d, want 1/1", health.ModelCache.Hits, health.ModelCache.Misses)
	}
	if health.ModelCache.Resident != 1 || health.ModelCache.Capacity != 8 {
		t.Errorf("model_cache resident/capacity = %d/%d, want 1/8", health.ModelCache.Resident, health.ModelCache.Capacity)
	}
	if len(health.ResidentModels) != 1 || health.ResidentModels[0] != "nyx-sz" {
		t.Errorf("resident_models = %v, want [nyx-sz]", health.ResidentModels)
	}

	// A sharded instance reports its ring; a single instance has no shard key.
	bases, _, _ := shardCluster(t, 2, nil, nil)
	ms := fetch(bases[0])
	rawShard, ok := ms["shard"]
	if !ok {
		t.Fatal("sharded healthz missing the shard block")
	}
	var ss serve.ShardStatus
	if err := json.Unmarshal(rawShard, &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Self != bases[0] || len(ss.Peers) != 2 {
		t.Errorf("shard block = %+v, want self %s and 2 peers", ss, bases[0])
	}
}
