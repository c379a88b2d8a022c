package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/serve"
)

// postBatch sends items to a -many endpoint and decodes the response
// container. Any non-200 outer status is returned with the body for the
// caller to assert on.
func postBatch(t *testing.T, url string, items []batch.Item) (int, []batch.Result, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(batch.EncodeRequest(items)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return resp.StatusCode, nil, body
	}
	results, err := batch.DecodeResponse(body)
	if err != nil {
		t.Fatalf("decoding response container: %v", err)
	}
	return resp.StatusCode, results, body
}

// postSingle issues the equivalent single-endpoint call and returns its body.
func postSingle(t *testing.T, url, contentType string, payload []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// TestBatchEstimateManyMatchesSingles: every batch item answer must agree
// with the corresponding single /v1/estimate call — all fields exactly,
// except the wall-clock AnalysisMS.
func TestBatchEstimateManyMatchesSingles(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	full, err := trainedFW.EstimateConfig(f, target)
	if err != nil {
		t.Fatal(err)
	}
	ft := fxrz.ExtractFeatures(f, 4)
	featJSON, _ := json.Marshal(serve.FeaturesRequest{
		ValueRange: ft.ValueRange, MeanValue: ft.MeanValue,
		MND: ft.MND, MLD: ft.MLD, MSD: ft.MSD, CARatio: full.NonConstantR,
	})

	// Mixed batch: field-mode and features-mode items, two models, a
	// per-item target override.
	items := []batch.Item{
		{ID: 10, Payload: fb.Bytes()},
		{ID: 11, Payload: featJSON},
		{ID: 12, Params: "model=m0", Payload: fb.Bytes()},
		{ID: 13, Params: fmt.Sprintf("target=%g", target*1.1), Payload: featJSON},
	}
	base := fmt.Sprintf("%s/v1/estimate-many?model=nyx-sz&target=%g", ts.URL, target)
	status, results, _ := postBatch(t, base, items)
	if status != 200 {
		t.Fatalf("outer status %d", status)
	}
	singles := []struct {
		url, ct string
		payload []byte
	}{
		{fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target), "application/octet-stream", fb.Bytes()},
		{fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target), "application/json", featJSON},
		{fmt.Sprintf("%s/v1/estimate?model=m0&target=%g", ts.URL, target), "application/octet-stream", fb.Bytes()},
		{fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target*1.1), "application/json", featJSON},
	}
	for i, r := range results {
		if r.ID != items[i].ID {
			t.Fatalf("result %d echoes ID %d, want %d", i, r.ID, items[i].ID)
		}
		if r.Status != 200 {
			t.Fatalf("item %d status %d: %s", i, r.Status, r.Payload)
		}
		st, want := postSingle(t, singles[i].url, singles[i].ct, singles[i].payload)
		if st != 200 {
			t.Fatalf("single call %d status %d", i, st)
		}
		var a, b serve.EstimateResponse
		if err := json.Unmarshal(r.Payload, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &b); err != nil {
			t.Fatal(err)
		}
		a.AnalysisMS, b.AnalysisMS = 0, 0
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			t.Errorf("item %d diverged from its single call:\n batch: %s\nsingle: %s", i, ab, bb)
		}
	}
}

// TestBatchPackUnpackManyBitIdentical is the acceptance property: a batch of
// N pack (and then unpack) items returns payloads bit-identical to N single
// calls against the same server.
func TestBatchPackUnpackManyBitIdentical(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	var fields []*fxrz.Field
	for _, ver := range []int{1, 2, 3} {
		f, err := datagen.NyxField("baryon_density", 1, ver, 24)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	target := midTarget(t, fields[0])

	packItems := make([]batch.Item, len(fields))
	for i, f := range fields {
		var fb bytes.Buffer
		if err := fieldio.Write(&fb, f); err != nil {
			t.Fatal(err)
		}
		packItems[i] = batch.Item{ID: uint64(i), Payload: fb.Bytes()}
	}
	packURL := fmt.Sprintf("%s/v1/pack-many?model=nyx-sz&target=%g", ts.URL, target)
	status, packed, _ := postBatch(t, packURL, packItems)
	if status != 200 {
		t.Fatalf("pack-many status %d", status)
	}
	singleURL := fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, target)
	for i, r := range packed {
		if r.Status != 200 {
			t.Fatalf("pack item %d status %d: %s", i, r.Status, r.Payload)
		}
		st, want := postSingle(t, singleURL, "application/octet-stream", packItems[i].Payload)
		if st != 200 {
			t.Fatalf("single pack %d status %d", i, st)
		}
		if !bytes.Equal(r.Payload, want) {
			t.Errorf("pack item %d stream is not bit-identical to the single call", i)
		}
	}

	unpackItems := make([]batch.Item, len(packed))
	for i, r := range packed {
		unpackItems[i] = batch.Item{ID: uint64(100 + i), Payload: r.Payload}
	}
	status, unpacked, _ := postBatch(t, ts.URL+"/v1/unpack-many", unpackItems)
	if status != 200 {
		t.Fatalf("unpack-many status %d", status)
	}
	for i, r := range unpacked {
		if r.Status != 200 {
			t.Fatalf("unpack item %d status %d: %s", i, r.Status, r.Payload)
		}
		st, want := postSingle(t, ts.URL+"/v1/unpack", "application/octet-stream", unpackItems[i].Payload)
		if st != 200 {
			t.Fatalf("single unpack %d status %d", i, st)
		}
		if !bytes.Equal(r.Payload, want) {
			t.Errorf("unpack item %d field is not bit-identical to the single call", i)
		}
		g, err := fieldio.Read(bytes.NewReader(r.Payload))
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() != fields[i].Size() {
			t.Errorf("unpack item %d size %d, want %d", i, g.Size(), fields[i].Size())
		}
	}
}

// TestBatchPartialFailure pins the isolation contract: one bad item in a
// batch of N yields N statuses with the N-1 good results bit-identical to
// single calls, while obs records exactly one admission ticket and N item
// outcomes.
func TestBatchPartialFailure(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	items := []batch.Item{
		{ID: 0, Payload: fb.Bytes()},
		{ID: 1, Params: "model=no-such-model", Payload: fb.Bytes()},
		{ID: 2, Payload: fb.Bytes()},
		{ID: 3, Params: "target=bogus", Payload: fb.Bytes()},
		{ID: 4, Payload: []byte("neither a field nor json")},
	}
	before := obs.TakeSnapshot()
	url := fmt.Sprintf("%s/v1/estimate-many?model=nyx-sz&target=%g", ts.URL, target)
	status, results, _ := postBatch(t, url, items)
	after := obs.TakeSnapshot()
	if status != 200 {
		t.Fatalf("outer status %d — partial failure must not fail the batch", status)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	wantStatus := []int{200, 404, 200, 400, 400}
	for i, r := range results {
		if r.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (%s)", i, r.Status, wantStatus[i], r.Payload)
		}
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if got := delta("qos/admitted/estimate"); got != 1 {
		t.Errorf("admissions during the batch = %d, want exactly 1 ticket", got)
	}
	if ok, bad := delta("serve/batch/item_ok/estimate-many"), delta("serve/batch/item_err/estimate-many"); ok != 2 || bad != 3 {
		t.Errorf("item outcomes = %d ok + %d err, want 2 + 3", ok, bad)
	}
	// The good items must answer exactly like their single calls.
	for _, i := range []int{0, 2} {
		st, want := postSingle(t, fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target),
			"application/octet-stream", fb.Bytes())
		if st != 200 {
			t.Fatal("single call failed")
		}
		var a, b serve.EstimateResponse
		if err := json.Unmarshal(results[i].Payload, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &b); err != nil {
			t.Fatal(err)
		}
		a.AnalysisMS, b.AnalysisMS = 0, 0
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			t.Errorf("surviving item %d diverged from its single call", i)
		}
	}
}

// TestBatchUnpackManyBrickStores: brick stores in one ?region= batch — three
// of one geometry, one of another, a truncated one and a 21-byte header that
// claims 2^57 bricks — each answer exactly as the single region unpack of the
// same bytes does: bit-identical on success, a 400 of its own on failure, and
// the hostile header is refused at once rather than walked.
func TestBatchUnpackManyBrickStores(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	store := func(config, ver, size int) []byte {
		f, err := datagen.NyxField("baryon_density", config, ver, size)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := trainedFW.BrickToRatio(f, midTarget(t, f), 8)
		if err != nil {
			t.Fatal(err)
		}
		return st.Marshal()
	}
	hostile := append([]byte("FXRZBRK1\x00\x03"), bytes.Repeat([]byte{0x80, 0x80, 0x40}, 3)...) // dims 2^20 × 3
	hostile = append(hostile, 2, 0)                                                             // side 2, no streams

	const region = "4:20,8:21,2:17"
	items := []batch.Item{
		{ID: 0, Payload: store(1, 1, 24)},
		{ID: 1, Payload: store(1, 2, 24)},
		{ID: 2, Payload: store(1, 3, 24)},
		{ID: 3, Params: "region=0:8,0:8,0:8", Payload: store(2, 9, 16)},
		{ID: 4, Payload: store(1, 1, 24)[:600]},
		{ID: 5, Params: "region=0:1,0:1,0:1", Payload: hostile},
	}
	status, results, _ := postBatch(t, ts.URL+"/v1/unpack-many?region="+region, items)
	if status != 200 {
		t.Fatalf("outer status %d", status)
	}
	for i, r := range results {
		itemRegion := strings.TrimPrefix(items[i].Params, "region=")
		if itemRegion == "" {
			itemRegion = region
		}
		start := time.Now()
		st, want := postSingle(t, ts.URL+"/v1/unpack?region="+itemRegion, "application/octet-stream", items[i].Payload)
		if took := time.Since(start); i == 5 && took > 100*time.Millisecond {
			t.Errorf("the hostile header took %v to refuse", took)
		}
		wantStatus := 200
		if i >= 4 {
			wantStatus = 400
		}
		if st != wantStatus || r.Status != wantStatus {
			t.Fatalf("item %d: single call %d, batch item %d (%s), want %d", i, st, r.Status, r.Payload, wantStatus)
		}
		if wantStatus == 200 && !bytes.Equal(r.Payload, want) {
			t.Errorf("item %d region read diverged from the single call", i)
		}
	}
}

// TestBatchLimits covers the request-level refusals: an over-MaxBatch batch
// gets 413, a malformed container 400, and both carry JSON error envelopes.
func TestBatchLimits(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) { c.MaxBatch = 3 })
	items := make([]batch.Item, 4)
	for i := range items {
		items[i] = batch.Item{ID: uint64(i), Payload: []byte("x")}
	}
	status, _, body := postBatch(t, ts.URL+"/v1/estimate-many?model=nyx-sz&target=8", items)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413 (%s)", status, body)
	}
	if !strings.Contains(string(body), "split") {
		t.Errorf("413 body does not tell the client to split: %s", body)
	}
	st, body := postSingle(t, ts.URL+"/v1/unpack-many", "application/octet-stream", []byte("not a container"))
	if st != http.StatusBadRequest {
		t.Errorf("garbage container status %d, want 400 (%s)", st, body)
	}
	mut := batch.EncodeRequest(items[:2])
	mut[len(mut)-1] ^= 0xFF // break the trailing CRC
	st, body = postSingle(t, ts.URL+"/v1/unpack-many", "application/octet-stream", mut)
	if st != http.StatusBadRequest {
		t.Errorf("corrupt container status %d, want 400 (%s)", st, body)
	}

	// A batch over the body cap is refused like an oversized single call:
	// 413, and the Connection: close hint that the unread rest of the body
	// will not be drained (the client surfaces it as resp.Close).
	capped, _ := newTestServer(t, func(c *serve.Config) { c.MaxBodyBytes = 64 })
	big := batch.EncodeRequest([]batch.Item{{ID: 1, Payload: bytes.Repeat([]byte("x"), 4096)}})
	resp, err := http.Post(capped.URL+"/v1/unpack-many", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap batch status %d, want 413", resp.StatusCode)
	}
	if !resp.Close {
		t.Error("over-cap batch: 413 without the Connection: close hint")
	}
}

// TestBatchRateLimitChargesPerItem: a batch draws one token per item, so it
// cannot bypass the per-client limit by arriving as one request.
func TestBatchRateLimitChargesPerItem(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) {
		c.RatePerClient = 0.001 // effectively no refill during the test
		c.RateBurst = 4
	})
	f := testField(t)
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	mkItems := func(n int) []batch.Item {
		items := make([]batch.Item, n)
		for i := range items {
			items[i] = batch.Item{ID: uint64(i), Payload: fb.Bytes()}
		}
		return items
	}
	url := fmt.Sprintf("%s/v1/estimate-many?model=nyx-sz&target=%g", ts.URL, midTarget(t, f))
	req := func(n int) (int, string) {
		body := batch.EncodeRequest(mkItems(n))
		hreq, _ := http.NewRequest("POST", url, bytes.NewReader(body))
		hreq.Header.Set(serve.ClientHeader, "batch-client")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	// Burst 4: a 3-item batch passes, then a 2-item batch must be refused
	// (1 token left) with a Retry-After, all-or-nothing.
	if st, _ := req(3); st != 200 {
		t.Fatalf("first batch status %d", st)
	}
	st, retry := req(2)
	if st != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch status %d, want 429", st)
	}
	if retry == "" {
		t.Error("429 without a Retry-After header")
	}
}

// TestBatchOverloadShed: a batch whose admission cost exceeds the free slots
// is shed whole with 429 — no partial ticket, no queueing.
func TestBatchOverloadShed(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) { c.MaxInFlight = 2 })
	f := testField(t)
	target := midTarget(t, f)

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(
			fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, target),
			"application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != 200 {
				err = fmt.Errorf("slot holder status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		done <- err
	}()
	waitInFlight(t, ts.URL, 1)

	// Capacity 2 with 1 slot held: a 16-item estimate batch needs
	// ceil(16/8) = 2 slots and must be shed whole.
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	items := make([]batch.Item, 16)
	for i := range items {
		items[i] = batch.Item{ID: uint64(i), Payload: fb.Bytes()}
	}
	status, _, body := postBatch(t,
		fmt.Sprintf("%s/v1/estimate-many?model=nyx-sz&target=%g", ts.URL, target), items)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", status, body)
	}

	// A batch within the single free slot still goes through.
	status, results, _ := postBatch(t,
		fmt.Sprintf("%s/v1/estimate-many?model=nyx-sz&target=%g", ts.URL, target), items[:8])
	if status != 200 {
		t.Fatalf("1-slot batch status %d while a slot is free", status)
	}
	for i, r := range results {
		if r.Status != 200 {
			t.Errorf("item %d status %d", i, r.Status)
		}
	}

	var buf bytes.Buffer
	if err := fieldio.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(pw, &buf); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
