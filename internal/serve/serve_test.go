package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/serve"
	"github.com/fxrz-go/fxrz/internal/shard"
)

// The fixture: one quick SZ model trained in TestMain, saved under several
// IDs so cache-eviction tests have distinct models to rotate through.
var (
	modelsDir string
	trainedFW *fxrz.Framework
)

// modelIDs are the fixture's registered model IDs (all the same forest).
var modelIDs = []string{"nyx-sz", "m0", "m1", "m2", "m3"}

func TestMain(m *testing.M) {
	obs.Enable()
	code, err := buildFixtureAndRun(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve fixture:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func buildFixtureAndRun(m *testing.M) (int, error) {
	dir, err := os.MkdirTemp("", "fxrzd-models-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	modelsDir = dir

	var fields []*fxrz.Field
	for _, ts := range []int{1, 3, 5} {
		f, err := datagen.NyxField("baryon_density", 1, ts, 24)
		if err != nil {
			return 0, err
		}
		fields = append(fields, f)
	}
	cfg := fxrz.DefaultConfig()
	cfg.StationaryPoints = 10
	cfg.AugmentPerField = 50
	cfg.Trees = 25
	trainedFW, err = fxrz.Train(fxrz.NewSZ(), fields, cfg)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := trainedFW.Save(&buf); err != nil {
		return 0, err
	}
	for _, id := range modelIDs {
		if err := os.WriteFile(filepath.Join(dir, id+".fxm"), buf.Bytes(), 0o644); err != nil {
			return 0, err
		}
	}
	// A non-model file the registry must skip, and a corrupt model it must
	// refuse to serve.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a model"), 0o644); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.fxm"), []byte("FXRZMODEL1 nope"), 0o644); err != nil {
		return 0, err
	}
	return m.Run(), nil
}

func testField(t *testing.T) *fxrz.Field {
	t.Helper()
	f, err := datagen.NyxField("baryon_density", 2, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// midTarget picks a target ratio comfortably inside the model's valid range.
func midTarget(t *testing.T, f *fxrz.Field) float64 {
	t.Helper()
	lo, hi := trainedFW.ValidRatioRange(f)
	if !(hi > lo) {
		t.Fatalf("invalid ratio range [%v, %v]", lo, hi)
	}
	return lo + 0.5*(hi-lo)
}

// newTestServer starts an httptest server over a fresh serve.Server.
func newTestServer(t *testing.T, mutate func(*serve.Config)) (*httptest.Server, *serve.Server) {
	t.Helper()
	cfg := serve.Config{ModelsDir: modelsDir}
	if mutate != nil {
		mutate(&cfg)
	}
	s := serve.NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// fieldBody serialises f as an fxrzfield container.
func fieldBody(t *testing.T, f *fxrz.Field) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := fieldio.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEstimateFieldMode(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)

	resp, err := http.Post(
		fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	er := decodeJSON[serve.EstimateResponse](t, resp.Body)
	if er.Compressor != "sz" || er.Model != "nyx-sz" {
		t.Errorf("identity = %q/%q", er.Model, er.Compressor)
	}
	// The endpoint must agree exactly with a direct library call: same
	// model, same field, deterministic inference.
	want, err := trainedFW.EstimateConfig(f, target)
	if err != nil {
		t.Fatal(err)
	}
	if er.Knob != want.Knob {
		t.Errorf("knob = %v, direct call = %v", er.Knob, want.Knob)
	}
	if er.NonConstantR != want.NonConstantR || er.AdjustedRatio != want.AdjustedRatio {
		t.Errorf("analysis = (%v, %v), direct = (%v, %v)",
			er.NonConstantR, er.AdjustedRatio, want.NonConstantR, want.AdjustedRatio)
	}
	if len(er.ValidRange) != 2 || !(er.ValidRange[1] > er.ValidRange[0]) {
		t.Errorf("valid range = %v", er.ValidRange)
	}
}

func TestEstimateFeaturesMode(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)
	full, err := trainedFW.EstimateConfig(f, target)
	if err != nil {
		t.Fatal(err)
	}
	ft := fxrz.ExtractFeatures(f, 4)
	body, _ := json.Marshal(serve.FeaturesRequest{
		ValueRange: ft.ValueRange, MeanValue: ft.MeanValue,
		MND: ft.MND, MLD: ft.MLD, MSD: ft.MSD,
		CARatio: full.NonConstantR,
	})
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	er := decodeJSON[serve.EstimateResponse](t, resp.Body)
	// Features + the same CA ratio reproduce the full analysis exactly.
	if er.Knob != full.Knob {
		t.Errorf("features-mode knob = %v, field-mode = %v", er.Knob, full.Knob)
	}
	if er.ValidRange != nil {
		t.Errorf("features mode reported a field-dependent valid range: %v", er.ValidRange)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	target := midTarget(t, f)

	resp, err := http.Post(
		fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, target),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pack status %d: %s", resp.StatusCode, blob)
	}
	knob, err := strconv.ParseFloat(resp.Header.Get("X-Fxrz-Knob"), 64)
	if err != nil || !(knob > 0) {
		t.Fatalf("X-Fxrz-Knob = %q (%v)", resp.Header.Get("X-Fxrz-Knob"), err)
	}
	if got := resp.Header.Get("X-Fxrz-Compressor"); got != "sz" {
		t.Errorf("X-Fxrz-Compressor = %q", got)
	}
	// The served stream is exactly what the library produces.
	wantBlob, est, err := trainedFW.CompressToRatio(f, target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantBlob) {
		t.Error("served stream differs from direct CompressToRatio stream")
	}
	if knob != est.Knob {
		t.Errorf("served knob %v, direct %v", knob, est.Knob)
	}

	resp2, err := http.Post(ts.URL+"/v1/unpack", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		b, _ := io.ReadAll(resp2.Body)
		t.Fatalf("unpack status %d: %s", resp2.StatusCode, b)
	}
	g, err := fieldio.Read(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Served reconstruction is bit-identical to the library's.
	want, err := fxrz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(g.Data[i]) {
			t.Fatalf("sample %d differs", i)
		}
	}
	// And honors the error bound end to end.
	maxErr, err := fxrz.MaxAbsError(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > knob*(1+1e-6) {
		t.Errorf("round-trip error %g exceeds knob %g", maxErr, knob)
	}
}

// TestUnpackRegion drives the unpack endpoint's region parameter: a regioned
// response must carry exactly the requested subvolume of the full
// reconstruction, for raw and indexed streams alike, and malformed or
// out-of-bounds regions must come back 400.
func TestUnpackRegion(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	blob, _, err := trainedFW.CompressToRatio(f, midTarget(t, f))
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := fxrz.IndexBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fxrz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{4, 8, 2}, []int{20, 21, 17}
	for _, src := range []struct {
		kind string
		blob []byte
	}{{"raw", blob}, {"indexed", indexed}} {
		resp, err := http.Post(ts.URL+"/v1/unpack?region=4:20,8:21,2:17",
			"application/octet-stream", bytes.NewReader(src.blob))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", src.kind, resp.StatusCode, body)
		}
		g, err := fieldio.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Dims) != 3 || g.Dims[0] != 16 || g.Dims[1] != 13 || g.Dims[2] != 15 {
			t.Fatalf("%s: region dims = %v, want [16 13 15]", src.kind, g.Dims)
		}
		i := 0
		for z := lo[0]; z < hi[0]; z++ {
			for y := lo[1]; y < hi[1]; y++ {
				for x := lo[2]; x < hi[2]; x++ {
					if math.Float32bits(g.Data[i]) != math.Float32bits(full.Data[full.Index(z, y, x)]) {
						t.Fatalf("%s: region sample (%d,%d,%d) differs from full decode", src.kind, z, y, x)
					}
					i++
				}
			}
		}
	}
	for _, bad := range []string{"garbage", "0:5", "0:99,0:99,0:99"} {
		resp, err := http.Post(ts.URL+"/v1/unpack?region="+bad,
			"application/octet-stream", bytes.NewReader(indexed))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("region %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestModelsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	// Load one model so the listing distinguishes resident from cold.
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, midTarget(t, f)),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mr := decodeJSON[serve.ModelsResponse](t, resp.Body)
	// 5 fixture IDs + corrupt.fxm; README.txt skipped.
	if len(mr.Models) != len(modelIDs)+1 {
		t.Fatalf("listed %d models: %+v", len(mr.Models), mr.Models)
	}
	byID := map[string]serve.ModelInfo{}
	for _, mi := range mr.Models {
		byID[mi.ID] = mi
	}
	if mi := byID["nyx-sz"]; !mi.Loaded || mi.Compressor != "sz" || mi.SizeBytes <= 0 {
		t.Errorf("nyx-sz info = %+v", mi)
	}
	if mi := byID["m0"]; mi.Loaded {
		t.Errorf("m0 unexpectedly resident: %+v", mi)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, midTarget(t, f)),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	health := decodeJSON[serve.HealthResponse](t, hr.Body)
	if health.Status != "ok" || health.AdmissionSlots < 1 {
		t.Errorf("health = %+v", health)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	snap := decodeJSON[obs.Snapshot](t, mr.Body)
	if snap.Counters["serve/requests/pack"] < 1 {
		t.Errorf("pack request counter = %d", snap.Counters["serve/requests/pack"])
	}
	st, ok := snap.Spans["serve/latency/pack"]
	if !ok || st.Count < 1 {
		t.Fatalf("pack latency histogram missing: %+v", st)
	}
	if !(st.P99MS > 0) || st.P99MS < st.P50MS {
		t.Errorf("latency percentiles implausible: p50=%v p99=%v", st.P50MS, st.P99MS)
	}
}

// TestRejectionsWireParity runs every rejection through both wires — the
// single call and a one-item batch of the same payload — and requires the
// same status and the same message (the single's JSON envelope against the
// item's payload): there is one pipeline, so there is one answer.
func TestRejectionsWireParity(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	mt := fmt.Sprintf("model=nyx-sz&target=%g", midTarget(t, f))
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	field := fb.Bytes()
	cases := []struct {
		name, op, query, ctype string
		body                   []byte
		deadlineUS             string // X-Fxrz-Deadline-Us, when set
		want                   int
		wantMsg                string // substring of the message
	}{
		{"unknown model", "estimate", "model=ghost&target=8", "application/octet-stream", field, "", 404, "unknown model"},
		{"traversal id", "estimate", "model=..%2F..%2Fetc&target=8", "application/octet-stream", field, "", 400, "invalid model id"},
		{"missing target", "estimate", "model=nyx-sz", "application/octet-stream", field, "", 400, `"target"`},
		{"bad target", "estimate", "model=nyx-sz&target=-5", "application/octet-stream", field, "", 400, "positive ratio"},
		{"garbage field", "pack", mt, "application/octet-stream", []byte("not a field\n"), "", 400, "not an fxrzfield container"},
		{"headerless field", "pack", mt, "application/octet-stream", []byte("not a field"), "", 400, "fieldio: reading header"},
		{"hostile field header", "pack", mt, "application/octet-stream", []byte(hostileHeader), "", 400, "fieldio: reading 274877906944 samples"},
		{"corrupt model file", "estimate", "model=corrupt&target=8", "application/octet-stream", field, "", 500, "loading model"},
		{"corrupt unpack blob", "unpack", "", "application/octet-stream", []byte{0x5A, 0x01, 0x02}, "", 400, "bad request"},
		{"bad region", "unpack", "region=garbage", "application/octet-stream", []byte{0x5A, 0x01, 0x02}, "", 400, "bad request"},
		{"bad features json", "estimate", mt, "application/json", []byte("{nope"), "", 400, "decoding features"},
		// Content-Type is advisory: a body that is not a field is features
		// JSON whatever its label says.
		{"garbage estimate body", "estimate", mt, "application/octet-stream", []byte("neither"), "", 400, "decoding features"},
		// One deadline rule: a forwarded X-Fxrz-Deadline-Us clamps the budget
		// on both wires, and the clock runs while the body arrives (do holds
		// the body back for 20 ms against this 1 ms budget).
		{"expired deadline", "pack", mt, "application/octet-stream", field, "1000", 503, "deadline exceeded"},
	}
	do := func(url, ctype, deadlineUS string, body []byte) (int, []byte) {
		t.Helper()
		var rd io.Reader = bytes.NewReader(body)
		if deadlineUS != "" {
			pr, pw := io.Pipe()
			time.AfterFunc(20*time.Millisecond, func() {
				pw.Write(body)
				pw.Close()
			})
			rd = pr
		}
		req, err := http.NewRequest("POST", url, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		if deadlineUS != "" {
			req.Header.Set(shard.DeadlineHeader, deadlineUS)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	for _, tc := range cases {
		status, raw := do(ts.URL+"/v1/"+tc.op+"?"+tc.query, tc.ctype, tc.deadlineUS, tc.body)
		var apiErr struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Error == "" {
			t.Errorf("%s: single call: missing error envelope in %q", tc.name, raw)
		}
		if status != tc.want || !strings.Contains(apiErr.Error, tc.wantMsg) {
			t.Errorf("%s: single call: status %d %q, want %d containing %q", tc.name, status, apiErr.Error, tc.want, tc.wantMsg)
		}
		outer, raw := do(ts.URL+"/v1/"+tc.op+"-many?"+tc.query, "application/octet-stream", tc.deadlineUS,
			batch.EncodeRequest([]batch.Item{{ID: 7, Payload: tc.body}}))
		if outer != 200 {
			t.Errorf("%s: one-item batch: outer status %d (%s)", tc.name, outer, raw)
			continue
		}
		results, err := batch.DecodeResponse(raw)
		if err != nil || len(results) != 1 {
			t.Fatalf("%s: one-item batch: %d results, err %v", tc.name, len(results), err)
		}
		if results[0].Status != status || string(results[0].Payload) != apiErr.Error {
			t.Errorf("%s: wires disagree:\n single: %d %q\n  batch: %d %q",
				tc.name, status, apiErr.Error, results[0].Status, results[0].Payload)
		}
	}
}

// hostileHeader is a complete 27-byte request body: legal dims describing a
// 2³⁸-sample (1 TiB) field, and no samples.
const hostileHeader = "fxrzfield x 65536 65536 64\n"

// TestHostileFieldHeader: the 27-byte body must be a 400 naming fieldio on
// every wire that parses a field, a healthy neighbour in the same batch must
// still be served, and — the point — the process must live to say so. At
// the parent of this change each of these requests killed the daemon with an
// unrecoverable out-of-memory fault.
func TestHostileFieldHeader(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	query := fmt.Sprintf("?model=nyx-sz&target=%g", midTarget(t, f))
	for _, op := range []string{"estimate", "pack"} {
		st, body := postSingle(t, ts.URL+"/v1/"+op+query, "application/octet-stream", []byte(hostileHeader))
		if st != 400 || !strings.Contains(string(body), "fieldio:") {
			t.Errorf("%s: status %d (%s), want 400 with a fieldio: message", op, st, body)
		}
	}
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	st, results, raw := postBatch(t, ts.URL+"/v1/estimate-many"+query, []batch.Item{
		{ID: 1, Payload: []byte(hostileHeader)},
		{ID: 2, Payload: fb.Bytes()},
	})
	if st != 200 {
		t.Fatalf("estimate-many outer status %d (%s)", st, raw)
	}
	if r := results[0]; r.Status != 400 || !strings.Contains(string(r.Payload), "fieldio:") {
		t.Errorf("hostile item: status %d (%s), want 400 with a fieldio: message", r.Status, r.Payload)
	}
	if r := results[1]; r.Status != 200 {
		t.Errorf("its neighbour: status %d (%s), want 200", r.Status, r.Payload)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("server did not survive: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestWireParityCounters pins what one request costs in the books: a single
// call is one admission ticket and one request count under its own route
// name and touches no serve/batch/* counter, and all eight routes keep the
// counter and span names dashboards already read.
func TestWireParityCounters(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	f := testField(t)
	query := fmt.Sprintf("?model=nyx-sz&target=%g", midTarget(t, f))
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	blob, _, err := trainedFW.CompressToRatio(f, midTarget(t, f))
	if err != nil {
		t.Fatal(err)
	}
	payload := map[string][]byte{"estimate": fb.Bytes(), "pack": fb.Bytes(), "unpack": blob}
	delta := func(before, after *obs.Snapshot, name string) int64 {
		return after.Counters[name] - before.Counters[name]
	}
	// The latency span closes after the handler returns, which for a reply
	// larger than net/http's write buffer is after the client has it: wait
	// for the span rather than race it.
	wantOneSpan := func(route string, before *obs.Snapshot) {
		t.Helper()
		name := "serve/latency/" + route
		var d int64
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if d = obs.TakeSnapshot().Spans[name].Count - before.Spans[name].Count; d >= 1 {
				break
			}
		}
		if d != 1 {
			t.Errorf("one %s call recorded %d %s spans, want 1", route, d, name)
		}
	}
	batchCounters := func(s *obs.Snapshot) (n int64) {
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "serve/batch/") {
				n += v
			}
		}
		return n
	}

	for _, op := range []string{"estimate", "pack", "unpack"} {
		before := obs.TakeSnapshot()
		if st, body := postSingle(t, ts.URL+"/v1/"+op+query, "application/octet-stream", payload[op]); st != 200 {
			t.Fatalf("%s: status %d (%s)", op, st, body)
		}
		after := obs.TakeSnapshot()
		for _, name := range []string{"qos/admitted/" + op, "serve/requests/" + op} {
			if d := delta(before, after, name); d != 1 {
				t.Errorf("one %s call moved %s by %d, want 1", op, name, d)
			}
		}
		if d := batchCounters(after) - batchCounters(before); d != 0 {
			t.Errorf("one %s call moved serve/batch/* by %d, want 0", op, d)
		}
		wantOneSpan(op, before)

		before = after
		route := op + "-many"
		if st, _, body := postBatch(t, ts.URL+"/v1/"+route+query, []batch.Item{{Payload: payload[op]}, {Payload: payload[op]}}); st != 200 {
			t.Fatalf("%s: status %d (%s)", route, st, body)
		}
		after = obs.TakeSnapshot()
		for name, want := range map[string]int64{
			"qos/admitted/" + op: 1, "serve/requests/" + route: 1, "serve/requests/" + op: 0,
			"serve/batch/items/" + route: 2, "serve/batch/item_ok/" + route: 2, "serve/batch/item_err/" + route: 0,
		} {
			if d := delta(before, after, name); d != want {
				t.Errorf("one 2-item %s call moved %s by %d, want %d", route, name, d, want)
			}
		}
		wantOneSpan(route, before)
	}
	for path, route := range map[string]string{"/v1/models": "models", "/healthz": "healthz"} {
		before := obs.TakeSnapshot()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		after := obs.TakeSnapshot()
		if d := delta(before, after, "serve/requests/"+route); d != 1 {
			t.Errorf("GET %s moved serve/requests/%s by %d, want 1", path, route, d)
		}
		wantOneSpan(route, before)
	}
}

func TestBodyCap413(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) { c.MaxBodyBytes = 64 })
	f := testField(t)
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, midTarget(t, f)),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, body)
	}
	// The rest of the oversized body is not going to be read: the server says
	// so (Connection: close, which the client surfaces as resp.Close).
	if !resp.Close {
		t.Error("413 without the Connection: close hint")
	}
}

func TestTimeout503(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) { c.Timeout = time.Nanosecond })
	f := testField(t)
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, midTarget(t, f)),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
}

// TestOverload429 holds the single admission slot with a request whose body
// never finishes arriving, then checks that the next request is shed with
// 429 (and a Retry-After) instead of queueing, and that the slot-holder
// still completes once its body lands.
func TestOverload429(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) { c.MaxInFlight = 1 })
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
	// Wait until the slot holder is admitted (visible through /healthz).
	waitInFlight(t, ts.URL, 1)

	resp, err := http.Post(
		fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target),
		"application/octet-stream", fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("overload 429 Retry-After = %q, want the fixed \"1\"", got)
	}

	// Deliver the held request's body; it must complete normally.
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

// TestStalledBodyRefusedBeforeRead pins the one ordering the two wires do
// not share: a single call's item count is known before its body, so it is
// charged first — a call over its client's rate limit, and a call on a full
// class, are answered 429 while their bodies never arrive, and neither takes
// a slot. (A batch cannot be: its count is inside the body.)
func TestStalledBodyRefusedBeforeRead(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) {
		c.MaxInFlight = 1
		c.RatePerClient = 0.001 // effectively no refill during the test
		c.RateBurst = 1
	})
	f := testField(t)
	url := fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, midTarget(t, f))

	// stalled posts a pack whose body never arrives and returns the reply,
	// which must come anyway.
	stalled := func(client string) *http.Response {
		t.Helper()
		pr, pw := io.Pipe()
		t.Cleanup(func() { pw.Close() })
		req, err := http.NewRequest("POST", url, pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.ClientHeader, client)
		type reply struct {
			resp *http.Response
			err  error
		}
		got := make(chan reply, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			got <- reply{resp, err}
		}()
		select {
		case r := <-got:
			if r.err != nil {
				t.Fatal(r.err)
			}
			t.Cleanup(func() { r.resp.Body.Close() })
			if !r.resp.Close {
				t.Error("refusal of an unread body without the Connection: close hint")
			}
			return r.resp
		case <-time.After(5 * time.Second):
			t.Fatal("no reply while the body is stalled: the refusal waited for the body")
			return nil
		}
	}

	// Rate limit: the client's one token goes to a complete request; its next
	// call is refused on arrival, with the bucket's refill time.
	if st, body := postSingleAs(t, url, "limited", fieldBytes(t, f)); st != 200 {
		t.Fatalf("first call status %d (%s)", st, body)
	}
	resp := stalled("limited")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After") == "1" {
		t.Errorf("stalled call over its rate limit: status %d, Retry-After %q; want 429 with the refill time",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Overload: another client's stalled call is admitted and holds the only
	// slot (nothing has answered it, so it is run in the background); the
	// next stalled call finds the class full.
	pr, pw := io.Pipe()
	holder := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", url, pr)
		req.Header.Set(serve.ClientHeader, "holder")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("slot holder status %d", resp.StatusCode)
			}
		}
		holder <- err
	}()
	waitInFlight(t, ts.URL, 1)
	resp = stalled("crowded")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("stalled call on a full class: status %d, Retry-After %q; want 429 and \"1\"",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if h := healthz(t, ts.URL); h.InFlight != 1 {
		t.Errorf("in flight after two refusals = %d, want 1 (the holder alone)", h.InFlight)
	}
	if _, err := pw.Write(fieldBytes(t, f)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
}

// fieldBytes is fieldBody's bytes.
func fieldBytes(t *testing.T, f *fxrz.Field) []byte {
	t.Helper()
	b, err := io.ReadAll(fieldBody(t, f))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postSingleAs is postSingle under a client identity.
func postSingleAs(t *testing.T, url, client string, payload []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.ClientHeader, client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func healthz(t *testing.T, url string) serve.HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeJSON[serve.HealthResponse](t, resp.Body)
}

// waitInFlight polls /healthz until the reported in-flight count reaches n.
func waitInFlight(t *testing.T, url string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if healthz(t, url).InFlight >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timed out waiting for request admission")
}

// TestGracefulShutdownDrain starts a request whose body is still in flight,
// initiates Shutdown, and verifies the server waits for the request to
// complete (with a correct response) before Shutdown returns.
func TestGracefulShutdownDrain(t *testing.T) {
	cfg := serve.Config{ModelsDir: modelsDir}
	s := serve.NewServer(cfg)
	srv := httptest.NewServer(s.Handler())
	// No t.Cleanup(srv.Close): the test ends with the server shut down.

	f := testField(t)
	target := midTarget(t, f)
	pr, pw := io.Pipe()
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(
			fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", srv.URL, target),
			"application/octet-stream", pr)
		if err == nil {
			blob, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("drained request status %d: %s", resp.StatusCode, blob)
			} else if _, derr := fxrz.Decompress(blob); derr != nil {
				err = fmt.Errorf("drained request returned corrupt stream: %w", derr)
			}
		}
		reqDone <- err
	}()
	waitInFlight(t, srv.URL, 1)

	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Config.Shutdown(context.Background()) }()

	// The in-flight request must not have been killed by Shutdown: give the
	// drain a moment, then complete the body.
	select {
	case err := <-reqDone:
		t.Fatalf("request finished before its body arrived: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	var buf bytes.Buffer
	if err := fieldio.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(pw, &buf); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request not drained cleanly: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeConcurrentClients hammers a small-capacity server with mixed
// estimate/pack/unpack clients under -race: every request must end in a
// correct result or a clean 429 (which the client retries), never a panic,
// a corrupt stream, or a wrong reconstruction.
func TestServeConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t, func(c *serve.Config) { c.MaxInFlight = 2 })
	f := testField(t)
	target := midTarget(t, f)
	wantBlob, est, err := trainedFW.CompressToRatio(f, target)
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := fxrz.Decompress(wantBlob)
	if err != nil {
		t.Fatal(err)
	}

	var fieldBytes bytes.Buffer
	if err := fieldio.Write(&fieldBytes, f); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			errs <- func() error {
				for attempt := 0; attempt < 100; attempt++ {
					var resp *http.Response
					var err error
					switch i % 3 {
					case 0: // estimate
						resp, err = http.Post(
							fmt.Sprintf("%s/v1/estimate?model=nyx-sz&target=%g", ts.URL, target),
							"application/octet-stream", bytes.NewReader(fieldBytes.Bytes()))
					case 1: // pack
						resp, err = http.Post(
							fmt.Sprintf("%s/v1/pack?model=nyx-sz&target=%g", ts.URL, target),
							"application/octet-stream", bytes.NewReader(fieldBytes.Bytes()))
					default: // unpack
						resp, err = http.Post(ts.URL+"/v1/unpack",
							"application/octet-stream", bytes.NewReader(wantBlob))
					}
					if err != nil {
						return err
					}
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						return rerr
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(time.Duration(1+i) * time.Millisecond)
						continue
					}
					if resp.StatusCode != 200 {
						return fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
					}
					switch i % 3 {
					case 0:
						var er serve.EstimateResponse
						if err := json.Unmarshal(body, &er); err != nil {
							return err
						}
						if er.Knob != est.Knob {
							return fmt.Errorf("client %d: knob %v, want %v", i, er.Knob, est.Knob)
						}
					case 1:
						if !bytes.Equal(body, wantBlob) {
							return fmt.Errorf("client %d: served stream differs", i)
						}
					default:
						g, err := fieldio.Read(bytes.NewReader(body))
						if err != nil {
							return err
						}
						for j := range wantRec.Data {
							if math.Float32bits(wantRec.Data[j]) != math.Float32bits(g.Data[j]) {
								return fmt.Errorf("client %d: sample %d differs", i, j)
							}
						}
					}
					return nil
				}
				return fmt.Errorf("client %d: starved by 429s", i)
			}()
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
