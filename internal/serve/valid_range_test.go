package serve_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/serve"
)

// savedModel mirrors the gob record behind a model file (gob matches fields
// by name), so a test can persist variants of the fixture model that Train
// never produces.
type savedModel struct {
	Cfg              fxrz.Config
	AxisKind         int
	AxisMin, AxisMax float64
	Compressor       string
	Forest           []byte
	RatioLo, RatioHi float64
	Stats            fxrz.TrainStats
}

const modelMagic = "FXRZMODEL1"

// writeModelVariant rewrites the fixture model under a new id.
func writeModelVariant(t *testing.T, dir, id string, mutate func(*savedModel)) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(modelsDir, "nyx-sz.fxm"))
	if err != nil {
		t.Fatal(err)
	}
	var m savedModel
	if err := gob.NewDecoder(bytes.NewReader(raw[len(modelMagic):])).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	out := bytes.NewBufferString(modelMagic)
	if err := gob.NewEncoder(out).Encode(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".fxm"), out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateScansFieldOnce pins the cost and the answer of a field-mode
// estimate: the CA scan runs once per analysed field — the valid range comes
// from the R the estimate measured, not from a second pass — and the range
// in the reply is ValidRatioRange's, bit for bit, with CA on, CA off and a
// hull persisted inverted. A pack scans once too.
func TestEstimateScansFieldOnce(t *testing.T) {
	dir := t.TempDir()
	writeModelVariant(t, dir, "ca-on", func(*savedModel) {})
	writeModelVariant(t, dir, "ca-off", func(m *savedModel) { m.Cfg.UseCA = false })
	writeModelVariant(t, dir, "inverted", func(m *savedModel) { m.RatioLo, m.RatioHi = m.RatioHi, m.RatioLo })
	ts, _ := newTestServer(t, func(c *serve.Config) { c.ModelsDir = dir })

	f := testField(t)
	var fb bytes.Buffer
	if err := fieldio.Write(&fb, f); err != nil {
		t.Fatal(err)
	}
	target := midTarget(t, f)
	scans := func() int64 { return obs.TakeSnapshot().Spans["ca/scan"].Count }

	for _, tc := range []struct {
		id        string
		wantScans int64
	}{{"ca-on", 1}, {"ca-off", 0}, {"inverted", 1}} {
		mf, err := os.Open(filepath.Join(dir, tc.id+".fxm"))
		if err != nil {
			t.Fatal(err)
		}
		fw, err := fxrz.Load(mf)
		mf.Close()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := fw.ValidRatioRange(f)
		if !(lo <= hi) {
			t.Fatalf("%s: ValidRatioRange = [%v, %v]", tc.id, lo, hi)
		}
		query := fmt.Sprintf("?model=%s&target=%g", tc.id, target)
		check := func(wire string, body []byte) {
			t.Helper()
			var er serve.EstimateResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("%s %s: %v (%s)", tc.id, wire, err, body)
			}
			if len(er.ValidRange) != 2 ||
				math.Float64bits(er.ValidRange[0]) != math.Float64bits(lo) ||
				math.Float64bits(er.ValidRange[1]) != math.Float64bits(hi) {
				t.Errorf("%s %s: valid_ratio_range = %v, ValidRatioRange = [%v %v]", tc.id, wire, er.ValidRange, lo, hi)
			}
		}

		before := scans()
		st, body := postSingle(t, ts.URL+"/v1/estimate"+query, "application/octet-stream", fb.Bytes())
		if st != 200 {
			t.Fatalf("%s estimate: status %d (%s)", tc.id, st, body)
		}
		if d := scans() - before; d != tc.wantScans {
			t.Errorf("%s: one /v1/estimate recorded %d ca/scan spans, want %d", tc.id, d, tc.wantScans)
		}
		check("single", body)

		before = scans()
		st, results, raw := postBatch(t, ts.URL+"/v1/estimate-many"+query, []batch.Item{{Payload: fb.Bytes()}})
		if st != 200 || len(results) != 1 || results[0].Status != 200 {
			t.Fatalf("%s estimate-many: status %d (%s)", tc.id, st, raw)
		}
		if d := scans() - before; d != tc.wantScans {
			t.Errorf("%s: a one-item /v1/estimate-many recorded %d ca/scan spans, want %d", tc.id, d, tc.wantScans)
		}
		check("batch item", results[0].Payload)

		before = scans()
		if st, body := postSingle(t, ts.URL+"/v1/pack"+query, "application/octet-stream", fb.Bytes()); st != 200 {
			t.Fatalf("%s pack: status %d (%s)", tc.id, st, body)
		}
		if d := scans() - before; d != tc.wantScans {
			t.Errorf("%s: one /v1/pack recorded %d ca/scan spans, want %d", tc.id, d, tc.wantScans)
		}
	}
}
