// The endpoint table: the three operations fxrzd serves, one row each. A row
// is everything the request pipeline (pipeline.go) needs to know about an
// operation; the pipeline itself never asks which one it is running.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// endpoint is one operation, mounted as POST /v1/<name> (the body is the one
// item) and POST /v1/<name>-many (the body is a batch container of items).
type endpoint struct {
	name   string
	class  int // its QoS class: the index in the qos.Controller, lower = higher priority
	weight int // the class's share of the reserved slots
	// perSlot prices items in admission slots: how many items of this
	// operation one QoS slot is worth. Estimate items are feature lookups
	// (many fit in a slot's worth of capacity); unpack and pack run real
	// codec work and pack fewer.
	perSlot int
	// contentType labels a single call's 200 body (a batch is always a
	// response container).
	contentType string
	// exec runs one item and returns its response body — bit-identical on
	// both wires — plus, optionally, response headers for a single call.
	exec func(*Server, context.Context, work) ([]byte, http.Header, error)
}

// The rows double as the QoS class roster, in priority order. Estimate is the
// paper's high-volume cheap path (a feature lookup, never a compressor run)
// and gets twice the reserved weight; unpack outranks pack because
// decompression is typically interactive (an analysis waiting on bytes) while
// compression is batch.
var endpoints = [...]endpoint{
	{name: "estimate", class: 0, weight: 2, perSlot: 8, contentType: "application/json", exec: (*Server).estimate},
	{name: "unpack", class: 1, weight: 1, perSlot: 4, contentType: "application/octet-stream", exec: (*Server).unpack},
	{name: "pack", class: 2, weight: 1, perSlot: 2, contentType: "application/octet-stream", exec: (*Server).pack},
}

// route is the endpoint's name on one wire: its path under /v1/ and its
// label in the obs counter and span names.
func (ep *endpoint) route(many bool) string {
	if many {
		return ep.name + "-many"
	}
	return ep.name
}

// work is one item as an exec sees it.
type work struct {
	get     func(key string) string // the item's params over the request query
	payload []byte                  // valid until exec returns
	workers int                     // this item's intra-field worker budget
}

// model resolves the model and target parameters shared by estimate and
// pack. The registry is the cache: a resident model is one map lookup, and
// concurrent items wanting the same cold model share one load.
func (s *Server) model(ctx context.Context, wk work) (fw *fxrz.Framework, id string, target float64, err error) {
	if id = wk.get("model"); id == "" {
		return nil, "", 0, badRequestf("missing required query parameter %q", "model")
	}
	ts := wk.get("target")
	if ts == "" {
		return nil, "", 0, badRequestf("missing required query parameter %q", "target")
	}
	target, perr := strconv.ParseFloat(ts, 64)
	if perr != nil || !(target > 0) {
		return nil, "", 0, badRequestf("target must be a positive ratio, got %q", ts)
	}
	if fw, err = s.reg.Get(ctx, id); err != nil {
		return nil, "", 0, err
	}
	return fw.WithParallelism(wk.workers), id, target, nil
}

// FeaturesRequest is the JSON body of a features-mode estimate: the five
// adopted data features of the paper (Table II), plus the optional CA block
// ratio a field-mode estimate for the same variable previously reported as
// non_constant_r.
type FeaturesRequest struct {
	ValueRange float64 `json:"value_range"`
	MeanValue  float64 `json:"mean_value"`
	MND        float64 `json:"mnd"`
	MLD        float64 `json:"mld"`
	MSD        float64 `json:"msd"`
	CARatio    float64 `json:"ca_ratio,omitempty"`
}

// EstimateResponse is the JSON body of a successful estimate.
type EstimateResponse struct {
	Model         string    `json:"model"`
	Compressor    string    `json:"compressor"`
	TargetRatio   float64   `json:"target_ratio"`
	Knob          float64   `json:"knob"`
	AdjustedRatio float64   `json:"adjusted_ratio"`
	NonConstantR  float64   `json:"non_constant_r"`
	Extrapolating bool      `json:"extrapolating"`
	ValidRange    []float64 `json:"valid_ratio_range,omitempty"`
	AnalysisMS    float64   `json:"analysis_ms"`
}

// estimate answers ?model=ID&target=N with the knob that reaches the target
// ratio, as JSON. Neither mode runs a compressor.
func (s *Server) estimate(ctx context.Context, wk work) ([]byte, http.Header, error) {
	fw, id, target, err := s.model(ctx, wk)
	if err != nil {
		return nil, nil, err
	}
	resp, err := estimateCore(fw, id, target, wk.payload)
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(resp)
	return b.Bytes(), nil, nil
}

var fieldMagic = []byte("fxrzfield")

// estimateCore computes one estimate. The payload picks the mode, on both
// wires: an fxrzfield container (sniffed by its magic) is analysed the full
// way — stride-sampled feature extraction plus one CA block scan, whose R
// also yields the valid ratio range, so analysis_ms is all the analysis the
// request paid for — and anything else is decoded as a FeaturesRequest, the
// model-query-only fast path, which has no field to give a range for.
// Content-Type is advisory.
func estimateCore(fw *fxrz.Framework, id string, target float64, payload []byte) (EstimateResponse, error) {
	resp := EstimateResponse{Model: id, Compressor: fw.Compressor().Name(), TargetRatio: target}
	var est fxrz.Estimate
	if bytes.HasPrefix(payload, fieldMagic) {
		f, err := fieldio.Decode(payload)
		if err != nil {
			return resp, badRequestf("%v", err)
		}
		est, err = fw.EstimateConfig(f, target)
		if err != nil {
			return resp, badRequestf("%v", err)
		}
		resp.ValidRange = est.ValidRange[:]
	} else {
		var req FeaturesRequest
		if err := json.NewDecoder(bytes.NewReader(payload)).Decode(&req); err != nil {
			return resp, badRequestf("decoding features: %v", err)
		}
		var err error
		est, err = fw.EstimateFromFeatures(fxrz.Features{
			ValueRange: req.ValueRange, MeanValue: req.MeanValue,
			MND: req.MND, MLD: req.MLD, MSD: req.MSD,
		}, target, req.CARatio)
		if err != nil {
			return resp, badRequestf("%v", err)
		}
	}
	resp.Knob = est.Knob
	resp.AdjustedRatio = est.AdjustedRatio
	resp.NonConstantR = est.NonConstantR
	resp.Extrapolating = est.Extrapolating
	resp.AnalysisMS = float64(est.AnalysisTime()) / 1e6
	return resp, nil
}

// pack answers ?model=ID&target=N: the payload is an fxrzfield container,
// the response the compressed stream produced at the estimated knob, with
// the estimate in X-Fxrz-* headers on a single call.
func (s *Server) pack(ctx context.Context, wk work) ([]byte, http.Header, error) {
	fw, _, target, err := s.model(ctx, wk)
	if err != nil {
		return nil, nil, err
	}
	f, err := fieldio.Decode(wk.payload)
	if err != nil {
		return nil, nil, badRequestf("%v", err)
	}
	blob, est, err := fw.CompressToRatio(f, target)
	if err != nil {
		return nil, nil, badRequestf("%v", err)
	}
	obs.Add("serve/bytes/packed_in", int64(f.Bytes()))
	obs.Add("serve/bytes/packed_out", int64(len(blob)))
	return blob, http.Header{
		"X-Fxrz-Compressor":     {fw.Compressor().Name()},
		"X-Fxrz-Knob":           {strconv.FormatFloat(est.Knob, 'g', -1, 64)},
		"X-Fxrz-Achieved-Ratio": {strconv.FormatFloat(fxrz.Ratio(f, blob), 'g', 6, 64)},
		"X-Fxrz-Extrapolating":  {strconv.FormatBool(est.Extrapolating)},
	}, nil
}

// unpack decodes any stream a built-in codec produced (the magic byte
// dispatches — indexed containers included) into an fxrzfield container. The
// optional region parameter ("lo0:hi0,lo1:hi1,...", half-open, slowest
// dimension first) decodes only that subvolume; with an indexed stream the
// work scales with the region, not the field.
func (s *Server) unpack(_ context.Context, wk work) ([]byte, http.Header, error) {
	f, err := unpackCore(wk.payload, wk.get("region"), wk.workers)
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	out.Grow(f.Bytes() + 128) // samples plus the header line: one allocation
	if err := fieldio.Write(&out, f); err != nil {
		return nil, nil, err
	}
	return out.Bytes(), nil, nil
}

// unpackCore decompresses one stream, optionally restricted to a textual
// region.
func unpackCore(blob []byte, region string, workers int) (*fxrz.Field, error) {
	var f *fxrz.Field
	var err error
	if region != "" {
		lo, hi, perr := fxrz.ParseRegion(region)
		if perr != nil {
			return nil, badRequestf("%v", perr)
		}
		obs.Inc("serve/unpack_region")
		f, err = fxrz.DecompressRegionParallel(blob, lo, hi, workers)
	} else {
		f, err = fxrz.DecompressParallel(blob, workers)
	}
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	obs.Add("serve/bytes/unpacked_out", int64(f.Bytes()))
	return f, nil
}
