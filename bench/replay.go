package main

import (
	"bytes"
	"fmt"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/fieldio"
)

// Decomposed replay. Nothing inside the program may change in the change
// that defines the benchmark, so the per-request waterfall is built from
// outside: the benchmark performs the work of one request as explicit calls
// into each layer's exported functions, each under a span, and checks the
// pieces reproduce the one-call result bit for bit. A request's serving self
// time is then its round-trip span minus what these children cover.

// replayEstimate is EstimateConfig taken apart: feature pass, CA block scan,
// forest query.
func replayEstimate(tr *tracer, parent, req int, fw *fxrz.Framework, cfg fxrz.Config, f *fxrz.Field, target float64, workers int) (fxrz.Estimate, error) {
	id := tr.begin("core.features", parent, req)
	ft := core.ExtractFeaturesParallel(f, cfg.Stride, workers)
	tr.end(id)

	id = tr.begin("core.ca", parent, req)
	r := core.NonConstantRatioParallel(f, cfg.BlockSide, cfg.Lambda, workers)
	tr.end(id)

	id = tr.begin("core.query", parent, req)
	est, err := fw.EstimateFromFeatures(ft, target, r)
	tr.end(id)
	return est, err
}

// replayPack is CompressToRatio taken apart: the estimate, then the codec at
// that knob.
func replayPack(tr *tracer, parent, req int, fw *fxrz.Framework, cfg fxrz.Config, f *fxrz.Field, target float64, workers int) ([]byte, error) {
	est, err := replayEstimate(tr, parent, req, fw, cfg, f, target, workers)
	if err != nil {
		return nil, err
	}
	codec := fxrz.WithParallelism(fw.Compressor(), workers)
	id := tr.begin(codec.Name()+".compress", parent, req)
	blob, err := codec.Compress(f, est.Knob)
	tr.end(id)
	return blob, err
}

// replayUnpack decodes a stream, whole or restricted to a textual region.
func replayUnpack(tr *tracer, parent, req int, blob []byte, region string, workers int) (*fxrz.Field, error) {
	if region == "" {
		id := tr.begin("codec.decompress", parent, req)
		f, err := fxrz.DecompressParallel(blob, workers)
		tr.end(id)
		return f, err
	}
	lo, hi, err := fxrz.ParseRegion(region)
	if err != nil {
		return nil, err
	}
	id := tr.begin("roi.decode_region", parent, req)
	f, err := fxrz.DecompressRegionParallel(blob, lo, hi, workers)
	tr.end(id)
	return f, err
}

// replayRead parses a request body as the server's fieldio layer does.
func replayRead(tr *tracer, parent, req int, body []byte) (*fxrz.Field, error) {
	id := tr.begin("fieldio.read", parent, req)
	f, err := fieldio.Read(bytes.NewReader(body))
	tr.end(id)
	return f, err
}

// replayWrite renders a response field as the server's fieldio layer does.
func replayWrite(tr *tracer, parent, req int, f *fxrz.Field) ([]byte, error) {
	id := tr.begin("fieldio.write", parent, req)
	var b bytes.Buffer
	err := fieldio.Write(&b, f)
	tr.end(id)
	return b.Bytes(), err
}

// replayHTTP redoes, layer by layer, the work the server did for one
// request and checks it against what the server returned.
func replayHTTP(tr *tracer, parent, req int, op *httpOp, item *httpItem, got []byte, cfg fxrz.Config, workers int) error {
	switch op.kind {
	case opEstimate:
		f, err := replayRead(tr, parent, req, item.body)
		if err != nil {
			return err
		}
		est, err := replayEstimate(tr, parent, req, item.fw, cfg, f, item.target, workers)
		if err != nil {
			return err
		}
		// The handler also reports the valid ratio range: a second CA scan.
		id := tr.begin("core.ca", parent, req)
		item.fw.ValidRatioRange(f)
		tr.end(id)
		if est.Knob != item.knob {
			return fmt.Errorf("replay of %s: layer-by-layer knob %g, server's %g", op.path, est.Knob, item.knob)
		}
	case opPack:
		f, err := replayRead(tr, parent, req, item.body)
		if err != nil {
			return err
		}
		blob, err := replayPack(tr, parent, req, item.fw, cfg, f, item.target, workers)
		if err != nil {
			return err
		}
		if !bytes.Equal(blob, got) {
			return fmt.Errorf("replay of %s: layer-by-layer stream differs from the server's", op.path)
		}
	case opUnpack, opRegion:
		f, err := replayUnpack(tr, parent, req, item.body, item.region, workers)
		if err != nil {
			return err
		}
		out, err := replayWrite(tr, parent, req, f)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, got) {
			return fmt.Errorf("replay of %s: layer-by-layer field differs from the server's", op.path)
		}
	}
	return nil
}
