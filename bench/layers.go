package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/brick"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/entropy"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/ml"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
	"github.com/fxrz-go/fxrz/internal/qos"
	"github.com/fxrz-go/fxrz/internal/ratelimit"
	"github.com/fxrz-go/fxrz/internal/roi"
	"github.com/fxrz-go/fxrz/internal/serve"
	"github.com/fxrz-go/fxrz/internal/shard"
)

// The layer pass times each layer's exported functions on one fixed input,
// the same on every workload and every seed, so a per-layer number moves only
// when the layer's code does. Everything here runs with obs recording off
// except where a figure is read from obs itself.

// layerSeed fixes the synthetic inputs of the layer pass.
const layerSeed = 20230403

// relKnob is the error bound of the codec measurements, relative to the
// field's value range — the setting BENCH_compress.json is recorded at.
const relKnob = 1e-3

func layerPass(sc scale, workDir string) (map[string]float64, error) {
	m := map[string]float64{}
	nproc := runtime.GOMAXPROCS(0)
	field, err := nyxTest(testTimeStep, sc.layerNyx)
	if err != nil {
		return nil, err
	}
	small, err := nyxTest(testTimeStep, sc.smallNyx)
	if err != nil {
		return nil, err
	}
	elems := float64(field.Size())
	cfg := sc.train
	perElem := func(reps int, fn func()) float64 {
		return float64(timeMedian(reps, fn).Nanoseconds()) / elems
	}

	// core: the two field passes of an estimate, at width 1 and nproc.
	m["core.features_ns_per_elem_w1"] = perElem(sc.layerReps, func() { core.ExtractFeaturesParallel(field, cfg.Stride, 1) })
	m["core.features_ns_per_elem_wn"] = perElem(sc.layerReps, func() { core.ExtractFeaturesParallel(field, cfg.Stride, nproc) })
	m["core.ca_ns_per_elem_w1"] = perElem(sc.layerReps, func() { core.NonConstantRatioParallel(field, cfg.BlockSide, cfg.Lambda, 1) })
	m["core.ca_ns_per_elem_wn"] = perElem(sc.layerReps, func() { core.NonConstantRatioParallel(field, cfg.BlockSide, cfg.Lambda, nproc) })

	// core training, decomposed by the stage spans the program already records.
	train, err := nyxTrain(min(smallTrainEdge, sc.trainNyx))
	if err != nil {
		return nil, err
	}
	obs.Enable()
	obs.Reset()
	szModel, err := trainModel("layer-sz", "sz", train, cfg, 1)
	if err != nil {
		return nil, err
	}
	spans := obs.TakeSnapshot().Spans
	obs.Disable()
	m["core.train_analysis_ms"] = spans["train/analysis"].TotalMS
	m["core.train_sweep_ms"] = spans["train/sweep"].TotalMS
	m["core.train_fit_ms"] = spans["train/fit"].TotalMS
	zfpModel, err := trainModel("layer-zfp", "zfp", train, cfg, 1)
	if err != nil {
		return nil, err
	}

	// The forest query alone, and the paper's invariant: deciding a knob costs
	// a small fraction of one compression of the same field (Table VIII).
	ft := fxrz.ExtractFeatures(field, cfg.Stride)
	target := targetAt(szModel.fw, field, 0.5)
	m["core.query_us"] = perCall(200*sc.layerReps, func() { szModel.fw.EstimateFromFeatures(ft, target, 0.9) }) / 1e3
	for _, md := range []model{szModel, zfpModel} {
		tgt := targetAt(md.fw, field, 0.5)
		est := timeMedian(sc.layerReps, func() { md.fw.EstimateConfig(field, tgt) })
		pack := timeMedian(sc.layerReps, func() { md.fw.CompressToRatio(field, tgt) })
		m["core.estimate_over_pack_"+md.fw.Compressor().Name()] = float64(est) / float64(pack)
	}

	layerML(sc, m)
	if err := layerCodecs(sc, m, field, nproc); err != nil {
		return nil, err
	}
	if err := layerEntropy(sc, m, nproc); err != nil {
		return nil, err
	}
	if err := layerRegion(sc, m, field); err != nil {
		return nil, err
	}
	if err := layerWire(sc, m, field); err != nil {
		return nil, err
	}
	if err := layerServe(sc, m, workDir, szModel, small, nproc); err != nil {
		return nil, err
	}
	layerPrimitives(sc, m, nproc)
	return m, nil
}

// layerML fits and queries the forest on a fixed synthetic regression set
// shaped like a training set: six inputs, a few hundred samples.
func layerML(sc scale, m map[string]float64) {
	rng := rand.New(rand.NewSource(layerSeed))
	const samples, inputs = 600, 6
	X := make([][]float64, samples)
	y := make([]float64, samples)
	for i := range X {
		X[i] = make([]float64, inputs)
		for j := range X[i] {
			X[i][j] = rng.Float64()
			y[i] += float64(j+1) * X[i][j]
		}
	}
	forest := ml.NewForest(ml.ForestConfig{Trees: sc.train.Trees, Seed: layerSeed})
	m["ml.forest_fit_ms"] = ms(timeMedian(sc.layerReps, func() {
		forest = ml.NewForest(ml.ForestConfig{Trees: sc.train.Trees, Seed: layerSeed})
		_ = forest.Fit(X, y) // the set is well-formed by construction
	}))
	m["ml.forest_predict_ns"] = perCall(500*sc.layerReps, func() { forest.Predict(X[0]) })
}

// layerCodecs times every codec's pack and unpack on the fixed field, and
// for the two codecs with seekable streams and intra-field fan-out also the
// eighth-volume region decode and the width-nproc speed-up on the same input.
func layerCodecs(sc scale, m map[string]float64, field *fxrz.Field, nproc int) error {
	elems := float64(field.Size())
	knob := relKnob * field.ValueRange()
	lo, hi := eighthRegion(field.Dims)
	regionElems := 1.0
	for i := range lo {
		regionElems *= float64(hi[i] - lo[i])
	}
	for _, name := range []string{"sz", "zfp", "sz2", "mgard", "fpzip"} {
		base, err := fxrz.ByName(name)
		if err != nil {
			return err
		}
		k := knob
		if name == "fpzip" {
			k = 16 // precision bits: fpzip's knob is not an error bound
		}
		serial := fxrz.WithParallelism(base, 1)
		blob, err := serial.Compress(field, k)
		if err != nil {
			return fmt.Errorf("layer pass: %s: %w", name, err)
		}
		if _, err := serial.Decompress(blob); err != nil {
			return fmt.Errorf("layer pass: %s: %w", name, err)
		}
		pack := timeMedian(sc.layerReps, func() { serial.Compress(field, k) })
		unpack := timeMedian(sc.layerReps, func() { serial.Decompress(blob) })
		m[name+".pack_ns_per_elem"] = float64(pack.Nanoseconds()) / elems
		m[name+".unpack_ns_per_elem"] = float64(unpack.Nanoseconds()) / elems
		if name != "sz" && name != "zfp" {
			continue
		}
		wide := fxrz.WithParallelism(base, nproc)
		packN := timeMedian(sc.layerReps, func() { wide.Compress(field, k) })
		unpackN := timeMedian(sc.layerReps, func() { wide.Decompress(blob) })
		m[name+".pack_par_speedup"] = float64(pack) / float64(packN)
		m[name+".unpack_par_speedup"] = float64(unpack) / float64(unpackN)
		indexed, err := roi.Build(blob)
		if err != nil {
			return err
		}
		if _, err := roi.DecodeRegion(indexed, lo, hi, 1); err != nil {
			return fmt.Errorf("layer pass: %s region: %w", name, err)
		}
		region := timeMedian(sc.layerReps, func() { roi.DecodeRegion(indexed, lo, hi, 1) })
		m[name+".region_ns_per_elem"] = float64(region.Nanoseconds()) / regionElems
		m[name+".region_speedup"] = float64(unpack) / float64(region)
	}
	return nil
}

// layerEntropy times the entropy coders on a symbol stream shaped like SZ's
// quantization codes: a narrow peak around the zero-residual code.
func layerEntropy(sc scale, m map[string]float64, nproc int) error {
	const alphabet, centre, width = 1 << 16, 1 << 15, 12
	rng := rand.New(rand.NewSource(layerSeed))
	syms := make([]uint32, sc.entropySyms)
	raw := make([]byte, 2*len(syms))
	for i := range syms {
		s := centre + int(rng.NormFloat64()*width)
		syms[i] = uint32(min(max(s, 0), alphabet-1))
		binary.LittleEndian.PutUint16(raw[2*i:], uint16(syms[i]))
	}
	n := float64(len(syms))
	whole, err := entropy.HuffmanEncode(syms, alphabet)
	if err != nil {
		return err
	}
	chunked, err := entropy.HuffmanEncodeChunked(syms, alphabet, 1)
	if err != nil {
		return err
	}
	for _, blob := range [][]byte{whole, chunked} {
		got, err := entropy.HuffmanDecodeChunked(blob, nproc)
		if err != nil || len(got) != len(syms) {
			return fmt.Errorf("layer pass: huffman round trip: %d symbols, err %v", len(got), err)
		}
	}
	perSym := func(fn func()) float64 { return float64(timeMedian(sc.layerReps, fn).Nanoseconds()) / n }
	m["entropy.huff_enc_ns_per_sym"] = perSym(func() { entropy.HuffmanEncode(syms, alphabet) })
	m["entropy.huff_dec_ns_per_sym"] = perSym(func() { entropy.HuffmanDecode(whole) })
	m["entropy.huff_dec_chunked_ns_per_sym_w1"] = perSym(func() { entropy.HuffmanDecodeChunked(chunked, 1) })
	m["entropy.huff_dec_chunked_ns_per_sym_wn"] = perSym(func() { entropy.HuffmanDecodeChunked(chunked, nproc) })
	m["entropy.chunk_table_frac"] = float64(len(chunked)-len(whole)) / float64(len(chunked))

	lz := entropy.LZCompress(raw)
	back, err := entropy.LZDecompress(lz)
	if err != nil || !bytes.Equal(back, raw) {
		return fmt.Errorf("layer pass: lz round trip failed: %v", err)
	}
	perByte := func(fn func()) float64 {
		return float64(timeMedian(sc.layerReps, fn).Nanoseconds()) / float64(len(raw))
	}
	m["entropy.lz_enc_ns_per_byte"] = perByte(func() { entropy.LZCompress(raw) })
	m["entropy.lz_dec_ns_per_byte"] = perByte(func() { entropy.LZDecompress(lz) })
	return nil
}

// layerRegion times the region-access structures on the fixed field's SZ
// stream: the index build, its size, warm point access, and the brick store.
func layerRegion(sc scale, m map[string]float64, field *fxrz.Field) error {
	codec := fxrz.NewSZ()
	knob := relKnob * field.ValueRange()
	blob, err := codec.Compress(field, knob)
	if err != nil {
		return err
	}
	indexed, err := roi.Build(blob)
	if err != nil {
		return err
	}
	m["roi.build_ms"] = ms(timeMedian(sc.layerReps, func() { roi.Build(blob) }))
	m["roi.index_frac"] = float64(len(indexed)-len(blob)) / float64(len(indexed))
	rd, err := roi.NewReader(indexed)
	if err != nil {
		return err
	}
	at := make([]int, len(field.Dims))
	for i, d := range field.Dims {
		at[i] = d / 2
	}
	if _, err := rd.At(at...); err != nil {
		return err
	}
	m["roi.reader_at_ns"] = perCall(2000*sc.layerReps, func() { rd.At(at...) })

	side := max(field.Dims[0]/4, 4)
	store, err := brick.Build(codec, field, side, knob)
	if err != nil {
		return err
	}
	m["brick.build_ms"] = ms(timeMedian(sc.layerReps, func() { brick.Build(codec, field, side, knob) }))
	lo, hi := eighthRegion(field.Dims)
	shape := make([]int, len(lo))
	for i := range lo {
		shape[i] = hi[i] - lo[i]
	}
	if _, err := store.ReadRegion(lo, shape); err != nil {
		return err
	}
	m["brick.read_region_ms"] = ms(timeMedian(sc.layerReps, func() { store.ReadRegion(lo, shape) }))
	return nil
}

// layerWire times the two wire formats: the fxrzfield container and the
// batch container around batchItems copies of it.
func layerWire(sc scale, m map[string]float64, field *fxrz.Field) error {
	body, err := fieldBytes(field)
	if err != nil {
		return err
	}
	perByte := func(fn func()) float64 {
		return float64(timeMedian(sc.layerReps, fn).Nanoseconds()) / float64(len(body))
	}
	m["fieldio.read_ns_per_byte"] = perByte(func() { fieldio.Read(bytes.NewReader(body)) })
	m["fieldio.write_ns_per_byte"] = perByte(func() { fieldio.Write(&bytes.Buffer{}, field) })

	items := make([]batch.Item, sc.batchItems)
	for i := range items {
		items[i] = batch.Item{ID: uint64(i), Params: "model=layer-sz&target=10", Payload: body}
	}
	container := batch.EncodeRequest(items)
	if _, err := batch.DecodeRequest(container); err != nil {
		return err
	}
	perItem := func(fn func()) float64 {
		return float64(timeMedian(sc.layerReps, fn).Nanoseconds()) / float64(len(items))
	}
	m["batch.encode_ns_per_item"] = perItem(func() { batch.EncodeRequest(items) })
	m["batch.decode_ns_per_item"] = perItem(func() { batch.DecodeRequest(container) })
	return nil
}

// layerServe measures what the serving stack adds to the library on an
// otherwise idle server: one client, one request at a time.
func layerServe(sc scale, m map[string]float64, workDir string, md model, small *fxrz.Field, nproc int) error {
	cl, err := startCluster(1, workDir, []model{md}, serve.Config{
		MaxInFlight: maxInFlight, Parallelism: nproc, RatePerClient: generousRate,
	})
	if err != nil {
		return err
	}
	defer cl.close()

	// The registry alone: one cold load, then resident hits.
	reg := serve.NewRegistry(cl.dir, 8)
	ctx := context.Background()
	cold := timeOnce(func() { _, err = reg.Get(ctx, md.id) })
	if err != nil {
		return err
	}
	m["serve.registry_cold_load_ms"] = ms(cold)
	m["serve.registry_hit_ns"] = perCall(1000*sc.layerReps, func() { reg.Get(ctx, md.id) })

	client := newClient(1)
	defer client.CloseIdleConnections()
	// The server hands every admitted request its share of the budget.
	_, inner := pool.Split(nproc, maxInFlight)
	fw := md.fw.WithParallelism(inner)
	target := targetAt(fw, small, 0.5)
	q := "?model=" + md.id + "&target=" + formatTarget(target)
	httpP50 := func(op *httpOp, reps int) (float64, error) {
		var ds []float64
		for i := 0; i <= reps; i++ {
			status, body, d, err := do(client, cl.bases[0], "bench-layer", op)
			if err != nil || status != 200 {
				return 0, fmt.Errorf("layer pass: %s: status %d, err %v: %.120s", op.path, status, err, body)
			}
			if i > 0 { // the first request warms the connection and the registry
				ds = append(ds, ms(d))
			}
		}
		return median(ds), nil
	}
	directP50 := func(reps int, fn func()) float64 {
		ds := make([]float64, reps)
		fn()
		for i := range ds {
			ds[i] = ms(timeOnce(fn))
		}
		return median(ds)
	}

	// Features-mode estimate: the forest query is microseconds, so what the
	// round trip costs beyond it is the serving stack's fixed cost.
	ft := fxrz.ExtractFeatures(small, sc.train.Stride)
	feat, err := json.Marshal(serve.FeaturesRequest{
		ValueRange: ft.ValueRange, MeanValue: ft.MeanValue, MND: ft.MND, MLD: ft.MLD, MSD: ft.MSD, CARatio: 0.9,
	})
	if err != nil {
		return err
	}
	single, err := httpP50(&httpOp{path: "/v1/estimate" + q, ctype: "application/json", body: feat}, sc.httpReps)
	if err != nil {
		return err
	}
	direct := directP50(sc.httpReps, func() { fw.EstimateFromFeatures(ft, target, 0.9) })
	m["serve.fixed_cost_us"] = (single - direct) * 1e3

	// The same query as items of one batch: the fixed cost paid once.
	items := make([]*httpItem, 8)
	for i := range items {
		items[i] = &httpItem{params: "model=" + md.id + "&target=" + formatTarget(target), body: feat}
	}
	many, err := httpP50(&httpOp{path: "/v1/estimate-many", body: encodeBatch(items)}, sc.httpReps)
	if err != nil {
		return err
	}
	m["serve.batch_amortization_b8"] = single / (many / float64(len(items)))

	// Field-mode ops against the library doing the same work.
	body, err := fieldBytes(small)
	if err != nil {
		return err
	}
	blob, _, err := fw.CompressToRatio(small, target)
	if err != nil {
		return err
	}
	reps := max(sc.httpReps/4, 1)
	for _, c := range []struct {
		name   string
		op     *httpOp
		direct func()
	}{
		{"estimate", &httpOp{path: "/v1/estimate" + q, body: body}, func() { fw.EstimateConfig(small, target) }},
		{"pack", &httpOp{path: "/v1/pack" + q, body: body}, func() { fw.CompressToRatio(small, target) }},
		{"unpack", &httpOp{path: "/v1/unpack", body: blob}, func() { fxrz.DecompressParallel(blob, inner) }},
	} {
		h, err := httpP50(c.op, reps)
		if err != nil {
			return err
		}
		m["serve.http_over_direct_"+c.name] = h / directP50(reps, c.direct)
	}
	return nil
}

// layerPrimitives times the nanosecond-scale building blocks every request
// passes through.
func layerPrimitives(sc scale, m map[string]float64, nproc int) {
	n := 2000 * sc.layerReps
	ctl := qos.NewController(maxInFlight, []qos.Class{{Name: "estimate", Weight: 2}, {Name: "unpack", Weight: 1}, {Name: "pack", Weight: 1}})
	m["qos.acquire_release_ns"] = perCall(n, func() {
		if ctl.TryAcquire(0) {
			ctl.Release(0)
		}
	})
	lim := ratelimit.New(ratelimit.Config{Rate: generousRate})
	m["ratelimit.allow_ns"] = perCall(n, func() { lim.Allow("bench-0") })
	peers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	ring, err := shard.NewRing(peers[0], peers)
	if err == nil { // a fixed two-peer list is always a valid ring
		m["shard.owner_ns"] = perCall(n, func() { ring.Owner("brick-000123") })
	}
	const tasks = 1024
	m["pool.run_overhead_ns_per_task"] = perCall(20*sc.layerReps, func() { pool.Run(nproc, tasks, func(int) {}) }) / tasks

	m["obs.span_disabled_ns"] = perCall(n, func() { obs.Span("bench/span")() })
	obs.Enable()
	m["obs.span_enabled_ns"] = perCall(n, func() { obs.Span("bench/span")() })
	obs.Disable()
}
