package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// instance is one workload after set-up, ready to be measured.
type instance interface {
	// run drives the workload's closed loop for about the given time.
	run(seconds float64, tr *tracer) *outcome
	// replay repeats a few requests as explicit calls into each layer under
	// spans, checks the pieces reproduce the one-call result, and returns the
	// mean self time of the serving layers per request in microseconds.
	replay(tr *tracer) (serveSelfUS float64, err error)
	info() *setupInfo
	close()
}

// setupInfo is what set-up learned before the first measured op.
type setupInfo struct {
	trainMS       []float64          // one fxrz.Train per model
	genS          float64            // field generation
	ratioErr      map[string]float64 // |achieved-target|/target per planned pack tuple
	extrapolating int                // planned estimates outside the training hull
	estimates     int
	hash          uint64 // planned ops and their reference outputs
}

// reference holds the serially computed truth for one (field, model, target):
// what every later pack, unpack and region op must reproduce.
type reference struct {
	key      string
	field    *fxrz.Field
	target   float64
	lo, hi   []int
	est      fxrz.Estimate
	blob     []byte      // codec stream at the estimated knob: what a pack must produce
	stored   []byte      // the stream as held in storage: what an unpack reads
	indexed  []byte      // the stored stream in the indexed container: what a region op reads
	recon    *fxrz.Field // full decode, checked against the error bound
	region   *fxrz.Field // recon[lo:hi]
	ratioErr float64
}

// newReference runs the serial pipeline once and checks the product's
// promise on it: the reconstruction is within the knob of the original.
func newReference(key string, serial *fxrz.Framework, f *fxrz.Field, target float64, lo, hi []int) (*reference, error) {
	blob, est, err := serial.CompressToRatio(f, target)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	indexed, err := fxrz.IndexBlob(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: indexing: %w", key, err)
	}
	recon, err := fxrz.Decompress(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: decoding: %w", key, err)
	}
	worst, err := fxrz.MaxAbsError(f, recon)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	if worst > est.Knob*(1+1e-9) {
		return nil, fmt.Errorf("%s: error bound violated: max error %g over knob %g", key, worst, est.Knob)
	}
	region, err := grid.SliceRegion(recon, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return &reference{
		key: key, field: f, target: target, lo: lo, hi: hi, est: est,
		blob: blob, stored: blob, indexed: indexed, recon: recon, region: region,
		ratioErr: math.Abs(fxrz.Ratio(f, blob)-target) / target,
	}, nil
}

// describe folds the reference into the op hash: the request and the bytes
// the program must answer it with.
func (r *reference) describe(h *opHash) {
	h.add("%s target=%x knob=%x region=%v:%v blob=%d", r.key,
		math.Float64bits(r.target), math.Float64bits(r.est.Knob), r.lo, r.hi, len(r.blob))
}

// injectFault damages one reference the way the failure-path self-test asks,
// so a run can be shown to turn broken output into failed ops.
func injectFault(fault string, r *reference) {
	switch fault {
	case "flip-blob":
		r.stored = append([]byte(nil), r.blob...)
		r.stored[len(r.stored)/2] ^= 0x40
		r.indexed = append([]byte(nil), r.indexed...)
		r.indexed[len(r.indexed)/2] ^= 0x40
	case "region-mismatch":
		r.region.Data[len(r.region.Data)/2] += 1
	}
}

// libTuple is one (field, model, target) the library workloads cycle over.
type libTuple struct {
	*reference
	fw *fxrz.Framework // bound to the workload's worker budget
}

// libInstance is lib_large_w1 (workers 1) or lib_large_par (workers nproc).
type libInstance struct {
	sc      scale
	workers int
	tuples  []libTuple
	setup   setupInfo
}

// Target positions inside the valid ratio range, and how far the seed may
// move them: a ten-thousandth of the range. The forest's answer is piecewise
// constant in the target, so a jitter of even a hundredth crosses a split on
// three seeds in ten and moves ratio_err_mean by a tenth when it does.
var libTargetPos = []float64{0.25, 0.75}

const targetJitter = 1e-4

func newLibInstance(sc scale, seed int64, workers int, fault string) (*libInstance, error) {
	st := &libInstance{sc: sc, workers: workers}
	st.setup.ratioErr = map[string]float64{}

	t0 := time.Now()
	nyx, err := nyxTest(testTimeStep, sc.libNyx)
	if err != nil {
		return nil, err
	}
	hur, err := datagen.HurricaneField(hurField, testTimeStep, sc.libHur)
	if err != nil {
		return nil, err
	}
	nyxTr, err := nyxTrain(sc.trainNyx)
	if err != nil {
		return nil, err
	}
	hurTr, err := hurTrain(sc.trainHur)
	if err != nil {
		return nil, err
	}
	st.setup.genS = time.Since(t0).Seconds()

	apps := []struct {
		name  string
		test  *fxrz.Field
		train []*fxrz.Field
	}{{"nyx", nyx, nyxTr}, {"hurricane", hur, hurTr}}

	rng := rand.New(rand.NewSource(seed))
	var h opHash
	for _, app := range apps {
		for _, codec := range []string{"sz", "zfp"} {
			m, err := trainModel(app.name+"-"+codec, codec, app.train, sc.train, workers)
			if err != nil {
				return nil, err
			}
			st.setup.trainMS = append(st.setup.trainMS, m.trainMS)
			serial := m.fw.WithParallelism(1)
			for _, pos := range libTargetPos {
				target := targetAt(serial, app.test, jitter(rng, pos, targetJitter))
				lo, hi := eighthRegion(app.test.Dims)
				key := fmt.Sprintf("%s@%.2f", m.id, pos)
				ref, err := newReference(key, serial, app.test, target, lo, hi)
				if err != nil {
					return nil, err
				}
				ref.describe(&h)
				st.setup.ratioErr[key] = ref.ratioErr
				st.setup.estimates++
				if ref.est.Extrapolating {
					st.setup.extrapolating++
				}
				st.tuples = append(st.tuples, libTuple{reference: ref, fw: m.fw})
			}
		}
	}
	rng.Shuffle(len(st.tuples), func(i, j int) { st.tuples[i], st.tuples[j] = st.tuples[j], st.tuples[i] })
	for _, tp := range st.tuples {
		h.add("order %s", tp.key)
	}
	st.setup.hash = h.h
	injectFault(fault, st.tuples[0].reference)
	return st, nil
}

func (st *libInstance) info() *setupInfo { return &st.setup }
func (st *libInstance) close()           {}

// run repeats the fixed round — every tuple through estimate, pack, unpack
// and region — until the time is up, always finishing the round it started.
// Each round is one pass.
func (st *libInstance) run(seconds float64, tr *tracer) *outcome {
	o := newOutcome()
	o.mean = true
	start := time.Now()
	for {
		p, t0 := &pass{}, time.Now()
		for i := range st.tuples {
			st.runTuple(&st.tuples[i], o, p, tr)
		}
		p.wall = time.Since(t0)
		o.passes = append(o.passes, p)
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	o.wall = time.Since(start)
	return o
}

// runTuple times the four ops of one tuple and verifies each result against
// the serial reference outside the timed interval.
func (st *libInstance) runTuple(tp *libTuple, o *outcome, p *pass, tr *tracer) {
	req := tr.request()

	id := tr.begin("fxrz.EstimateConfig", 0, req)
	t0 := time.Now()
	est, err := tp.fw.EstimateConfig(tp.field, tp.target)
	d := time.Since(t0)
	tr.end(id)
	if err == nil && est.Knob != tp.est.Knob {
		err = fmt.Errorf("%s: knob %g, serial reference %g", tp.key, est.Knob, tp.est.Knob)
	}
	o.record(p, opEstimate, d, err)

	id = tr.begin("fxrz.CompressToRatio", 0, req)
	t0 = time.Now()
	blob, _, err := tp.fw.CompressToRatio(tp.field, tp.target)
	d = time.Since(t0)
	tr.end(id)
	if err == nil && !bytes.Equal(blob, tp.blob) {
		err = fmt.Errorf("%s: stream differs from the serial reference", tp.key)
	}
	o.record(p, opPack, d, err)
	o.packed[tp.key] = true

	id = tr.begin("fxrz.DecompressParallel", 0, req)
	t0 = time.Now()
	rec, err := fxrz.DecompressParallel(tp.stored, st.workers)
	d = time.Since(t0)
	tr.end(id)
	if err == nil && !sameBits(rec, tp.recon) {
		err = fmt.Errorf("%s: reconstruction differs from the bound-checked reference", tp.key)
	}
	o.record(p, opUnpack, d, err)

	id = tr.begin("fxrz.DecompressRegionParallel", 0, req)
	t0 = time.Now()
	reg, err := fxrz.DecompressRegionParallel(tp.indexed, tp.lo, tp.hi, st.workers)
	d = time.Since(t0)
	tr.end(id)
	if err == nil && !sameBits(reg, tp.region) {
		err = fmt.Errorf("%s: region differs from the slice of the full decode", tp.key)
	}
	o.record(p, opRegion, d, err)
}

// replay redoes the first tuples as explicit calls into each layer and
// checks the pieces add up to the one-call results. The library has no
// serving layers, so their self time is zero by construction.
func (st *libInstance) replay(tr *tracer) (float64, error) {
	for i := 0; i < min(st.sc.replayOps, len(st.tuples)); i++ {
		tp := &st.tuples[i]
		req := tr.request()
		root := tr.begin("replay.pack", 0, req)
		blob, err := replayPack(tr, root, req, tp.fw, st.sc.train, tp.field, tp.target, st.workers)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(blob, tp.blob) {
			return 0, fmt.Errorf("replay of %s: layer-by-layer stream differs from CompressToRatio's", tp.key)
		}
		root = tr.begin("replay.unpack", 0, req)
		_, err = replayUnpack(tr, root, req, blob, "", st.workers)
		tr.end(root)
		if err != nil {
			return 0, err
		}
	}
	return 0, nil
}
