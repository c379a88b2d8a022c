package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/roi"
	"github.com/fxrz-go/fxrz/internal/serve"
	"github.com/fxrz-go/fxrz/internal/shard"
)

// httpItem is one unit of work the server does: a whole single request, or
// one item of a batch. It carries what the answer must be.
type httpItem struct {
	key    string          // pack tuple, for the ratio-error tally
	fw     *fxrz.Framework // serial framework, for the decomposed replay
	target float64
	region string
	params string // per-item parameters inside a batch
	body   []byte // field container (estimate, pack) or stream (unpack, region)
	knob   float64
	want   []byte // exact response payload; nil for an estimate (its JSON carries a wall time)
}

// httpOp is one request a client sends and waits for.
type httpOp struct {
	kind  opKind
	label string // names the op in the op hash; paths repeat across batch variants
	path  string // endpoint and query
	ctype string // Content-Type; empty means application/octet-stream
	batch bool
	items []*httpItem
	body  []byte
}

// check verifies one item's response payload against the reference.
func (it *httpItem) check(kind opKind, payload []byte) error {
	if kind == opEstimate {
		var resp serve.EstimateResponse
		if err := json.Unmarshal(payload, &resp); err != nil {
			return fmt.Errorf("decoding estimate: %w", err)
		}
		if resp.Knob != it.knob {
			return fmt.Errorf("knob %g, library reference %g", resp.Knob, it.knob)
		}
		return nil
	}
	if !bytes.Equal(payload, it.want) {
		return fmt.Errorf("%d response bytes differ from the library reference (%d bytes)", len(payload), len(it.want))
	}
	return nil
}

// verify checks a whole response: any non-200 (a shed or rate-limited
// request included), any per-item non-200 and any payload mismatch fails the
// op.
func (op *httpOp) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.120s", op.path, status, bytes.TrimSpace(body))
	}
	if !op.batch {
		if err := op.items[0].check(op.kind, body); err != nil {
			return fmt.Errorf("%s: %w", op.path, err)
		}
		return nil
	}
	results, err := batch.DecodeResponse(body)
	if err != nil {
		return fmt.Errorf("%s: %w", op.path, err)
	}
	if len(results) != len(op.items) {
		return fmt.Errorf("%s: %d results for %d items", op.path, len(results), len(op.items))
	}
	for i, r := range results {
		if r.Status != http.StatusOK {
			return fmt.Errorf("%s item %d: status %d: %.120s", op.path, i, r.Status, r.Payload)
		}
		if err := op.items[i].check(op.kind, r.Payload); err != nil {
			return fmt.Errorf("%s item %d: %w", op.path, i, err)
		}
	}
	return nil
}

// cluster is one or more in-process fxrzd instances on loopback listeners
// over one models directory.
type cluster struct {
	bases   []string
	servers []*http.Server
	dir     string
	serving sync.WaitGroup
}

// startCluster binds every listener before any server starts, so each
// instance opens knowing the whole ring (the fxrzd -peers/-self contract).
func startCluster(n int, workDir string, models []model, cfg serve.Config) (*cluster, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "models-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	for _, m := range models {
		var buf bytes.Buffer
		if err := m.fw.Save(&buf); err != nil {
			c.close()
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, m.id+".fxm"), buf.Bytes(), 0o644); err != nil {
			c.close()
			return nil, err
		}
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		lns[i] = ln
		c.bases = append(c.bases, "http://"+ln.Addr().String())
	}
	cfg.ModelsDir = dir
	for i, ln := range lns {
		if n > 1 {
			cfg.Peers = append([]string(nil), c.bases...)
			cfg.Self = c.bases[i]
		}
		hs := &http.Server{Handler: serve.NewServer(cfg).Handler()}
		c.servers = append(c.servers, hs)
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed on shutdown
		}()
	}
	return c, nil
}

// close drains the servers, waits for their accept loops and removes the
// models directory.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range c.servers {
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
	c.serving.Wait()
	os.RemoveAll(c.dir)
}

// newClient is one caller's HTTP client: one keep-alive connection per
// server, never shared with another caller.
func newClient(nServers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        nServers,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
}

// do sends one request and reads the whole reply: the interval a caller
// waits, from send to last byte.
func do(client *http.Client, base, clientID string, op *httpOp) (status int, body []byte, d time.Duration, err error) {
	req, err := http.NewRequest("POST", base+op.path, bytes.NewReader(op.body))
	if err != nil {
		return 0, nil, 0, err
	}
	ctype := op.ctype
	if ctype == "" {
		ctype = "application/octet-stream"
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set(serve.ClientHeader, clientID)
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	body, err = io.ReadAll(resp.Body)
	d = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, body, d, err
}

// serveInstance is serve_small_mix (one server, single requests) or
// serve_batch_shard (a two-instance ring, batch requests).
type serveInstance struct {
	sc      scale
	workers int
	cl      *cluster
	lists   [][]*httpOp // one op list per client, cycled until the time is up
	kinds   [numOps][]*httpOp
	setup   setupInfo
}

func (st *serveInstance) info() *setupInfo { return &st.setup }
func (st *serveInstance) close()           { st.cl.close() }

// run is the closed loop: each client sends its next request only when the
// previous reply has arrived, round-robin across the servers, going through
// its list pass after pass. A pass the deadline cuts short is discarded — its
// ops count, its latencies do not — so no pass runs while another client has
// already stopped and left it the box. Only the first pass always completes:
// every planned tuple runs even in a phase cut very short.
func (st *serveInstance) run(seconds float64, tr *tracer) *outcome {
	total := newOutcome()
	outs := make([]*outcome, len(st.lists))
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for ci, list := range st.lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := newOutcome()
			outs[ci] = o
			client := newClient(len(st.cl.bases))
			defer client.CloseIdleConnections()
			id := fmt.Sprintf("bench-%d", ci)
			for n := 0; ; {
				p, t0 := &pass{caller: ci}, time.Now()
				for _, op := range list {
					if len(o.passes) > 0 && time.Now().After(deadline) {
						return
					}
					req := tr.request()
					sp := tr.begin("http."+opNames[op.kind], 0, req)
					status, body, d, err := do(client, st.cl.bases[(ci+n)%len(st.cl.bases)], id, op)
					tr.end(sp)
					n++
					if err == nil {
						err = op.verify(status, body)
					}
					o.record(p, op.kind, d, err)
					if op.kind == opPack {
						for _, it := range op.items {
							o.packed[it.key] = true
						}
					}
				}
				p.wall = time.Since(t0)
				o.passes = append(o.passes, p)
				if time.Now().After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	for _, o := range outs {
		total.merge(o)
	}
	return total
}

// replay sends a few requests of each kind once more under a root span,
// redoes their work layer by layer, and returns the serving layers' mean
// self time: round trip minus the replayed children. On a sharded batch the
// children run serially here but concurrently in the server, so the figure
// can be negative: the fan-out hid more work than the serving layers added.
func (st *serveInstance) replay(tr *tracer) (float64, error) {
	client := newClient(len(st.cl.bases))
	defer client.CloseIdleConnections()
	var selfUS []float64
	for _, ops := range st.kinds {
		for i := 0; i < min(st.sc.replayOps, len(ops)); i++ {
			op := ops[i]
			req := tr.request()
			root := tr.begin("http."+opNames[op.kind], 0, req)
			status, body, _, err := do(client, st.cl.bases[0], "bench-replay", op)
			tr.end(root)
			if err == nil {
				err = op.verify(status, body)
			}
			if err != nil {
				return 0, err
			}
			if err := st.replayOp(tr, root, req, op, body); err != nil {
				return 0, err
			}
			selfUS = append(selfUS, float64(tr.selfNS(root))/1e3)
		}
	}
	return mean(selfUS), nil
}

func (st *serveInstance) replayOp(tr *tracer, root, req int, op *httpOp, got []byte) error {
	if !op.batch {
		return replayHTTP(tr, root, req, op, op.items[0], got, st.sc.train, st.workers)
	}
	id := tr.begin("batch.decode_request", root, req)
	_, err := batch.DecodeRequest(op.body)
	tr.end(id)
	if err != nil {
		return err
	}
	results, err := batch.DecodeResponse(got)
	if err != nil {
		return err
	}
	for i, it := range op.items {
		if err := replayHTTP(tr, root, req, op, it, results[i].Payload, st.sc.train, st.workers); err != nil {
			return err
		}
	}
	id = tr.begin("batch.encode_response", root, req)
	batch.EncodeResponse(results)
	tr.end(id)
	return nil
}

// addOp registers one request the clients may draw.
func (st *serveInstance) addOp(k opKind, variant, path string, isBatch bool, items []*httpItem, body []byte) {
	st.kinds[k] = append(st.kinds[k], &httpOp{
		kind: k, label: opNames[k] + " " + variant, path: path, batch: isBatch, items: items, body: body,
	})
}

// addReference folds one reference into the set-up record.
func (st *serveInstance) addReference(h *opHash, ref *reference) {
	ref.describe(h)
	st.setup.ratioErr[ref.key] = ref.ratioErr
	st.setup.estimates++
	if ref.est.Extrapolating {
		st.setup.extrapolating++
	}
}

// itemsFor builds the four request payloads one reference gives rise to.
func itemsFor(ref *reference, serial *fxrz.Framework) (est, pack, unpack, region *httpItem, err error) {
	body, err := fieldBytes(ref.field)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	full, err := fieldBytes(ref.recon)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	part, err := fieldBytes(ref.region)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	est = &httpItem{key: ref.key, fw: serial, target: ref.target, body: body, knob: ref.est.Knob}
	pack = &httpItem{key: ref.key, fw: serial, target: ref.target, body: body, knob: ref.est.Knob, want: ref.blob}
	unpack = &httpItem{key: ref.key, body: ref.stored, want: full}
	region = &httpItem{key: ref.key, body: ref.indexed, region: roi.FormatRegion(ref.lo, ref.hi), want: part}
	return est, pack, unpack, region, nil
}

func formatTarget(t float64) string { return strconv.FormatFloat(t, 'g', -1, 64) }

// warm sends one request per model to every server so the registry's cold
// load happens in set-up, not in the first measured op.
func (st *serveInstance) warm(ops []*httpOp) error {
	client := newClient(len(st.cl.bases))
	defer client.CloseIdleConnections()
	for _, base := range st.cl.bases {
		for _, op := range ops {
			status, body, _, err := do(client, base, "bench-warm", op)
			if err == nil {
				err = op.verify(status, body)
			}
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// The serve_small_mix traffic: 90:5:5 estimate:unpack:pack, a quarter of the
// unpacks restricted to a region.
const (
	mixEstimate    = 90
	mixUnpack      = 5
	mixPack        = 5
	regionOneIn    = 4
	maxInFlight    = 8   // admission slots of every server the benchmark starts
	generousRate   = 1e6 // req/s per client: the limiter runs on every request and must never refuse
	throttledRate  = 1   // the force-429 fault
	smallTrainEdge = 16
)

var smallTargetPos = []float64{0.2, 0.4, 0.6, 0.8}

func newSmallMix(sc scale, seed int64, workers int, fault, workDir string) (*serveInstance, error) {
	st := &serveInstance{sc: sc, workers: workers}
	st.setup.ratioErr = map[string]float64{}

	t0 := time.Now()
	fields := make([]*fxrz.Field, sc.smallFields)
	for i := range fields {
		f, err := nyxTest(i+1, sc.smallNyx)
		if err != nil {
			return nil, err
		}
		fields[i] = f
	}
	train, err := nyxTrain(min(smallTrainEdge, sc.trainNyx))
	if err != nil {
		return nil, err
	}
	st.setup.genS = time.Since(t0).Seconds()

	m, err := trainModel("nyx-sz", "sz", train, sc.train, workers)
	if err != nil {
		return nil, err
	}
	st.setup.trainMS = []float64{m.trainMS}
	serial := m.fw.WithParallelism(1)

	rng := rand.New(rand.NewSource(seed))
	var h opHash
	first := true
	for fi, f := range fields {
		for _, pos := range smallTargetPos {
			target := targetAt(serial, f, jitter(rng, pos, targetJitter))
			lo, hi := eighthRegion(f.Dims)
			ref, err := newReference(fmt.Sprintf("f%d@%.1f", fi, pos), serial, f, target, lo, hi)
			if err != nil {
				return nil, err
			}
			st.addReference(&h, ref)
			if first {
				injectFault(fault, ref)
				first = false
			}
			est, pack, unpack, region, err := itemsFor(ref, serial)
			if err != nil {
				return nil, err
			}
			q := "?model=" + m.id + "&target=" + formatTarget(target)
			st.addOp(opEstimate, ref.key, "/v1/estimate"+q, false, []*httpItem{est}, est.body)
			st.addOp(opPack, ref.key, "/v1/pack"+q, false, []*httpItem{pack}, pack.body)
			st.addOp(opUnpack, ref.key, "/v1/unpack", false, []*httpItem{unpack}, unpack.body)
			st.addOp(opRegion, ref.key, "/v1/unpack?region="+url.QueryEscape(region.region), false, []*httpItem{region}, region.body)
		}
	}
	st.lists = st.mixLists(rng, &h, workers, sc.smallListN, mixEstimate, mixUnpack, mixPack)
	st.setup.hash = h.h

	rate := float64(generousRate)
	if fault == "force-429" {
		rate = throttledRate
	}
	st.cl, err = startCluster(1, workDir, []model{m}, serve.Config{
		MaxInFlight: maxInFlight, Parallelism: workers, RatePerClient: rate,
	})
	if err != nil {
		return nil, err
	}
	if err := st.warm(st.kinds[opEstimate][:1]); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// mixLists builds each client's op list: the kinds in exactly the mix's
// proportions, every tuple of a kind visited equally often, and only the
// order drawn from the seed. A mix drawn at random would differ from seed to
// seed by a few percent of packs, and a pack costs six estimates.
func (st *serveInstance) mixLists(rng *rand.Rand, h *opHash, clients, n, wEst, wUnpack, wPack int) [][]*httpOp {
	total := wEst + wUnpack + wPack
	var count [numOps]int
	count[opEstimate] = n * wEst / total
	count[opPack] = n * wPack / total
	unpacks := n - count[opEstimate] - count[opPack]
	count[opRegion] = unpacks / regionOneIn
	count[opUnpack] = unpacks - count[opRegion]

	lists := make([][]*httpOp, clients)
	var next [numOps]int
	for ci := range lists {
		list := make([]*httpOp, 0, n)
		for k, c := range count {
			for i := 0; i < c; i++ {
				list = append(list, st.kinds[k][next[k]%len(st.kinds[k])])
				next[k]++
			}
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for _, op := range list {
			h.add("c%d %s", ci, op.label)
		}
		lists[ci] = list
	}
	return lists
}

// The serve_batch_shard traffic: estimate-many:unpack-many:pack-many 50:25:25
// by request, a quarter of the unpack-many requests restricted to a region.
const (
	batchMixEstimate = 50
	batchMixUnpack   = 25
	batchMixPack     = 25
)

var batchTargetPos = []float64{0.3, 0.7}

func newBatchShard(sc scale, seed int64, workers int, fault, workDir string) (*serveInstance, error) {
	st := &serveInstance{sc: sc, workers: workers}
	st.setup.ratioErr = map[string]float64{}

	t0 := time.Now()
	fields := make([]*fxrz.Field, sc.batchItems)
	for i := range fields {
		f, err := nyxTest(i+1, sc.batchNyx)
		if err != nil {
			return nil, err
		}
		fields[i] = f
	}
	train, err := nyxTrain(sc.trainNyx)
	if err != nil {
		return nil, err
	}
	st.setup.genS = time.Since(t0).Seconds()

	var models []model
	for _, codec := range []string{"sz", "zfp"} {
		m, err := trainModel("nyx-"+codec, codec, train, sc.train, workers)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
		st.setup.trainMS = append(st.setup.trainMS, m.trainMS)
	}

	st.cl, err = startCluster(2, workDir, models, serve.Config{
		MaxInFlight: maxInFlight, Parallelism: workers, RatePerClient: generousRate,
		MaxBatch: sc.batchItems,
	})
	if err != nil {
		return nil, err
	}
	ring, err := shard.NewRing(st.cl.bases[0], st.cl.bases)
	if err != nil {
		st.close()
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	var h opHash
	first := true
	for vi, pos := range batchTargetPos {
		lo, hi := eighthRegion(fields[0].Dims)
		var ests, packs, unpacks, regions []*httpItem
		for fi, f := range fields {
			m := models[fi%len(models)]
			serial := m.fw.WithParallelism(1)
			target := targetAt(serial, f, jitter(rng, pos, targetJitter))
			ref, err := newReference(fmt.Sprintf("%s/f%d@%.1f", m.id, fi, pos), serial, f, target, lo, hi)
			if err != nil {
				st.close()
				return nil, err
			}
			st.addReference(&h, ref)
			if first {
				injectFault(fault, ref)
				first = false
			}
			est, pack, unpack, region, err := itemsFor(ref, serial)
			if err != nil {
				st.close()
				return nil, err
			}
			// Alternate owners so every batch splits evenly across the ring,
			// whatever ports the listeners drew.
			// Pairs of items, not single items, alternate: the models
			// alternate per item, and each shard should serve both.
			key := shardKeyFor(ring, st.cl.bases[fi/2%len(st.cl.bases)], fmt.Sprintf("v%d-f%d", vi, fi))
			est.params = "model=" + m.id + "&target=" + formatTarget(target) + "&shard-key=" + key
			pack.params = est.params
			unpack.params = "shard-key=" + key
			region.params = unpack.params
			ests, packs, unpacks, regions = append(ests, est), append(packs, pack), append(unpacks, unpack), append(regions, region)
		}
		fieldsBody := encodeBatch(ests) // estimate-many and pack-many take the same container
		variant := fmt.Sprintf("v%d", vi)
		st.addOp(opEstimate, variant, "/v1/estimate-many", true, ests, fieldsBody)
		st.addOp(opPack, variant, "/v1/pack-many", true, packs, fieldsBody)
		st.addOp(opUnpack, variant, "/v1/unpack-many", true, unpacks, encodeBatch(unpacks))
		st.addOp(opRegion, variant, "/v1/unpack-many?region="+url.QueryEscape(roi.FormatRegion(lo, hi)), true, regions, encodeBatch(regions))
	}
	st.lists = st.mixLists(rng, &h, workers, sc.batchListN, batchMixEstimate, batchMixUnpack, batchMixPack)
	st.setup.hash = h.h

	if err := st.warm(st.kinds[opEstimate][:1]); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// encodeBatch frames items as one /v1/*-many request container.
func encodeBatch(items []*httpItem) []byte {
	out := make([]batch.Item, len(items))
	for i, it := range items {
		out[i] = batch.Item{ID: uint64(i), Params: it.params, Payload: it.body}
	}
	return batch.EncodeRequest(out)
}

// shardKeyFor returns the first key of the form prefix-n the ring places on
// the wanted owner.
func shardKeyFor(ring *shard.Ring, owner, prefix string) string {
	for n := 0; ; n++ {
		key := prefix + "-" + strconv.Itoa(n)
		if ring.Owner(key) == owner {
			return key
		}
	}
}
