// Package serve is fxrzd's HTTP layer: the online surface of the paper's
// core claim that fixed-ratio error-bound estimation is cheap enough to sit
// behind an endpoint. /v1/estimate answers "which knob reaches this target
// compression ratio" from a feature vector or a raw field sample without
// ever running a compressor — the property that separates FXRZ from
// search-based FRaZ, whose per-request iterative compression makes online
// serving impractical — while /v1/pack and /v1/unpack run the actual codecs
// through the ParallelCompressor plumbing for clients that want the bytes.
//
// There is one request pipeline (pipeline.go). The three operations are the
// rows of the endpoint table (endpoints.go); each row is mounted twice, as
// /v1/<op> and /v1/<op>-many, and a single call is a batch of one item: both
// wires run decode → charge → route → execute → encode and differ only in
// how the item list is obtained and how the results are written.
//
// The server owns four serving concerns the library does not:
//
//   - a model Registry (LRU cache of trained forests, single-flight cold
//     loads from the Save/Load persistence format),
//   - admission control (QoS priority classes over a bounded slot pool —
//     estimate > unpack > pack, each with a guaranteed share plus
//     work-conserving borrowing, see internal/qos — sharing the pool.Split
//     budget rule so request concurrency and intra-field workers do not
//     multiply, per-request timeouts, request body caps),
//   - per-client rate limiting (token buckets keyed by X-Fxrz-Client or the
//     remote address, see internal/ratelimit; refusals carry a Retry-After
//     computed from the client's actual bucket refill time), and
//   - observability (per-endpoint counters and latency histograms through
//     internal/obs, exported at /metrics with p50/p90/p99).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/pool"
	"github.com/fxrz-go/fxrz/internal/qos"
	"github.com/fxrz-go/fxrz/internal/ratelimit"
	"github.com/fxrz-go/fxrz/internal/shard"
)

// ClientHeader names the request header that identifies a client to the
// rate limiter; requests without it are keyed by remote address. The shard
// router forwards it on sub-batches so every shard charges the same client.
const ClientHeader = shard.ClientHeader

// Config sizes the server's serving limits. The zero value of every field
// selects a production-safe default.
type Config struct {
	// ModelsDir is the directory of .fxm model files the registry serves.
	ModelsDir string
	// CacheSize caps resident models in the registry (default 8).
	CacheSize int
	// MaxInFlight bounds concurrently admitted heavy requests (estimate,
	// pack, unpack); excess requests are shed with 429 immediately rather
	// than queued. Default: the worker budget, one request per worker.
	MaxInFlight int
	// MaxBodyBytes caps request bodies (default 256 MiB — a 384³ float32
	// field with headroom). Oversized requests get 413.
	MaxBodyBytes int64
	// Timeout bounds each request from before its body is read (default 60s;
	// a forwarded X-Fxrz-Deadline-Us can only shorten it). Expiry is checked
	// before each item executes; an expired item gets 503.
	Timeout time.Duration
	// Parallelism is the total intra-field worker budget shared by all
	// admitted requests (0 = all cores), divided by pool.Split: with
	// MaxInFlight requests admitted, each runs its codec and analysis
	// passes with budget/MaxInFlight workers, so admission × inner workers
	// stays at the configured budget.
	Parallelism int
	// RatePerClient caps each client's sustained request rate on the heavy
	// endpoints, in requests/second (token bucket, burst RateBurst).
	// 0 disables per-client rate limiting.
	RatePerClient float64
	// RateBurst is the per-client token-bucket depth (default:
	// ceil(RatePerClient), at least 1).
	RateBurst int
	// MaxBatch caps the item count of one /v1/*-many request (default 64).
	// Larger batches get 413 — the client splits, instead of one request
	// monopolising the admission pool.
	MaxBatch int
	// Peers is the static shard ring: the base URLs of every fxrzd
	// instance, this one included. When set, incoming /v1/*-many batches
	// are split by rendezvous-hashed owner and the remote sub-batches
	// forwarded (internal/shard); empty means single-instance serving.
	Peers []string
	// Self is this instance's own entry in Peers (required with Peers).
	Self string
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 8
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = pool.Workers(c.Parallelism)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	return c
}

// Server is the fxrzd request handler set. Create with NewServer, mount
// with Handler.
type Server struct {
	cfg    Config
	reg    *Registry
	admit  *qos.Controller
	limits *ratelimit.Limiter
	// router scatter-gathers /v1/*-many batches across the shard ring;
	// nil when Config.Peers is empty (single-instance serving).
	router *shard.Router
	// inner is the per-request intra-field worker budget under full
	// admission, per the pool.Split rule.
	inner int
}

// NewServer builds a server from cfg (see Config for defaults). An invalid
// shard ring (Self missing from Peers, duplicates) panics: commands
// validate the peer list at flag-parse time with shard.NewRing, so reaching
// NewServer with a bad ring is a programming error.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	_, inner := pool.Split(pool.Workers(cfg.Parallelism), cfg.MaxInFlight)
	obs.SetGauge("serve/admission_slots", int64(cfg.MaxInFlight))
	obs.SetGauge("serve/workers_per_request", int64(inner))
	var router *shard.Router
	if len(cfg.Peers) > 0 {
		var err error
		router, err = shard.NewRouter(cfg.Self, cfg.Peers)
		if err != nil {
			panic(fmt.Sprintf("serve: invalid shard ring: %v", err))
		}
	}
	classes := make([]qos.Class, len(endpoints))
	for _, ep := range endpoints {
		classes[ep.class] = qos.Class{Name: ep.name, Weight: ep.weight}
	}
	return &Server{
		cfg:    cfg,
		reg:    NewRegistry(cfg.ModelsDir, cfg.CacheSize),
		admit:  qos.NewController(cfg.MaxInFlight, classes),
		limits: ratelimit.New(ratelimit.Config{Rate: cfg.RatePerClient, Burst: cfg.RateBurst}),
		router: router,
		inner:  inner,
	}
}

// Registry exposes the model cache (cmd/fxrzd logs it; tests inspect it).
func (s *Server) Registry() *Registry { return s.reg }

// ShardRouter exposes the scatter-gather router — nil without Config.Peers.
// Tests use it to inject the retry sleeper and attempt timeout.
func (s *Server) ShardRouter() *shard.Router { return s.router }

// Handler returns the routed handler: the public v1 API plus health and
// metrics endpoints. Every endpoint row is mounted on both wires.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i := range endpoints {
		ep := &endpoints[i]
		for _, many := range []bool{false, true} {
			route := ep.route(many)
			mux.Handle("POST /v1/"+route, s.instrument(route, func(w *statusWriter, r *http.Request) { s.serve(w, r, ep, many) }))
		}
	}
	mux.Handle("GET /v1/models", s.instrument("models", s.handleModels))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", obs.Handler())
	return mux
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// instrument wraps a route with its request/error counters and latency
// histogram. Everything else a heavy request pays — rate limit, admission,
// deadline, body cap — is the pipeline's (Server.serve).
func (s *Server) instrument(route string, h func(*statusWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.Inc("serve/requests/" + route)
		defer obs.Span("serve/latency/" + route)()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if sw.code >= 400 {
			obs.Inc("serve/errors/" + route)
		}
	})
}

// clientID keys the rate limiter: the ClientHeader when the caller sends
// one, else the remote host (without the per-connection port, so one client
// is one bucket across keep-alive connections).
func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// statusWriter records the status code for the error counters. Handlers get
// the wrapper itself, so the pipeline can hand net/http the writer beneath it
// where only that one will do (the body cap's Connection: close).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

// errorStatus maps pipeline errors to HTTP statuses: client-caused ones
// (unknown model, malformed container, oversized body) get 4xx, an expired
// request budget gets 503, anything else is a 500.
func errorStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrBadModelID), errors.Is(err, errBadRequest),
		errors.Is(err, compress.ErrCorrupt):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line only.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// bufPool recycles the buffers request bodies are staged in: every payload is
// decoded from bytes in hand, and under steady load the staging costs no
// allocation.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the capacity a returned buffer may retain. A buffer grown
// by one oversized request is dropped rather than pinned in the pool forever.
const maxPooledBuf = 32 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// readBody drains a request body into a pooled buffer. The returned bytes
// alias the buffer — valid until putBuf. An over-cap body keeps its
// MaxBytesError (413); any other read failure is the client's (400).
func readBody(body io.Reader, buf *bytes.Buffer) ([]byte, error) {
	if _, err := buf.ReadFrom(body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, tooBig
		}
		return nil, badRequestf("%v", err)
	}
	return buf.Bytes(), nil
}

// errBadRequest tags client-caused failures for errorStatus.
var errBadRequest = errors.New("bad request")

// badRequestf wraps a client-caused error.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// fail is the error exit of a request that never became items.
func fail(w http.ResponseWriter, err error) {
	writeError(w, errorStatus(err), err.Error())
}

// ModelsResponse is the JSON body of GET /v1/models.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModels(w *statusWriter, r *http.Request) {
	models, err := s.reg.List()
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ModelsResponse{Models: models})
}

// HealthResponse is the JSON body of GET /healthz. Classes reports the QoS
// admission state per priority class (reserved share and current usage), in
// priority order; ModelCache and ModelCount give a load balancer enough to
// weight shards (a cold cache or an empty models directory serves slower);
// Shard reports ring membership when multi-instance serving is configured.
type HealthResponse struct {
	Status         string            `json:"status"`
	InFlight       int               `json:"in_flight"`
	AdmissionSlots int               `json:"admission_slots"`
	Classes        []qos.ClassStatus `json:"classes"`
	ModelCount     int               `json:"model_count"`
	ModelCache     CacheStatus       `json:"model_cache"`
	ResidentModels []string          `json:"resident_models"`
	Shard          *ShardStatus      `json:"shard,omitempty"`
}

// CacheStatus is the model registry's cache accounting in HealthResponse.
type CacheStatus struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Resident int   `json:"resident"`
	Capacity int   `json:"capacity"`
}

// ShardStatus reports the ring membership of a sharded instance.
type ShardStatus struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
}

func (s *Server) handleHealthz(w *statusWriter, r *http.Request) {
	hits, misses := s.reg.Stats()
	modelCount := 0
	if models, err := s.reg.List(); err == nil {
		modelCount = len(models)
	}
	resp := HealthResponse{
		Status:         "ok",
		InFlight:       s.admit.Total(),
		AdmissionSlots: s.admit.Capacity(),
		Classes:        s.admit.Status(),
		ModelCount:     modelCount,
		ModelCache: CacheStatus{
			Hits:     hits,
			Misses:   misses,
			Resident: len(s.reg.Resident()),
			Capacity: s.cfg.CacheSize,
		},
		ResidentModels: s.reg.Resident(),
	}
	if s.router != nil {
		ring := s.router.Ring()
		resp.Shard = &ShardStatus{Self: ring.Self(), Peers: ring.Members()}
	}
	writeJSON(w, http.StatusOK, resp)
}
