package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"plinger"
	"plinger/internal/core"
	"plinger/internal/cosmology"
	"plinger/internal/obs"
	runner "plinger/internal/plinger"
	"plinger/internal/recomb"
	"plinger/internal/serve"
	"plinger/internal/spectra"
	"plinger/internal/thermo"
)

// tracer holds the traced run's benchmark-owned observations: spans
// around the service's HTTP handler, the client-side latency of every
// computed response by its sweep trace id, and the service's own sweep
// traces, collected while the run goes on.
type tracer struct {
	mu     sync.Mutex
	hitUS  []float64                    // Handler().ServeHTTP wall time of each cache hit
	missMS map[string]float64           // sweep trace id -> client-side latency (ms)
	traces map[string]obs.TraceSnapshot // the service's sweep traces, by id

	svc      *serve.Service
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// wrap times every ServeHTTP call and keeps the cache hits' times (the
// handler marks them with X-Plinger-Source: cache).
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if w.Header().Get("X-Plinger-Source") == "cache" {
			t.mu.Lock()
			t.hitUS = append(t.hitUS, float64(d.Nanoseconds())/1e3)
			t.mu.Unlock()
		}
	})
}

// miss records the client-side latency of the computed response whose
// sweep trace is id.
func (t *tracer) miss(id string, lat time.Duration) {
	t.mu.Lock()
	if t.missMS == nil {
		t.missMS = map[string]float64{}
	}
	t.missMS[id] = float64(lat.Nanoseconds()) / 1e6
	t.mu.Unlock()
}

// traceCollectEvery is how often the traced run copies the service's
// sweep trace ring, which holds only the last few dozen traces: often
// enough that no trace leaves the ring unread.
const traceCollectEvery = 250 * time.Millisecond

// collect starts copying svc's sweep traces until stopCollect.
func (t *tracer) collect(svc *serve.Service) {
	t.svc, t.stop, t.done = svc, make(chan struct{}), make(chan struct{})
	t.traces = map[string]obs.TraceSnapshot{}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(traceCollectEvery)
		defer tick.Stop()
		for {
			t.collectOnce()
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

func (t *tracer) collectOnce() {
	for _, tr := range t.svc.Traces(1 << 20) {
		t.mu.Lock()
		t.traces[tr.ID] = tr // a later copy of a trace supersedes an earlier one
		t.mu.Unlock()
	}
}

// stopCollect stops the collection, waits for it, and copies the ring one
// last time.
func (t *tracer) stopCollect() {
	t.stopOnce.Do(func() {
		close(t.stop)
		<-t.done
		t.collectOnce()
	})
}

// layerMetrics assembles the per-layer metrics of a traced run: the served
// traffic's counters, sweep traces and handler spans, then a post-window
// in-process probe of the hit path and a replay of the run's first miss
// grid through the evolution core.
func (e *env) layerMetrics(p *phases) []metric {
	b, w0, w1 := e.begin, e.w0, e.w1
	e.tr.stopCollect()
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name: name, value: v, unit: unit, note: note})
	}

	// serve: the hit path, from the workload's own hits and an in-process
	// probe over the same keys.
	e.tr.mu.Lock()
	handlerHits := append([]float64(nil), e.tr.hitUS...)
	e.tr.mu.Unlock()
	if len(handlerHits) == 0 {
		e.chk.fail("traced run: no cache hits reached the handler")
	}
	handlerUS := quantile(handlerHits, 0.5)
	hp := e.hitProbe()
	add("serve.handler_hit_us", handlerUS, "us", fmt.Sprintf("n=%d workload hits, median ServeHTTP", len(handlerHits)))
	add("serve.lookup_hit_us", hp.lookupUS, "us", fmt.Sprintf("n=%d Service.ComputeCl/ComputePk on the workload's hit keys, idle, median", len(e.probeKeys)))
	add("serve.codec_us", hp.bareUS-hp.lookupUS, "us", fmt.Sprintf("ServeHTTP minus lookup, same keys, idle: %.4g - %.4g", hp.bareUS, hp.lookupUS))
	add("serve.allocs_per_hit", hp.allocs, "count", fmt.Sprintf("n=%d in-process ServeHTTP hits, mean", len(e.probeKeys)))
	hc := p.hits
	add("serve.resp_bytes", float64(hc.hitBytes)/float64(max(len(hc.hit), 1)), "bytes", "mean hit response body")

	// serve: counters and traces of the served traffic.
	off := e.off
	reqs := float64(w1.stats.Requests - w0.stats.Requests - off.requests)
	add("serve.hit_ratio", float64(w1.stats.Hits-w0.stats.Hits-off.hits)/max(reqs, 1), "ratio", "window hits / window requests")
	spans := e.servedSpans()
	cl, pk := spans.of("cl"), spans.of("pk")
	add("serve.queue_wait_ms", spans.all.mean("queue_wait"), "ms", fmt.Sprintf("n=%d sweep traces (fill + window), mean", spans.all.n))
	add("serve.rejected", float64(w1.stats.Rejected-b.stats.Rejected), "count", "fill + window")
	add("serve.cache_evictions", float64(w1.stats.Cache.Evictions-b.stats.Cache.Evictions), "count", "fill + window")
	add("serve.model_builds", float64(w1.stats.Models.Builds-b.stats.Models.Builds), "count", "fill + window")

	// net/http: the client-side hit time the handler does not account for,
	// both medians over the workload's own hits.
	add("net.loopback_us", quantile(hc.hit, 0.5)*1e6-handlerUS, "us", "client hit median minus handler median, workload hits")

	// facade, dispatch, spectra: the served C_l and P(k) sweep traces. Every
	// C_l miss is a fresh cosmology, so its model_acquire span is the model
	// build (plinger.New and the model's shared pool).
	clNote := fmt.Sprintf("n=%d served C_l sweep traces, mean", cl.n)
	add("model.build_ms", cl.mean("model_acquire"), "ms", "model_acquire span; "+clNote)
	add("core.eval_tables_ms", cl.mean("eval_tables"), "ms", clNote)
	add("dispatch.sweep_ms", cl.mean("evolve"), "ms", "evolve span (the whole dispatched sweep); "+clNote)
	ds := w1.sweep
	ds.sub(b.sweep)
	workers := float64(w1.stats.Workers)
	add("dispatch.modes_per_req", ds.modes/max(ds.sweeps, 1), "count", fmt.Sprintf("n=%.0f served sweeps", ds.sweeps))
	add("dispatch.busy_frac", ds.modeSec/max(ds.sweepSec*workers, 1e-12), "ratio", "mode busy / (sweep wall x workers)")
	add("dispatch.idle_ms", (ds.sweepSec*workers-ds.modeSec)/max(ds.sweeps, 1)*1e3, "ms", "idle worker time per sweep")
	add("core.mode_busy_ms", ds.modeSec/max(ds.modeCount, 1)*1e3, "ms", fmt.Sprintf("n=%.0f served modes, mean", ds.modeCount))
	cr := e.coreReplay()
	add("core.steps_per_req", cr.steps, "count", fmt.Sprintf("%d modes of a C_l request's grid in %d lockstep batches; a batch's steps count once per member", cr.modes, cr.batches))
	add("core.rhs_evals_per_req", cr.evals, "count", "same grid, counted the same way")
	add("core.mflops", cr.flops/max(cr.busy, 1e-12)/1e6, "Mflop/s", "op-count flops / busy seconds, one core")
	add("spectra.source_spline_ms", cl.mean("source_spline"), "ms", clNote)
	add("spectra.project_ms", cl.mean("project"), "ms", clNote)
	add("spectra.lspline_ms", cl.mean("lspline"), "ms", clNote)
	add("spectra.pk_post_ms", pk.mean("postprocess"), "ms", fmt.Sprintf("n=%d served P(k) sweep traces, mean", pk.n))
	add("specfunc.bessel_tables_ms", cl.mean("bessel_tables"), "ms", clNote)
	add("specfunc.bessel_cache_len", float64(w1.stats.BesselTables), "count", "at the window's end")

	// Go runtime over the window.
	ok := float64(max(p.window.ok, 1))
	add("runtime.alloc_mb_per_req", float64(w1.alloc-w0.alloc-off.alloc)/(1<<20)/ok, "MB", "heap allocated in the window / successful responses")
	add("runtime.gc_cpu_frac", (w1.gcCPU-w0.gcCPU-off.gcCPU)/max(w1.totalCPU-w0.totalCPU-off.totalCPU, 1e-12), "ratio", "GC CPU / all CPU, window")

	// harness.
	add("harness.trace_overhead_frac", hp.wrappedUS/hp.bareUS-1, "ratio", "spanned vs bare ServeHTTP on the probe's hits")
	cov := e.clCoverage(spans)
	add("harness.cl_layer_coverage", cov.frac, "ratio",
		fmt.Sprintf("n=%d C_l misses: (model_acquire + evolve + source spline + project + lspline) / client-side latency %.1f ms (trace wall %.1f ms)",
			cov.n, cov.clientMS/float64(max(cov.n, 1)), cov.traceMS/float64(max(cov.n, 1))))
	if e.wl.name == "scan" && !(cov.frac >= minClCoverage) {
		e.chk.fail("traced scan: the named layers cover %.3f of the C_l miss latency, below %.2f", cov.frac, minClCoverage)
	}
	return out
}

func (s *sweepSeries) sub(o sweepSeries) {
	s.sweeps -= o.sweeps
	s.modes -= o.modes
	s.sweepSec -= o.sweepSec
	s.modeSec -= o.modeSec
	s.modeCount -= o.modeCount
}

// spanSums accumulates the span durations (ms) of a set of traces by name.
type spanSums struct {
	n   int
	sum map[string]float64
}

func (s *spanSums) add(t obs.TraceSnapshot) {
	if s.sum == nil {
		s.sum = map[string]float64{}
	}
	s.n++
	for _, sp := range t.Spans {
		s.sum[sp.Name] += sp.DurMS
	}
}

func (s spanSums) mean(name string) float64 { return s.sum[name] / float64(max(s.n, 1)) }

// servedTraces are the finished sweep traces of the run's computes (the
// set-up's warm grid excluded): all of them, and by label ("cl", "pk").
type servedTraces struct {
	list    []obs.TraceSnapshot
	all     spanSums
	byLabel map[string]spanSums
}

func (s servedTraces) of(label string) spanSums { return s.byLabel[label] }

func (e *env) servedSpans() servedTraces {
	s := servedTraces{byLabel: map[string]spanSums{}}
	e.tr.mu.Lock()
	defer e.tr.mu.Unlock()
	for _, t := range e.tr.traces {
		if t.TotalMS == 0 || !t.Started.After(e.begin.at) || t.Started.After(e.w1.at) {
			continue
		}
		s.list = append(s.list, t)
		s.all.add(t)
		l := s.byLabel[t.Label]
		l.add(t)
		s.byLabel[t.Label] = l
	}
	return s
}

// minClCoverage is the share of a scan C_l miss the named layers must
// account for.
const minClCoverage = 0.9

// clLayers are the top-level spans of a C_l miss the coverage names:
// model build, the dispatched sweep, source spline, projection, l spline.
var clLayers = []string{"model_acquire", "evolve", "source_spline", "project", "lspline"}

type coverage struct {
	n                 int
	clientMS, traceMS float64 // summed over the matched misses
	frac              float64 // summed layer spans / clientMS
}

// clCoverage matches the served C_l sweep traces to the client-side
// latencies of the responses that carried their ids, and returns the
// share of that latency the named layers' spans account for. What the
// share leaves out is the rest of the served miss: queue wait, response
// assembly, the JSON encode and HTTP.
func (e *env) clCoverage(s servedTraces) coverage {
	var c coverage
	var layers float64
	e.tr.mu.Lock()
	defer e.tr.mu.Unlock()
	for _, t := range s.list {
		lat, ok := e.tr.missMS[t.ID]
		if t.Label != "cl" || !ok {
			continue
		}
		c.n++
		c.clientMS += lat
		c.traceMS += t.TotalMS
		for _, sp := range t.Spans {
			for _, name := range clLayers {
				if sp.Name == name {
					layers += sp.DurMS
				}
			}
		}
	}
	c.frac = layers / c.clientMS // NaN, a violation, when nothing matched
	return c
}

type hitProbeResult struct {
	lookupUS  float64 // Service.ComputeCl/ComputePk on a cached key
	bareUS    float64 // bare Handler().ServeHTTP on the same key
	wrappedUS float64 // the same behind the benchmark's span
	allocs    float64
}

// hitProbeN is the number of in-process hit probe requests.
const hitProbeN = 2000

// hitProbe measures the hit path in process, after the window, on the
// workload's own hit keys: the lookup alone, then the handler bare and
// behind the traced run's span, interleaved, and the allocations of one
// handler hit. Lookup and handler see the same keys under the same
// (idle) conditions, so their difference is the handler's own cost.
func (e *env) hitProbe() hitProbeResult {
	var r hitProbeResult
	ctx := context.Background()
	type decoded struct {
		cl *serve.ClRequest
		pk *serve.PkRequest
	}
	dec := make([]decoded, len(e.probeKeys))
	for i, k := range e.probeKeys {
		var err error
		if k.kind == "cl" {
			dec[i].cl = new(serve.ClRequest)
			err = json.Unmarshal(k.body, dec[i].cl)
		} else {
			dec[i].pk = new(serve.PkRequest)
			err = json.Unmarshal(k.body, dec[i].pk)
		}
		if err != nil {
			e.chk.fail("hit probe: %s: %v", k.id(), err)
			return r
		}
	}
	lookup := make([]float64, len(dec))
	for i, d := range dec {
		var meta serve.Meta
		var err error
		t0 := time.Now()
		if d.cl != nil {
			_, meta, err = e.svc.ComputeCl(ctx, *d.cl)
		} else {
			_, meta, err = e.svc.ComputePk(ctx, *d.pk)
		}
		lookup[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil || meta.Source != serve.SourceCache {
			e.chk.fail("hit probe: %s: source %q, err %v", e.probeKeys[i].id(), meta.Source, err)
			return r
		}
	}
	r.lookupUS = quantile(lookup, 0.5)

	bare := e.svc.Handler()
	wrapped := (&tracer{}).wrap(bare)
	maxBody := 0
	serveOnce := func(h http.Handler, k reqSpec) float64 {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, k.path(), bytes.NewReader(k.body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := float64(time.Since(t0).Nanoseconds()) / 1e3
		if rec.Code != http.StatusOK || rec.Header().Get("X-Plinger-Source") != "cache" {
			e.chk.fail("hit probe: %s: status %d, source %q", k.id(), rec.Code, rec.Header().Get("X-Plinger-Source"))
		}
		maxBody = max(maxBody, rec.Body.Len())
		return d
	}
	bt, wt := make([]float64, len(dec)), make([]float64, len(dec))
	for i, k := range e.probeKeys {
		// Alternate which goes first, so neither gains from the other
		// having just warmed the caches.
		if i%2 == 0 {
			bt[i] = serveOnce(bare, k)
			wt[i] = serveOnce(wrapped, k)
		} else {
			wt[i] = serveOnce(wrapped, k)
			bt[i] = serveOnce(bare, k)
		}
	}
	r.bareUS, r.wrappedUS = quantile(bt, 0.5), quantile(wt, 0.5)

	// Allocations: requests and recorders (with bodies grown to the largest
	// response) are built before the count starts, so only ServeHTTP's own
	// allocations count.
	reqs := make([]*http.Request, len(dec))
	recs := make([]*httptest.ResponseRecorder, len(dec))
	for i, k := range e.probeKeys {
		reqs[i] = httptest.NewRequest(http.MethodPost, k.path(), bytes.NewReader(k.body))
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(2 * maxBody)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		bare.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	r.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(len(reqs), 1))
	return r
}

// coreResult is the evolution core replay's work count.
type coreResult struct {
	modes, batches      int
	steps, evals, flops float64
	busy                float64 // seconds
}

// coreReplay evolves the k grid of the run's first miss C_l request
// through core.Model.EvolveBatchWith the way the served fast path does:
// the coarse grid the facade evolves, split into the same consecutive
// KBatch-sized lockstep blocks the shared pool hands out, with the served
// mode parameters. It sums, over the grid's modes, the integrator steps
// and right-hand-side evaluations each mode took part in (a batch's steps
// count once per member) and the op-count flops. The core model is built
// the way plinger.New builds it, which keeps its core model unexported.
func (e *env) coreReplay() coreResult {
	var r coreResult
	if len(e.missCfgs) == 0 {
		e.chk.fail("core replay: the run computed no miss cosmologies")
		return r
	}
	mdl, err := coreModel(e.missCfgs[0])
	if err != nil {
		e.chk.fail("core replay: %v", err)
		return r
	}
	d := serve.DefaultDefaults()
	tau0, tauRec := mdl.BG.Tau0(), mdl.TH.TauRec()
	ks := spectra.ClGrid(d.LMaxCl, tau0, d.NK)
	if kr := spectra.SafeKRefine(d.KRefine, d.NK, ks[0], ks[len(ks)-1], tauRec); kr > 1 {
		if coarse := spectra.RefineCoarseGrid(ks, kr); len(coarse) < d.NK {
			ks = coarse
		}
	}
	mode := core.Params{
		LMax: 24, Gauge: core.ConformalNewtonian, KeepSources: true, FastEvolve: true, KBatch: d.KBatch,
	}
	mdl.EnsureEvalTables(nil)
	sc := core.NewScratch()
	for _, blk := range runner.BatchBlocks(len(ks), d.KBatch) {
		lo, hi := blk[0], blk[1]
		rs, err := mdl.EvolveBatchWith(ks[lo:hi], mode, nil, sc)
		if err != nil {
			e.chk.fail("core replay: k=%g..%g: %v", ks[lo], ks[hi-1], err)
			return r
		}
		r.batches++
		for _, res := range rs {
			r.modes++
			r.steps += float64(res.Stats.Steps)
			r.evals += float64(res.Stats.Evals)
			r.flops += res.Flops
			r.busy += res.Seconds
		}
	}
	return r
}

// coreModel builds the evolution core's model of cfg as plinger.New does.
func coreModel(cfg plinger.Config) (*core.Model, error) {
	p := cosmology.Params{
		H: cfg.H, OmegaC: cfg.OmegaC, OmegaB: cfg.OmegaB,
		OmegaLambda: cfg.OmegaLambda, TCMB: cfg.TCMB, YHe: cfg.YHe,
		NNuMassless: cfg.NNuMassless, NNuMassive: cfg.NNuMassive,
		MNuEV: cfg.MNuEV, SpectralIndex: cfg.SpectralIndex,
	}
	newBG := cosmology.New
	if cfg.Flatten {
		newBG = cosmology.NewFlattened
	}
	bg, err := newBG(p)
	if err != nil {
		return nil, fmt.Errorf("background: %w", err)
	}
	th, err := thermo.New(bg, recomb.Options{})
	if err != nil {
		return nil, fmt.Errorf("thermodynamics: %w", err)
	}
	return core.NewModel(bg, th), nil
}
