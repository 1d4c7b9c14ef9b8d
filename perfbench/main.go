// Command perfbench is the repository benchmark. It drives the spectrum
// daemon's default configuration (internal/serve with the daemon's stock
// options, warmed with the default warm grid) over loopback HTTP through
// one of two seeded workloads, checks every response, and prints its
// metrics: the end-to-end metrics by default, the per-layer metrics of a
// separate traced run with -trace 1. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer each per-layer metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"plinger"
	"plinger/internal/serve"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// setupProbes is how many extra cold set-ups (each in a fresh process)
	// join the run's own set-up in the setup_s median.
	setupProbes int
	// accuracySubset is how many scan cosmologies the accuracy pass
	// compares with the exact path, besides SCDM.
	accuracySubset int
	// hotCl and hotPk size the hot set's fresh keys; readBack is the
	// number of hits scan reads back after each step.
	hotCl, hotPk, readBack int
	// root is the repository root (its source tree names the digest
	// ledger); state is the directory the ledger lives in.
	root, state string
	// tamper, when non-nil, rewrites response bodies before the checks
	// (the harness's own test).
	tamper func([]byte) []byte
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: scan or hot_keys")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics")
		root    = flag.String("root", ".", "repository root")
		state   = flag.String("state", ".bench_build/perfbench", "directory of the cross-run digest ledger")
		probe   = flag.Bool("setup-probe", false, "measure one cold set-up, print its seconds and exit")
	)
	flag.Parse()
	if *probe {
		s, err := setupProbe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return
	}
	if workloadByName(*wl) == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload scan|hot_keys, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *wl, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		setupProbes: 3, accuracySubset: 2, hotCl: 24, hotPk: 16, readBack: 300,
		root: *root, state: *state,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		for _, m := range res.violations {
			fmt.Fprintln(os.Stderr, "perfbench: violation:", m)
		}
		os.Exit(1)
	}
}

// env is the state one run shares across its phases.
type env struct {
	cfg  runConfig
	wl   *workload
	svc  *serve.Service
	base string
	gen  *cosmoGen
	chk  *checker
	tr   *tracer // nil on untraced runs
	// missCfgs are the cosmologies the run computed cold, in order.
	missCfgs []plinger.Config
	// probeKeys are the traced run's in-process hit probe requests, drawn
	// the way the workload draws its hits.
	probeKeys []reqSpec
	// begin, w0 and w1 are snapshots after set-up and at the window's
	// start and end.
	begin, w0, w1 snapshot
	// off is what the window's span spent outside its accounting.
	off offTotals
}

// offTotals sums the counters a window's metrics read over the stretches
// of the window left out of its accounting.
type offTotals struct {
	wall, cpu       time.Duration
	alloc           uint64
	gcCPU, totalCPU float64
	requests, hits  uint64
}

// offWindow runs f inside the window but books its wall time, CPU, heap
// allocation and requests to e.off, which the window's metrics subtract.
func (e *env) offWindow(f func()) {
	a := e.snap()
	f()
	b := e.snap()
	e.off.wall += b.at.Sub(a.at)
	e.off.cpu += b.cpu - a.cpu
	e.off.alloc += b.alloc - a.alloc
	e.off.gcCPU += b.gcCPU - a.gcCPU
	e.off.totalCPU += b.totalCPU - a.totalCPU
	e.off.requests += b.stats.Requests - a.stats.Requests
	e.off.hits += b.stats.Hits - a.stats.Hits
}

// rng returns the seed's random stream number stream.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.cfg.seed, stream))
}

func (e *env) startWindow() time.Time {
	e.w0 = e.snap()
	return e.w0.at
}

func (e *env) endWindow() { e.w1 = e.snap() }

// serviceOptions is the daemon's stock configuration (cmd/plingerd's flag
// defaults), with request logging discarded.
func serviceOptions() serve.Options {
	return serve.Options{
		Defaults:       serve.DefaultDefaults(),
		CacheSize:      256,
		ModelCacheSize: 4,
		MaxConcurrent:  2,
		MaxQueue:       64,
		SlowRequest:    2 * time.Second,
	}
}

// server is a running service behind a loopback HTTP listener.
type server struct {
	svc  *serve.Service
	http *http.Server
	base string
	done chan struct{}
}

// startServer builds the service, computes the default warm grid and
// starts serving on a loopback port: the set-up setup_s times. wrap, when
// non-nil, wraps the service's handler (the traced run's spans).
func startServer(wrap func(http.Handler) http.Handler) (*server, error) {
	svc := serve.New(serviceOptions())
	cls, pks := serve.DefaultWarmGrid(svc.Defaults())
	if _, err := svc.Warm(context.Background(), cls, pks); err != nil {
		svc.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{svc: svc, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.http.Close()
	<-s.done
	s.svc.Close()
}

// setupProbe is one cold set-up in this (fresh) process.
func setupProbe() (float64, error) {
	t0 := time.Now()
	s, err := startServer(nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	s.close()
	return d, nil
}

// probeSetups runs n set-up probes, one fresh process each, so every
// sample pays the process-wide cold costs (Bessel tables) the run's own
// set-up paid.
func probeSetups(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		b, err := exec.CommandContext(ctx, exe, "-setup-probe").Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// run performs one benchmark run.
func run(cfg runConfig) (*result, error) {
	e := &env{cfg: cfg, wl: workloadByName(cfg.workload), gen: newCosmoGen(cfg.seed), chk: newChecker()}
	e.chk.tamper = cfg.tamper
	var setups []float64
	if !cfg.trace {
		var err error
		if setups, err = probeSetups(cfg.setupProbes); err != nil {
			return nil, err
		}
	}
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		e.tr = &tracer{}
		wrap = e.tr.wrap
	}
	t0 := time.Now()
	srv, err := startServer(wrap)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	defer srv.close()
	e.svc, e.base = srv.svc, srv.base
	e.begin = e.snap()
	if cfg.trace {
		e.tr.collect(e.svc)
		defer e.tr.stopCollect()
	}

	p := e.wl.run(e)

	var ms []metric
	if cfg.trace {
		ms = e.layerMetrics(&p)
	} else {
		acc, err := e.accuracy()
		if err != nil {
			return nil, err
		}
		ms = e.endToEnd(&p, setups, acc)
	}
	res := &result{workload: e.wl, steal: stealFrac(e.w0, e.w1)}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			e.chk.fail("metric %s is not finite", m.name)
			m.value = 0
		}
		res.add(m)
	}
	src, err := sourceHash(cfg.root)
	if err != nil {
		return nil, err
	}
	if err := verifyLedger(filepath.Join(cfg.state, "digests-"+src+".json"), e.chk.digests(), e.chk); err != nil {
		return nil, err
	}
	res.Attempted = e.chk.attempted.Load()
	res.Failed = e.chk.failed.Load()
	res.Correct = res.Failed == 0
	res.failFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.violations = e.chk.msgs
	return res, nil
}

// result is a run's report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload   *workload
	rows       []metric
	failFrac   float64
	steal      float64
	violations []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(m metric) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	r.rows = append(r.rows, m)
}

// print writes the human-readable table, then the JSON result line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %s\n", r.workload.name, r.workload.loop)
	for _, m := range r.rows {
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-8s n=%d attempted, %d failed or refused\n", "fail_frac", r.failFrac, "ratio", r.Attempted, r.Failed)
	fmt.Fprintf(w, "  host CPU stolen by other guests during the window: %.1f%%\n", 100*r.steal)
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Fprintln(w, string(b))
}
