package main

import (
	"sync"
	"time"
)

// workload is one traffic mix. Its run drives the service through the
// phases the metrics are read from:
//
//   - fill: cold computes before the timed window (hot-set warming);
//   - window: the timed window, the only phase throughput, the SLO share
//     and the CPU/efficiency accounting cover;
//   - readBack: scan's hits on the keys it filled, sent between its steps
//     but left out of the window's accounting (env.offWindow).
type workload struct {
	name string
	loop string // the load model, for the report
	// limits are the fixed latency limits of the SLO share.
	limits limits
	// tails fixes the tail percentile of each latency series (see
	// README.md for how each was chosen).
	tails map[string]float64
	run   func(e *env) phases
}

type limits struct{ hit, cl, pk time.Duration }

// phases is what a workload run observed.
type phases struct {
	fill, window, readBack collector
	// clMiss and pkMiss name the miss latency series this workload's
	// metrics read, hits the collector of its hits.
	clMiss, pkMiss *[]float64
	hits           *collector
}

// collector accumulates one phase's outcomes. Latencies are seconds.
type collector struct {
	hit, clMiss, pkMiss []float64
	sent                int
	ok                  int
	inSLO               int
	hitBytes            int64
}

func (c *collector) merge(o collector) {
	c.hit = append(c.hit, o.hit...)
	c.clMiss = append(c.clMiss, o.clMiss...)
	c.pkMiss = append(c.pkMiss, o.pkMiss...)
	c.sent += o.sent
	c.ok += o.ok
	c.inSLO += o.inSLO
	c.hitBytes += o.hitBytes
}

// call sends r, checks the response and books its latency into col by
// how the service answered it. window marks the requests the SLO share
// and throughput count. It returns the source ("" on failure).
func (e *env) call(c *conn, r reqSpec, col *collector, window bool) string {
	t0 := time.Now()
	status, body, err := c.post(r)
	lat := time.Since(t0)
	env, ok := e.chk.check(r, status, body, err)
	if window {
		col.sent++
	}
	if !ok {
		return ""
	}
	src := env.Source
	if e.tr != nil && env.TraceID != "" {
		e.tr.miss(env.TraceID, lat)
	}
	limit := e.wl.limits.cl
	if r.kind == "pk" {
		limit = e.wl.limits.pk
	}
	switch {
	case src == "cache":
		col.hit = append(col.hit, lat.Seconds())
		col.hitBytes += int64(len(body))
		limit = e.wl.limits.hit
	case src == "compute" && r.kind == "cl":
		col.clMiss = append(col.clMiss, lat.Seconds())
	case src == "compute":
		col.pkMiss = append(col.pkMiss, lat.Seconds())
	}
	if window {
		col.ok++
		if lat <= limit {
			col.inSLO++
		}
	}
	return src
}

// minScanSteps scan steps run even when the window is shorter.
const minScanSteps = 3

var workloads = []*workload{
	{
		name: "scan",
		loop: "closed loop, 1 caller, 1 connection: per step one fresh lattice cosmology, /v1/cl then /v1/pk at the defaults; hits from a read-back of the filled keys after each step",
		limits: limits{
			hit: 2 * time.Millisecond, cl: 500 * time.Millisecond, pk: 1500 * time.Millisecond,
		},
		tails: map[string]float64{"cl": 0.75, "pk": 0.75, "hit": 0.90},
		run:   runScan,
	},
	{
		name: "hot_keys",
		loop: "closed loop, 2 clients, 2 connections: Zipf(1.1) over the warm grid plus fresh C_l and P(k) keys computed cold before the window",
		limits: limits{
			hit: 2 * time.Millisecond, cl: 500 * time.Millisecond, pk: 1500 * time.Millisecond,
		},
		tails: map[string]float64{"cl": 0.75, "pk": 0.75, "hit": 0.95},
		run:   runHotKeys,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runScan is the parameter-scan user: one caller walks fresh lattice
// cosmologies, requesting C_l and P(k) for each. Every response must be a
// fresh computation; anything else means two draws shared a key. After
// each step the caller reads back the keys filled so far, round robin.
// The read-back is left out of the window's accounting, and the window
// runs until its misses alone have taken the window's length; spread over
// the whole window, the hits meet the same host as the misses.
func runScan(e *env) phases {
	var p phases
	c := newConn(e.base)
	defer c.close()
	var filled []reqSpec
	next := 0 // read-back position in filled
	t0 := e.startWindow()
	for steps := 0; steps < minScanSteps || time.Since(t0)-e.off.wall < e.cfg.window; steps++ {
		cfg := e.gen.next()
		e.missCfgs = append(e.missCfgs, cfg)
		for _, r := range []reqSpec{defaultCl(cfg), defaultPk(cfg)} {
			if src := e.call(c, r, &p.window, true); src != "" && src != "compute" {
				e.chk.fail("scan %s %s served from %q: the draws were not distinct", r.path(), r.body, src)
			}
			filled = append(filled, r)
		}
		e.offWindow(func() {
			for i := 0; i < e.cfg.readBack; i++ {
				e.call(c, filled[next%len(filled)], &p.readBack, false)
				next++
			}
		})
	}
	e.endWindow()
	for i := 0; i < hitProbeN; i++ {
		e.probeKeys = append(e.probeKeys, filled[i%len(filled)])
	}
	p.clMiss, p.pkMiss, p.hits = &p.window.clMiss, &p.window.pkMiss, &p.readBack
	return p
}

// fillHotSet computes the hot set's fresh keys cold, one at a time, and
// draws the traced run's hit probe keys from the hot set the way the
// workload's hits are drawn.
func (e *env) fillHotSet(c *conn, col *collector) hotSet {
	hs := newHotSet(e.gen, e.cfg.hotCl, e.cfg.hotPk)
	e.missCfgs = append(e.missCfgs, hs.cfgs...)
	for _, r := range hs.fill {
		e.call(c, r, col, false)
	}
	pick := newZipfPicker(e.rng(1), hs.keys)
	for i := 0; i < hitProbeN; i++ {
		e.probeKeys = append(e.probeKeys, pick.next())
	}
	return hs
}

// hitLoop sends Zipf-drawn hot keys back to back until end.
func (e *env) hitLoop(c *conn, hs hotSet, stream uint64, end time.Time, col *collector) {
	pick := newZipfPicker(e.rng(stream), hs.keys)
	for time.Now().Before(end) {
		e.call(c, pick.next(), col, true)
	}
}

// runHotKeys is the read traffic: two closed-loop clients draw Zipf keys
// from the warmed hot set.
func runHotKeys(e *env) phases {
	var p phases
	conns := []*conn{newConn(e.base), newConn(e.base)}
	for _, c := range conns {
		defer c.close()
	}
	hs := e.fillHotSet(conns[0], &p.fill)
	cols := make([]collector, len(conns))
	var wg sync.WaitGroup
	end := e.startWindow().Add(e.cfg.window)
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.hitLoop(c, hs, 10+uint64(i), end, &cols[i])
		}()
	}
	wg.Wait()
	e.endWindow()
	for _, col := range cols {
		p.window.merge(col)
	}
	p.clMiss, p.pkMiss, p.hits = &p.fill.clMiss, &p.fill.pkMiss, &p.window
	return p
}
