package main

import (
	"encoding/json"
	"fmt"
	"math"

	"plinger"
	"plinger/internal/serve"
)

// accuracySeed draws the accuracy pass's scan cosmologies: a fixed subset,
// the same in every run, so the accuracy metrics compare across runs.
const accuracySeed = 0

// convNK is the exact path's converged resolution: ROADMAP records that
// the exact spectra at NK 400 and NK 800 agree.
const convNK = 400

// accuracyResult is the accuracy pass's outcome.
type accuracyResult struct {
	n        int     // cosmologies compared with the exact path
	maxRel   float64 // worst served-vs-exact deviation
	maxWhere string  // which cosmology
	maxL     int
	convRel  float64 // served default SCDM vs the converged exact spectrum
	convL    int
}

// accuracy runs outside the timed window. It asks the service for the
// exact-path spectrum at the served resolution for SCDM and a fixed
// subset of scan cosmologies, and compares each with the served fast-path
// spectrum; then compares the served default SCDM spectrum with the exact
// spectrum at NK 400. Every request goes through the same HTTP API and
// correctness checks as the workload's.
func (e *env) accuracy() (accuracyResult, error) {
	c := newConn(e.base)
	defer c.close()
	var res accuracyResult
	cfgs := []*plinger.Config{nil} // nil: the default SCDM
	g := newCosmoGen(accuracySeed)
	for i := 0; i < e.cfg.accuracySubset; i++ {
		cfg := g.next()
		cfgs = append(cfgs, &cfg)
	}
	get := func(r serve.ClRequest) (*serve.ClResponse, error) {
		spec := newClSpec(r)
		status, body, err := c.post(spec)
		if env, ok := e.chk.check(spec, status, body, err); ok {
			var out serve.ClResponse
			return &out, json.Unmarshal(env.Result, &out)
		}
		return nil, fmt.Errorf("accuracy pass: request %s failed its checks", spec.body)
	}
	for i, cfg := range cfgs {
		fast, err := get(serve.ClRequest{Config: cfg})
		if err != nil {
			return res, err
		}
		exact, err := get(serve.ClRequest{Config: cfg, Exact: true})
		if err != nil {
			return res, err
		}
		rel, l, err := maxRelDev(fast, exact)
		if err != nil {
			return res, err
		}
		res.n++
		if rel > res.maxRel || i == 0 {
			res.maxRel, res.maxL = rel, l
			res.maxWhere = "SCDM"
			if cfg != nil {
				res.maxWhere = fmt.Sprintf("H=%.3f Ob=%.4f n=%.3f", cfg.H, cfg.OmegaB, cfg.SpectralIndex)
			}
		}
	}
	served, err := get(serve.ClRequest{})
	if err != nil {
		return res, err
	}
	conv, err := get(serve.ClRequest{Exact: true, NK: convNK})
	if err != nil {
		return res, err
	}
	res.convRel, res.convL, err = maxRelDev(served, conv)
	return res, err
}

// maxRelDev is the worst relative deviation of a from the reference b
// over their common multipoles, and where it occurs.
func maxRelDev(a, b *serve.ClResponse) (float64, int, error) {
	if len(a.L) != len(b.L) {
		return 0, 0, fmt.Errorf("accuracy pass: multipole ladders differ (%d vs %d)", len(a.L), len(b.L))
	}
	worst, at := 0.0, 0
	for i := range a.L {
		if a.L[i] != b.L[i] {
			return 0, 0, fmt.Errorf("accuracy pass: multipole %d vs %d", a.L[i], b.L[i])
		}
		if d := math.Abs(a.Cl[i]-b.Cl[i]) / math.Abs(b.Cl[i]); d > worst {
			worst, at = d, a.L[i]
		}
	}
	return worst, at, nil
}
