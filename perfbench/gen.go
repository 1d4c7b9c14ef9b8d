package main

import (
	"encoding/json"
	"math/rand/v2"

	"plinger"
	"plinger/internal/serve"
)

// The scan lattice: H, Omega_b and n_s vary a few percent around SCDM on
// steps ten times the serving layer's key quanta (stepH = 1e-4,
// stepOmega = 1e-5, stepIndex = 1e-4 in internal/serve/keys.go), so two
// distinct lattice points can never quantize onto one cache key.
const (
	latH      = 1e-3 // H: 0.48..0.52 (±4%)
	latOmegaB = 1e-4 // Omega_b: 0.048..0.052 (±4%)
	latIndex  = 1e-3 // n_s: 0.98..1.02 (±2%)
	latSpan   = 20   // lattice steps either side of SCDM
)

// cosmoGen draws flattened cosmologies from the scan lattice. Draws never
// repeat within a run, so every draw is a fresh cache key; the sequence
// is a pure function of the seed.
type cosmoGen struct {
	rng  *rand.Rand
	used map[[3]int]bool
}

func newCosmoGen(seed uint64) *cosmoGen {
	return &cosmoGen{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), used: map[[3]int]bool{}}
}

func (g *cosmoGen) next() plinger.Config {
	for {
		p := [3]int{g.step(), g.step(), g.step()}
		if g.used[p] {
			continue
		}
		g.used[p] = true
		cfg := plinger.SCDM()
		cfg.H += latH * float64(p[0])
		cfg.OmegaB += latOmegaB * float64(p[1])
		cfg.OmegaC = 1 - cfg.OmegaB
		cfg.SpectralIndex += latIndex * float64(p[2])
		cfg.Flatten = true
		return cfg
	}
}

func (g *cosmoGen) step() int { return g.rng.IntN(2*latSpan+1) - latSpan }

// reqSpec is one generated request: the endpoint and the exact JSON body
// the program receives. Together they are the request's identity in the
// correctness checks and the digest ledger.
type reqSpec struct {
	kind string // "cl" or "pk"
	body []byte
	// want is the requested length: the multipole cap for C_l (0: the
	// service default), the grid size for P(k) (0: the service default).
	want int
}

func (r reqSpec) path() string { return "/v1/" + r.kind }

// id identifies the request: its endpoint and body.
func (r reqSpec) id() string { return r.path() + " " + string(r.body) }

func newClSpec(r serve.ClRequest) reqSpec {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numeric struct: cannot fail
	}
	return reqSpec{kind: "cl", body: b, want: r.LMaxCl}
}

func newPkSpec(r serve.PkRequest) reqSpec {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return reqSpec{kind: "pk", body: b, want: r.NK}
}

// defaultCl and defaultPk are the served default products for cfg.
func defaultCl(cfg plinger.Config) reqSpec { return newClSpec(serve.ClRequest{Config: &cfg}) }
func defaultPk(cfg plinger.Config) reqSpec { return newPkSpec(serve.PkRequest{Config: &cfg}) }

// hotSet is the warmed key set of hot_keys: the products
// of the daemon's default warm grid plus nCl fresh lattice cosmologies
// (C_l each, P(k) for the first nPk). The Zipf ranks are fixed: the warm
// grid first, in DefaultWarmGrid's order (the default SCDM C_l is rank 0),
// then the fresh products in draw order, C_l and P(k) alternating while
// both last. The seed picks the fresh cosmologies and the draw sequence
// only, so the C_l/P(k) share of the hits and the mix of response sizes
// are the same for every seed.
type hotSet struct {
	cfgs []plinger.Config // the fresh cosmologies, in draw order
	fill []reqSpec        // their products, computed before the window
	keys []reqSpec        // every hot key, rank order
}

func newHotSet(g *cosmoGen, nCl, nPk int) hotSet {
	var h hotSet
	for i := 0; i < nCl; i++ {
		cfg := g.next()
		h.cfgs = append(h.cfgs, cfg)
		h.fill = append(h.fill, defaultCl(cfg))
		if i < nPk {
			h.fill = append(h.fill, defaultPk(cfg))
		}
	}
	cls, pks := serve.DefaultWarmGrid(serve.DefaultDefaults())
	for _, r := range cls {
		h.keys = append(h.keys, newClSpec(r))
	}
	for _, r := range pks {
		h.keys = append(h.keys, newPkSpec(r))
	}
	h.keys = append(h.keys, h.fill...)
	return h
}

// zipfS is the Zipf exponent of the hit draws: an assumption of the
// benchmark, not a measured property of the daemon's traffic. The classic
// Zipf law has s = 1 and math/rand's Zipf needs s > 1, so the draws use
// the nearest round value above it.
const zipfS = 1.1

// zipfPicker draws hot-set ranks with a Zipf(zipfS) law.
type zipfPicker struct {
	z    *rand.Zipf
	keys []reqSpec
}

func newZipfPicker(rng *rand.Rand, keys []reqSpec) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1)), keys: keys}
}

func (p *zipfPicker) next() reqSpec { return p.keys[p.z.Uint64()] }
