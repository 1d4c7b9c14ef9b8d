package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plinger/internal/serve"
)

// conn is one HTTP client connection to the service: its own transport,
// capped at a single connection, so a workload's connection count is
// exact.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response.
func (c *conn) post(r reqSpec) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// envelopeWire is the part of a response envelope the checks read.
type envelopeWire struct {
	Source  string          `json:"source"`
	TraceID string          `json:"trace_id"` // computed responses only
	Result  json.RawMessage `json:"result"`
}

// checker validates every response of a run. The first body served for a
// request is validated in full (status, finite values, requested length)
// and its result bytes kept; every later response for the same request
// must carry identical result bytes. Violations are counted, and the
// first few kept for the report.
type checker struct {
	mu    sync.Mutex
	first map[string][]byte // request id -> first result bytes
	msgs  []string

	attempted atomic.Int64
	failed    atomic.Int64
	// tamper, when non-nil, rewrites every response body before it is
	// checked: the harness's own test corrupts responses through it to
	// prove the checks catch them.
	tamper func(body []byte) []byte
}

func newChecker() *checker { return &checker{first: map[string][]byte{}} }

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// check validates one response and returns its envelope, and whether it
// passed.
func (c *checker) check(r reqSpec, status int, body []byte, err error) (envelopeWire, bool) {
	c.attempted.Add(1)
	if err != nil {
		c.fail("%s %s: %v", r.path(), r.body, err)
		return envelopeWire{}, false
	}
	if c.tamper != nil {
		body = c.tamper(body)
	}
	if status != http.StatusOK {
		c.fail("%s %s: status %d: %.200s", r.path(), r.body, status, body)
		return envelopeWire{}, false
	}
	var env envelopeWire
	if err := json.Unmarshal(body, &env); err != nil {
		c.fail("%s %s: undecodable response: %v", r.path(), r.body, err)
		return envelopeWire{}, false
	}
	id := r.id()
	c.mu.Lock()
	first, seen := c.first[id]
	c.mu.Unlock()
	if seen {
		if !bytes.Equal(first, env.Result) {
			c.fail("%s %s: result bytes differ from the first body served for this request", r.path(), r.body)
			return envelopeWire{}, false
		}
		return env, true
	}
	if msg := validResult(r, env.Result); msg != "" {
		c.fail("%s %s: %s", r.path(), r.body, msg)
		return envelopeWire{}, false
	}
	res := append([]byte(nil), env.Result...)
	c.mu.Lock()
	if prev, ok := c.first[id]; ok && !bytes.Equal(prev, res) {
		c.mu.Unlock()
		c.fail("%s %s: result bytes differ from the first body served for this request", r.path(), r.body)
		return envelopeWire{}, false
	}
	c.first[id] = res
	c.mu.Unlock()
	env.Result = res
	return env, true
}

// validResult checks a product in full: finite values, consistent lengths,
// and the requested length (the multipole ladder ends within one ladder
// step of the requested cap; the P(k) grid has the requested size).
func validResult(r reqSpec, raw json.RawMessage) string {
	d := serve.DefaultDefaults()
	switch r.kind {
	case "cl":
		var res serve.ClResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Sprintf("undecodable C_l result: %v", err)
		}
		lmax := r.want
		if lmax == 0 {
			lmax = d.LMaxCl
		}
		n := len(res.L)
		if n == 0 || len(res.Cl) != n || len(res.BandPowerUK) != n {
			return fmt.Sprintf("C_l lengths l=%d cl=%d band_power=%d", n, len(res.Cl), len(res.BandPowerUK))
		}
		if res.L[0] != 2 || res.L[n-1] > lmax || res.L[n-1] < lmax-lmax/8-1 {
			return fmt.Sprintf("multipoles %d..%d do not cover the requested l <= %d", res.L[0], res.L[n-1], lmax)
		}
		for i := range res.L {
			if i > 0 && res.L[i] <= res.L[i-1] {
				return fmt.Sprintf("multipoles not increasing at index %d", i)
			}
			if !positive(res.Cl[i]) || !positive(res.BandPowerUK[i]) {
				return fmt.Sprintf("non-finite or non-positive C_l at l=%d", res.L[i])
			}
		}
	case "pk":
		var res serve.PkResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Sprintf("undecodable P(k) result: %v", err)
		}
		nk := r.want
		if nk == 0 {
			nk = d.PkNK
		}
		if len(res.K) != nk || len(res.T) != nk || len(res.P) != nk {
			return fmt.Sprintf("P(k) lengths k=%d t=%d p=%d, requested %d", len(res.K), len(res.T), len(res.P), nk)
		}
		for i := range res.K {
			if !positive(res.K[i]) || !positive(res.P[i]) || math.IsNaN(res.T[i]) || math.IsInf(res.T[i], 0) {
				return fmt.Sprintf("non-finite P(k) at index %d", i)
			}
		}
		if !positive(res.Sigma8) {
			return fmt.Sprintf("sigma8 = %g", res.Sigma8)
		}
	}
	return ""
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// digests returns the SHA-256 of every first result, by request id.
func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.first))
	for id, res := range c.first {
		sum := sha256.Sum256(res)
		out[id] = hex.EncodeToString(sum[:])
	}
	return out
}

// verifyLedger checks cur against the cross-run digest ledger at path:
// one file per program source tree (named by the tree's hash), mapping
// request ids to result digests. Every digest that differs from the one
// an earlier run recorded for the same request counts as a violation in
// ck, so a seed that yields different bits on a rerun fails the run; the
// new digests are then recorded.
func verifyLedger(path string, cur map[string]string, ck *checker) error {
	stored := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &stored); err != nil {
			return fmt.Errorf("digest ledger %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	ids := make([]string, 0, len(cur))
	for id := range cur {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if old, ok := stored[id]; ok && old != cur[id] {
			ck.fail("request %s: result digest differs from an earlier run of this source tree", id)
		}
		stored[id] = cur[id]
	}
	b, err := json.Marshal(stored)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
