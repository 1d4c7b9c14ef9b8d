package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plinger/internal/obs"
	"plinger/internal/serve"
)

// metric is one reported number with its unit and a note for the table
// (sample count, percentile).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// quantile is the linearly interpolated q-quantile of v (v is sorted in
// place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	f := pos - float64(i)
	return v[i]*(1-f) + v[i+1]*f
}

// pctName spells a quantile as a percentile label ("p99.9").
func pctName(q float64) string {
	return "p" + strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// latency reports the median and the workload's fixed tail percentile of
// one latency series (seconds), in the given unit. An empty series is a
// violation: the workload failed to exercise what the metric measures.
func (e *env) latency(series []float64, tailKey, p50Name, tailName, unit string) []metric {
	scale := 1e3
	if unit == "us" {
		scale = 1e6
	}
	if len(series) == 0 {
		e.chk.fail("%s: no samples", p50Name)
		return []metric{{name: p50Name, unit: unit, note: "n=0"}, {name: tailName, unit: unit, note: "n=0"}}
	}
	q := e.wl.tails[tailKey]
	n := len(series)
	beyond := int(float64(n) * (1 - q))
	return []metric{
		{name: p50Name, value: quantile(series, 0.5) * scale, unit: unit, note: fmt.Sprintf("n=%d median", n)},
		{name: tailName, value: quantile(series, q) * scale, unit: unit,
			note: fmt.Sprintf("n=%d %s (%d samples beyond); p90 %.4g, p95 %.4g, p99 %.4g, p99.9 %.4g",
				n, pctName(q), beyond, quantile(series, 0.9)*scale, quantile(series, 0.95)*scale,
				quantile(series, 0.99)*scale, quantile(series, 0.999)*scale)},
	}
}

// snapshot is the process and service state at one instant.
type snapshot struct {
	at       time.Time
	cpu      time.Duration // process user+system CPU
	rssMB    float64       // peak resident set so far
	stats    serve.Stats
	alloc    uint64  // cumulative heap bytes allocated
	gcCPU    float64 // cumulative GC CPU seconds
	totalCPU float64 // cumulative CPU seconds the runtime accounts for
	sweep    sweepSeries
	host     hostTicks
}

// hostTicks are the machine-wide CPU tick counters of /proc/stat: all
// ticks, and those stolen by the hypervisor for other guests.
type hostTicks struct{ total, steal float64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t hostTicks
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		// user nice system idle iowait irq softirq steal guest guest_nice:
		// guest time is already counted in user and nice.
		if i < 8 {
			t.total += x
		}
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// stealFrac is the share of the machine's CPU time the hypervisor gave to
// other guests between two snapshots: the host noise a run was exposed to.
func stealFrac(a, b snapshot) float64 {
	return (b.host.steal - a.host.steal) / max(b.host.total-a.host.total, 1)
}

// sweepSeries are the engine's process-wide dispatch counters
// (obs.Default), read through their Prometheus exposition.
type sweepSeries struct {
	sweeps, modes      float64 // plinger_sweeps_total, plinger_sweep_modes_total
	sweepSec           float64 // plinger_sweep_seconds_sum
	modeSec, modeCount float64 // plinger_sweep_mode_seconds_{sum,count}
}

func (e *env) snap() snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime(), rssMB: peakRSSMB(), stats: e.svc.Stats()}
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	s.alloc = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.totalCPU = ms[2].Value.Float64()
	s.sweep = readSweepSeries()
	s.host = readHostTicks()
	return s
}

func readSweepSeries() sweepSeries {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return sweepSeries{}
	}
	samples, err := obs.ParsePrometheus(&buf)
	if err != nil {
		return sweepSeries{}
	}
	get := func(name string) float64 {
		if s := obs.FindSample(samples, name, nil); s != nil {
			return s.Value
		}
		return 0
	}
	return sweepSeries{
		sweeps:    get("plinger_sweeps_total"),
		modes:     get("plinger_sweep_modes_total"),
		sweepSec:  get("plinger_sweep_seconds_sum"),
		modeSec:   get("plinger_sweep_mode_seconds_sum"),
		modeCount: get("plinger_sweep_mode_seconds_count"),
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func (e *env) endToEnd(p *phases, setups []float64, acc accuracyResult) []metric {
	wall := (e.w1.at.Sub(e.w0.at) - e.off.wall).Seconds()
	cpu := (e.w1.cpu - e.w0.cpu - e.off.cpu).Seconds()
	w := &p.window
	var out []metric
	out = append(out, metric{name: "setup_s", value: quantile(setups, 0.5), unit: "s",
		note: fmt.Sprintf("n=%d median of cold set-ups, each in a fresh process but the last", len(setups))})
	out = append(out, metric{name: "throughput_rps", value: float64(w.ok) / wall, unit: "1/s",
		note: fmt.Sprintf("n=%d successful responses over %.2fs", w.ok, wall)})
	out = append(out, e.latency(*p.clMiss, "cl", "cl_miss_p50_ms", "cl_miss_tail_ms", "ms")...)
	out = append(out, e.latency(*p.pkMiss, "pk", "pk_miss_p50_ms", "pk_miss_tail_ms", "ms")...)
	out = append(out, e.latency(p.hits.hit, "hit", "hit_p50_us", "hit_tail_us", "us")...)
	lim := e.wl.limits
	out = append(out, metric{name: "slo_frac", value: float64(w.inSLO) / float64(max(w.sent, 1)), unit: "ratio",
		note: fmt.Sprintf("n=%d sent; limits hit %v, C_l %v, P(k) %v", w.sent, lim.hit, lim.cl, lim.pk)})
	out = append(out, metric{name: "cpu_ms_per_req", value: cpu * 1e3 / float64(max(w.ok, 1)), unit: "ms",
		note: fmt.Sprintf("n=%d; process CPU, load-generating clients included", w.ok)})
	out = append(out, metric{name: "parallel_eff", value: cpu / (wall * float64(runtime.GOMAXPROCS(0))), unit: "ratio",
		note: fmt.Sprintf("CPU %.2fs / (wall %.2fs x GOMAXPROCS %d)", cpu, wall, runtime.GOMAXPROCS(0))})
	out = append(out, metric{name: "rss_peak_mb", value: e.w1.rssMB, unit: "MB", note: "peak RSS at the window's end"})
	out = append(out, metric{name: "cl_max_rel_err", value: acc.maxRel, unit: "ratio",
		note: fmt.Sprintf("n=%d cosmologies, worst at %s l=%d", acc.n, acc.maxWhere, acc.maxL)})
	out = append(out, metric{name: "cl_conv_rel_err", value: acc.convRel, unit: "ratio",
		note: fmt.Sprintf("served default SCDM vs exact NK %d, worst at l=%d", convNK, acc.convL)})
	return out
}

// sourceHash names the program's source tree: a digest of every Go file
// and module file outside the benchmark and build directories. Result
// digests are only comparable between runs of the same tree.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing the source tree: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
