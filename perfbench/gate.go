package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

const (
	// calibrateEvery is how often the gate calibrates the daemon's CPU.
	calibrateEvery = 10 * time.Millisecond
	// refSlice is the stretch of the window over which calibrations are
	// pooled: a request is scaled with the median reference time of its
	// slice. The host's speed holds for about a second at a time.
	refSlice = 200 * time.Millisecond
	// refNominalUS is the CPU time of one reference unit on the nominal
	// host; every CPU time is reported as it would read there. It is a
	// round figure near what the unit takes on the 2-vCPU Xeon VM the
	// benchmark was written on (run medians 370–410 us, slices 250–440
	// us).
	refNominalUS = 400.0
)

// gate lets one request at a time reach the daemon, so the daemon's CPU
// time across a request is that request's own, and between requests it
// has the calibrator run the reference unit on the daemon's CPU.
//
// On a shared host the speed of that CPU changes by up to 40% from one
// second to the next (other guests on the same core), and the daemon's
// CPU time per request changes with it. Every CPU time is therefore
// scaled to the nominal host: multiplied by refNominalUS over the CPU
// time of the reference unit in the same slice of the window.
type gate struct {
	mu   sync.Mutex
	pid  int // daemon process
	cal  *calibrator
	last time.Time // last calibration
	err  error     // first calibration failure

	start time.Time   // start of the measured window; zero before it
	refs  [][]float64 // reference unit CPU time, us, per calibration, by slice of the window
	marks []cpuMark   // daemon CPU time at every calibration in the window
}

// cpuMark is the daemon's CPU time at one calibration.
type cpuMark struct {
	slice int
	cpu   time.Duration
}

// sample is the daemon CPU time of one request and the slice of the
// measured window it started in.
type sample struct {
	slice int
	us    float64
}

// sliceOf is the slice of the measured window that starts at start and
// holds t.
func sliceOf(start, t time.Time) int { return int(t.Sub(start) / refSlice) }

// enter waits for the gate and calibrates when calibrateEvery has
// passed since the last calibration. The caller must call leave.
func (g *gate) enter() {
	g.mu.Lock()
	now := time.Now()
	if now.Sub(g.last) < calibrateEvery || g.err != nil {
		return
	}
	ref, err := g.cal.measure()
	if err != nil {
		g.err = fmt.Errorf("calibrator: %w", err)
		return
	}
	g.last = time.Now()
	if g.start.IsZero() {
		return
	}
	i := sliceOf(g.start, now)
	for len(g.refs) <= i {
		g.refs = append(g.refs, nil)
	}
	g.refs[i] = append(g.refs[i], ref)
	g.marks = append(g.marks, cpuMark{i, procCPU(g.pid)})
}

func (g *gate) leave() { g.mu.Unlock() }

// refBySlice is the median reference unit time of each slice of the
// window; a slice without a calibration takes the window's median.
func (g *gate) refBySlice() []float64 {
	var all []float64
	for _, r := range g.refs {
		all = append(all, r...)
	}
	whole := median(all)
	out := make([]float64, len(g.refs))
	for i, r := range g.refs {
		out[i] = whole
		if len(r) > 0 {
			out[i] = median(r)
		}
	}
	return out
}

// refAt is the reference unit time of slice i.
func refAt(refs []float64, i int) float64 {
	if len(refs) == 0 {
		return math.NaN()
	}
	return refs[max(0, min(i, len(refs)-1))]
}

// nominalQuantile is the q-quantile of the samples' CPU times, each
// scaled to the nominal host with the reference time of its slice.
func nominalQuantile(refs []float64, xs []sample, q float64) float64 {
	us := make([]float64, len(xs))
	for i, s := range xs {
		us[i] = s.us * refNominalUS / refAt(refs, s.slice)
	}
	return quantile(us, q)
}

// windowRef is the reference unit time that scales the daemon's CPU time
// over the whole window: the daemon CPU between consecutive calibrations,
// each stretch taken in the reference units of its own slice, summed,
// and compared with the raw sum.
func windowRef(refs []float64, marks []cpuMark) float64 {
	var raw, units float64
	for i := 1; i < len(marks); i++ {
		us := float64((marks[i].cpu - marks[i-1].cpu).Nanoseconds()) / 1e3
		raw += us
		units += us / refAt(refs, marks[i-1].slice)
	}
	if units == 0 {
		return median(refs)
	}
	return raw / units
}

// refSpread is the p10 and p90 of the per-slice reference times: how
// much the daemon CPU's speed moved during the window.
func refSpread(refs []float64) (p10, p90 float64) {
	s := append([]float64(nil), refs...)
	sort.Float64s(s)
	return quantile(s, 0.1), quantile(s, 0.9)
}
