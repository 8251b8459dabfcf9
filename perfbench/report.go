package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// midMean is the mean of the middle half of xs: like the median it
// ignores a few seconds a stall or the host took, but it keeps the
// fractions the per-second counts lose.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// endToEnd fills the user-visible metrics of an untraced run.
//
// The request metrics are the daemon CPU time a request took (p50 over
// every request of the measured window) and the daemon CPU time of the
// whole window per offer that reached assigned, scaled to the nominal
// host (see gate). Wall-clock latency and throughput follow the host more
// than the program here: the daemon's CPU changes speed by up to 40% from
// second to second, and the hypervisor delays wake-ups by a varying
// amount. They are printed on the line before the result and reported
// per layer by traced runs, but not gated on. So is the CPU time of a
// list page: it rose by 15–27% in runs where the hypervisor took 8–16% of
// the CPUs, which the reference unit does not follow.
func (b *bench) endToEnd(m map[string]metric) {
	st := b.load
	refs := b.gate.refBySlice()
	assigned := float64(b.after.stats.Assigned - b.before.stats.Assigned)
	cpuUS := float64((b.after.cpu - b.before.cpu).Nanoseconds()) / 1e3
	m["cpu_us_per_offer"] = metric{ratio(cpuUS, assigned) * refNominalUS / windowRef(refs, b.gate.marks), "us"}
	for op, name := range opNames {
		if op == opStats || op == opList {
			continue
		}
		m[name+"_cpu_us"] = metric{nominalQuantile(refs, st.cpu[op], 0.5), "us"}
		if len(st.cpu[op]) < 100 {
			b.checks.add("samples."+name, false, fmt.Sprintf("%d requests: fewer than 100", len(st.cpu[op])))
		}
	}
	m["setup_s"] = metric{median(b.setups), "s"}
	m["ok_ratio"] = metric{1 - float64(st.failed+st.shed)/float64(max(st.attempted, 1)), "ratio"}
	m["rss_peak_mb"] = metric{b.rssMiB(), "MiB"}
	b.printSamples(refs)
}

// rssMiB is the daemon's peak RSS at the workload's reading point.
func (b *bench) rssMiB() float64 {
	if b.wl.rssOffers == 0 {
		return b.after.hwmMiB
	}
	b.checks.add("rss.reading_point_reached", b.load.hwmMiB > 0,
		fmt.Sprintf("%d offers acknowledged in the window, VmHWM read at %d", b.load.count[opSubmit], b.wl.rssOffers))
	return b.load.hwmMiB
}

// wallMetrics are the wall-clock figures of the measured window: offers
// that reached assigned per second, and the p50 and tail latency (p99,
// or p90 for the operator's heavy reads) of every op but /stats.
func (b *bench) wallMetrics() map[string]float64 {
	st := b.load
	w := map[string]float64{"offers_per_s": midMean(st.perSecond[:min(len(st.perSecond), b.o.seconds)])}
	for op, name := range opNames {
		if op == opStats {
			continue
		}
		tail := 0.99
		if op == opKPI || op == opSchedule {
			tail = 0.90
		}
		w[name+"_p50_ms"] = quantile(st.lat[op], 0.5)
		w[fmt.Sprintf("%s_p%.0f_ms", name, tail*100)] = quantile(st.lat[op], tail)
	}
	return w
}

// printSamples writes, as one JSON line, the per-op sample counts, the
// daemon CPU time per request before scaling and its scaled tails, the
// wall-clock figures, the reference unit's CPU time over the window and
// the individual set-up times.
func (b *bench) printSamples(refs []float64) {
	counts := map[string]int{}
	rawUS := map[string]float64{}
	tails := map[string]float64{}
	for op, name := range opNames {
		xs := b.load.cpu[op]
		counts[name] = len(xs)
		if len(xs) == 0 {
			continue
		}
		us := make([]float64, len(xs))
		for i, s := range xs {
			us[i] = s.us
		}
		rawUS[name+"_cpu_us_p50"] = quantile(us, 0.5)
		tails[name+"_cpu_us_p90"] = nominalQuantile(refs, xs, 0.9)
		var sum float64
		var n int
		for _, s := range xs {
			if !math.IsInf(s.us, 0) {
				sum += s.us * refNominalUS / refAt(refs, s.slice)
				n++
			}
		}
		tails[name+"_cpu_us_mean"] = sum / float64(max(n, 1))
		tails[name+"_cpu_us_p99"] = nominalQuantile(refs, xs, 0.99)
	}
	p10, p90 := refSpread(refs)
	// The rate is sustained when the open-loop generator is still on
	// schedule at the end of the window; a host stall can break that, so
	// it is reported, not gated.
	var endLate float64
	if late := b.load.late; len(late) > 0 {
		endLate = median(late[len(late)*9/10:])
	}
	line, _ := json.Marshal(struct {
		Samples   map[string]int     `json:"samples"`
		RawCPU    map[string]float64 `json:"daemon_cpu_us_unscaled"`
		CPUTails  map[string]float64 `json:"daemon_cpu_us_tails"`
		Wall      map[string]float64 `json:"wall"`
		RefUS     [3]float64         `json:"ref_unit_us_p10_p50_p90"`
		Setups    []float64          `json:"setup_s_each"`
		EndLate   float64            `json:"arrivals_end_late_ms_p50,omitempty"`
		PerSecond []float64          `json:"offers_per_second"`
	}{counts, rawUS, tails, b.wallMetrics(), [3]float64{p10, median(refs), p90}, b.setups, endLate, b.load.perSecond})
	fmt.Println(string(line))
}

// perLayer fills the per-layer metrics of a traced run: client and
// transport figures, /metrics deltas over the measured window, /proc
// readings, and the in-process layer-call timings.
func (b *bench) perLayer(m map[string]metric) {
	st, b0, b1 := b.load, b.before, b.after
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	note := func(cond bool, why string) {
		if cond {
			b.notes = append(b.notes, why)
		}
	}
	submits := float64(st.count[opSubmit])
	assigned := float64(b1.stats.Assigned - b0.stats.Assigned)
	writes := float64(st.count[opSubmit]+st.count[opAccept]) + assigned

	// driver / transport, and the wall-clock figures of the window
	set("client.dials", "count", float64(st.dials))
	for name, v := range b.wallMetrics() {
		unit := "ms"
		if name == "offers_per_s" {
			unit = "1/s"
		}
		set("client."+name, unit, v)
	}
	set("client.late_ms_p99", "ms", 0)
	if b.wl.open {
		set("client.late_ms_p99", "ms", quantile(st.late, 0.99))
	}
	note(!b.wl.open, "client.late_ms_p99: closed loop, requests have no due time")
	routes := []struct{ name, route string }{
		{"offers", `route="/offers"`}, {"accept", `route="/offers/{id}/accept"`},
		{"assign", `route="/offers/{id}/assign"`}, {"stats", `route="/stats"`},
		{"kpi", `route="/kpi"`}, {"schedule_run", `route="/schedule/run"`},
	}
	clientOps := map[string][]int{
		"offers": {opSubmit, opList}, "accept": {opAccept}, "assign": {opAssign},
		"stats": {opStats}, "kpi": {opKPI}, "schedule_run": {opSchedule},
	}
	for _, r := range routes {
		serverUS := 1e6 * ratio(delta(b0, b1, "mirabeld_http_request_seconds_sum", r.route), delta(b0, b1, "mirabeld_http_request_seconds_count", r.route))
		var sum float64
		var n int64
		for _, op := range clientOps[r.name] {
			sum += st.sum[op]
			n += st.count[op]
		}
		set("market.http."+r.name+"_us", "us", serverUS)
		set("client.transport_us."+r.name, "us", 1e3*ratio(sum, float64(n))-serverUS)
		note(n == 0, "client.transport_us."+r.name+", market.http."+r.name+"_us: the workload does not perform the op")
	}

	// the list page's daemon CPU time (see endToEnd)
	set("market.list_cpu_us", "us", nominalQuantile(b.gate.refBySlice(), st.cpu[opList], 0.5))

	// admission
	set("admission.wait_us", "us", 1e6*ratio(delta(b0, b1, "admission_wait_seconds_sum"), delta(b0, b1, "admission_wait_seconds_count")))
	set("admission.shed", "count", delta(b0, b1, "admission_shed_total"))

	// market shards
	set("market.shard.lock_wait_us_per_write", "us", 1e6*ratio(delta(b0, b1, "market_shard_lock_wait_seconds_total"), writes))
	set("market.shard.lock_hold_us_per_write", "us", 1e6*ratio(delta(b0, b1, "market_shard_lock_hold_seconds_total"), writes))

	// wal / journal
	set("wal.fsyncs_per_append", "ratio", ratio(delta(b0, b1, "wal_fsyncs_total"), delta(b0, b1, "wal_appends_total")))
	set("wal.bytes_per_offer", "B", ratio(delta(b0, b1, "wal_bytes_total"), submits))
	set("market.journal.snapshots", "count", delta(b0, b1, "snapshot_writes_total"))
	set("market.journal.recovery_s", "s", b1.sum("recovery_duration_seconds"))
	set("mirabeld.write_bytes_per_offer", "B", ratio(b1.writeBytes-b0.writeBytes, submits))
	note(!b.wl.durable, "wal.*, market.journal.*: in-memory daemon has no journal")

	// events, kpi, agg, sched
	set("market.events.resyncs", "count", delta(b0, b1, "sched_resyncs_total")+delta(b0, b1, "kpi_resyncs_total"))
	set("kpi.events_folded", "count", delta(b0, b1, "kpi_events_folded_total"))
	set("agg.rebuilds_per_join", "ratio", ratio(delta(b0, b1, "agg_rebuilds_total"), delta(b0, b1, "agg_offers_joined_total")))
	set("sched.run_ms", "ms", 1e3*ratio(delta(b0, b1, "sched_run_seconds_sum"), delta(b0, b1, "sched_run_seconds_count")))
	set("sched.decisions_per_run", "ratio", ratio(delta(b0, b1, "sched_decisions_total"), delta(b0, b1, "sched_runs_total")))
	set("sched.apply_errors", "count", delta(b0, b1, "sched_apply_errors_total"))
	note(!b.wl.open, "sched.decisions_per_run: lifecycle offers start outside the horizon, rounds decide nothing")

	// pipeline (the boot's seeding; the counters are lifetime)
	set("pipeline.jobs", "count", b1.sum("pipeline_jobs_started_total"))
	set("pipeline.sink_retries", "count", b1.sum("pipeline_sink_retries_total"))
	set("pipeline.dead_lettered", "count", b1.sum("pipeline_dead_letter_offers_total"))
	note(!b.wl.seeded, "pipeline.*: no -seed-dir on this workload")

	// process
	set("mirabeld.gc_cycles", "count", delta(b0, b1, "runtime_gc_cycles_total"))
	set("mirabeld.heap_mb", "MiB", b1.sum("runtime_heap_inuse_bytes")/(1<<20))

	// in-process layer calls
	for name, v := range b.layers {
		set(name, unitOf(name), v)
	}

	set("market.stats.energy_residual_kwh", "kWh", math.Abs(b.energyResidualKWh))
	overhead := 100 * (median(st.traced)/median(st.untraced) - 1)
	set("trace.overhead_pct", "%", overhead)
	set("trace.spans", "count", float64(b.tracer.count()))

	line, _ := json.Marshal(struct {
		Absent []string `json:"zero_because"`
	}{b.notes})
	fmt.Println(string(line))
}

// unitOf derives a layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_s"):
		return "s"
	}
	return "count"
}
