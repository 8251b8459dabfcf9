package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flexoffer"
)

// Operations the driver performs. Each workload performs all of them.
const (
	opSubmit = iota
	opAccept
	opAssign
	opList
	opStats
	opKPI
	opSchedule
	numOps
)

var opNames = [numOps]string{"submit", "accept", "assign", "list", "stats", "kpi", "schedule"}

const (
	// numConns is the driver's connection and worker count; it stays at
	// or below the CPU count of the 2-CPU hosts the benchmark targets.
	numConns = 2
	// warmup is driven before the measured window so caches fill and the
	// daemon's lazy set-up finishes; its requests are not measured.
	warmup = 2 * time.Second
	// listLimit is the page size of every listing read.
	listLimit = 100

	// The mirabel-loop arrival rate: offers per second on the arrivals
	// connection, each a submit + accept (every 2nd also an assign).
	arrivalRate = 100
	// operatorThink is the mirabel-loop operator's pause between cycles of
	// one scheduling round, one KPI report and operatorPages pages of the
	// cursor walk.
	operatorThink = 50 * time.Millisecond
	operatorPages = 12
)

// Acked lifecycle states in the client ledger.
const (
	ackOffered  = 'o'
	ackAccepted = 'c'
	ackAssigned = 'a'
)

// loadStats aggregates what the driver saw.
type loadStats struct {
	attempted, failed, shed int64

	lat       [numOps][]float64 // measured request latencies, ms (+Inf = failed)
	cpu       [numOps][]sample  // daemon CPU time spent in each measured request (+Inf = failed)
	sum       [numOps]float64   // measured latency sums, ms (successes only)
	count     [numOps]int64
	perSecond []float64 // offers that reached assigned, per second of the window
	traced    []float64 // submit latencies in traced windows (trace runs)
	untraced  []float64 // submit latencies in untraced windows
	late      []float64 // open-loop send lateness behind the due time, ms
	dials     int64
	firstErrs []string
	// hwmMiB is the daemon's VmHWM when the window's rssOffers-th offer
	// was acknowledged (0 until then).
	hwmMiB float64

	ledger       map[string]byte // offer ID → last acknowledged state
	owners       map[string]*ownerCount
	schedMembers int64 // offers assigned by scheduling rounds, per their summaries
}

// ownerCount is the client ledger per offer owner.
type ownerCount struct{ submitted, accepted, assigned uint64 }

// worker is one connection's loop state; it persists across the warmup
// and the measured phase.
type worker struct {
	id     int
	c      *conn
	gate   *gate // shared by every worker: one request in flight at a time
	gen    *offerGen
	i      int // next iteration / arrival index
	cursor string
	spans  *spanBuf
	// stored counts the offers acknowledged in the measured window over
	// every worker; the worker that acknowledges offer rss.at reads the
	// daemon's VmHWM.
	stored *atomic.Int64
	rss    rssPoint

	// per phase
	measuring  bool
	phaseStart time.Time
	stats      loadStats
}

// rssPoint says when a closed loop reads the daemon's peak RSS: when the
// at-th offer of the measured window is acknowledged. 0 reads it at the
// end of the window.
type rssPoint struct {
	at  int64
	pid int
}

func newWorker(id int, c *conn, g *gate, seed int64, owner string, tr *tracer, stored *atomic.Int64, rss rssPoint) *worker {
	w := &worker{id: id, c: c, gate: g, gen: newOfferGen(seed*1000+int64(id), owner), spans: tr.buf(id), stored: stored, rss: rss}
	w.stats.ledger = map[string]byte{}
	w.stats.owners = map[string]*ownerCount{}
	return w
}

// tracedNow reports whether the current 1 s window records spans: trace
// runs alternate traced and untraced windows so the overhead of tracing
// is measured within the run.
func (w *worker) tracedNow(t time.Time) bool {
	return w.spans.t.on && w.measuring && int(t.Sub(w.phaseStart)/time.Second)%2 == 0
}

// timed runs one request, records its latency from due (the open loop's
// scheduled send time; the send time otherwise), the daemon CPU time it
// took and its span, and reports whether it succeeded.
func (w *worker) timed(op int, parent uint64, due time.Time, fn func() error) bool {
	w.gate.enter()
	cpu0 := procCPU(w.gate.pid)
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	err := fn()
	end := time.Now()
	cpuUS := float64((procCPU(w.gate.pid) - cpu0).Nanoseconds()) / 1e3
	w.gate.leave()
	st := &w.stats
	st.attempted++
	ms := float64(end.Sub(due).Nanoseconds()) / 1e6
	if err != nil {
		var se *statusError
		if errors.As(err, &se) && se.shed() {
			st.shed++
		} else {
			st.failed++
		}
		if len(st.firstErrs) < 3 {
			st.firstErrs = append(st.firstErrs, fmt.Sprintf("%s: %v", opNames[op], err))
		}
		ms, cpuUS = math.Inf(1), math.Inf(1)
	}
	if w.measuring {
		st.lat[op] = append(st.lat[op], ms)
		st.cpu[op] = append(st.cpu[op], sample{sliceOf(w.phaseStart, start), cpuUS})
		if err == nil {
			st.sum[op] += float64(end.Sub(start).Nanoseconds()) / 1e6
			st.count[op]++
		}
		traced := w.tracedNow(start)
		if traced {
			w.spans.add(opNames[op], parent, start, end)
		}
		if op == opSubmit && err == nil && w.spans.t.on {
			if traced {
				st.traced = append(st.traced, ms)
			} else {
				st.untraced = append(st.untraced, ms)
			}
		}
	}
	return err == nil
}

// booked adds n offers that reached assigned to the current second of
// the measured window.
func (w *worker) booked(n int64) {
	if !w.measuring {
		return
	}
	sec := int(time.Since(w.phaseStart) / time.Second)
	for len(w.stats.perSecond) <= sec {
		w.stats.perSecond = append(w.stats.perSecond, 0)
	}
	w.stats.perSecond[sec] += float64(n)
}

func (w *worker) owner(f *flexoffer.FlexOffer) *ownerCount {
	oc := w.stats.owners[f.ConsumerID]
	if oc == nil {
		oc = &ownerCount{}
		w.stats.owners[f.ConsumerID] = oc
	}
	return oc
}

// lifecycle runs one offer through submit → accept → assign (assign only
// when assign is true) and records the acknowledged states.
func (w *worker) lifecycle(f *flexoffer.FlexOffer, parent uint64, due time.Time, assign bool) {
	oc := w.owner(f)
	if !w.timed(opSubmit, parent, due, func() error { return w.c.submit(f) }) {
		return
	}
	oc.submitted++
	w.stats.ledger[f.ID] = ackOffered
	if w.measuring && w.stored.Add(1) == w.rss.at {
		w.stats.hwmMiB = procStatusMiB(w.rss.pid, "VmHWM")
	}
	if !w.timed(opAccept, parent, time.Time{}, func() error { return w.c.accept(f.ID) }) {
		return
	}
	oc.accepted++
	w.stats.ledger[f.ID] = ackAccepted
	if !assign {
		return
	}
	if w.timed(opAssign, parent, time.Time{}, func() error { return w.c.assign(f.ID, f.EarliestStart, midEnergies(f)) }) {
		oc.assigned++
		w.stats.ledger[f.ID] = ackAssigned
		w.booked(1)
	}
}

// scheduleRun posts one scheduling round and books the members it
// assigned.
func (w *worker) scheduleRun(parent uint64) {
	if w.timed(opSchedule, parent, time.Time{}, func() error { return w.c.post("/schedule/run") }) {
		var sum struct {
			Members int64 `json:"members"`
		}
		if err := w.c.decode(&sum); err == nil {
			w.stats.schedMembers += sum.Members
			w.booked(sum.Members)
		}
	}
}

// closedLoop is the lifecycle workloads' mix: flexload's submit → accept
// → assign with /stats every 10th iteration, and one 100-record assigned
// page every 10th (flexload reads one every 25th; at that rate a run holds
// too few pages for a steady p99). The first connection also reads the
// global KPI block every 25th and runs a scheduling round every 50th
// iteration. Both drain the events that accumulated since their last
// call, so they stay on one connection: split over two, their cost would
// depend on the two loops' phase. The driver's offers start outside the
// scheduling horizon, so rounds never race the client for them.
func (w *worker) closedLoop(until time.Time) {
	for time.Now().Before(until) {
		i := w.i
		w.i++
		t0 := time.Now()
		parent := w.spans.next()
		w.lifecycle(w.gen.next(i, false), parent, time.Time{}, true)
		switch {
		case i%10 == 5:
			w.timed(opStats, parent, time.Time{}, func() error { return w.c.get("/stats") })
		case i%10 == 0:
			w.timed(opList, parent, time.Time{}, func() error {
				_, err := w.c.page("assigned", "", "", listLimit)
				return err
			})
		case w.id == 0 && i%25 == 2:
			w.timed(opKPI, parent, time.Time{}, func() error { return w.c.get("/kpi?owners=false") })
		case w.id == 0 && i%50 == 17:
			w.scheduleRun(parent)
		}
		if w.tracedNow(t0) {
			w.spans.addWithID(parent, "iteration", 0, t0, time.Now())
		}
	}
}

// arrivals is mirabel-loop's offer-arrival connection: an open loop at
// arrivalRate. Every other arrival is on-grid inside the scheduling
// horizon and is left to the scheduler; the rest start outside it and the
// client assigns them (bilateral deals the scheduler never sees).
// Each arrival's submit is timed from its due time.
func (w *worker) arrivals(start, until time.Time) {
	interval := time.Second / arrivalRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		if w.measuring {
			w.stats.late = append(w.stats.late, float64(sent.Sub(due).Nanoseconds())/1e6)
		}
		i := w.i
		w.i++
		parent := w.spans.next()
		byClient := i%2 == 1
		w.lifecycle(w.gen.next(i, !byClient), parent, due, byClient)
		if w.tracedNow(sent) {
			w.spans.addWithID(parent, "arrival", 0, due, time.Now())
		}
	}
}

// operator is mirabel-loop's operator connection. An operator waits for
// each reply, so this is a closed loop: a scheduling round, the full
// per-owner KPI report and the next operatorPages pages of a cursor walk
// over every offer (restarting when the walk completes), then
// operatorThink before the next cycle.
func (w *worker) operator(until time.Time) {
	for time.Now().Before(until) {
		parent := w.spans.next()
		t0 := time.Now()
		w.scheduleRun(parent)
		w.timed(opKPI, parent, time.Time{}, func() error { return w.c.get("/kpi") })
		for p := 0; p < operatorPages; p++ {
			w.timed(opList, parent, time.Time{}, func() error {
				next, err := w.c.page("", "", w.cursor, listLimit)
				w.cursor = next
				return err
			})
		}
		if w.tracedNow(t0) {
			w.spans.addWithID(parent, "operator", 0, t0, time.Now())
		}
		time.Sleep(operatorThink)
	}
}

// nextCursor extracts next_cursor from a page body without decoding the
// records ("" when the walk is complete).
func nextCursor(body []byte) string {
	const key = `"next_cursor":"`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// drive runs the warmup and the measured window on numConns connections
// and takes the /metrics and /proc readings around the window.
func (b *bench) drive() error {
	var dials, stored atomic.Int64
	g := &gate{pid: b.d.pid, cal: b.cal}
	b.gate = g
	rss := rssPoint{at: int64(b.wl.rssOffers), pid: b.d.pid}
	ws := make([]*worker, numConns)
	for i := range ws {
		owner := fmt.Sprintf("lc-%d-c%d", b.o.seed, i)
		if b.wl.open {
			owner = fmt.Sprintf("arrival-%d", b.o.seed)
		}
		ws[i] = newWorker(i, newConn(b.d.base, &dials), g, b.o.seed, owner, b.tracer, &stored, rss)
	}
	defer func() {
		for _, w := range ws {
			w.c.close()
		}
	}()
	ctl := ws[0].c // scrapes ride the first load connection between phases

	var err error
	if b.baseline, err = takeScrape(ctl, b.d.pid); err != nil {
		return err
	}
	b.runPhase(ws, warmup, false)
	if b.before, err = takeScrape(ctl, b.d.pid); err != nil {
		return err
	}
	b.runPhase(ws, time.Duration(b.o.seconds)*time.Second, true)
	if g.err != nil {
		return g.err
	}
	if b.after, err = takeScrape(ctl, b.d.pid); err != nil {
		return err
	}

	st := &loadStats{ledger: map[string]byte{}, owners: map[string]*ownerCount{}}
	for _, w := range ws {
		merge(st, &w.stats)
	}
	st.dials = dials.Load()
	b.load = st
	b.checks.add("client.dials_within_connections", st.dials <= numConns,
		fmt.Sprintf("%d dials for %d connections", st.dials, numConns))
	return nil
}

// runPhase drives every worker for d and waits until the last one
// finished.
func (b *bench) runPhase(ws []*worker, d time.Duration, measuring bool) {
	start := time.Now()
	until := start.Add(d)
	if measuring {
		b.gate.mu.Lock()
		b.gate.start = start
		b.gate.mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		w.measuring, w.phaseStart = measuring, start
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			switch {
			case !b.wl.open:
				w.closedLoop(until)
			case w.id == 0:
				w.arrivals(start, until)
			default:
				w.operator(until)
			}
		}(w)
	}
	wg.Wait()
}

// merge folds one worker's phase stats into the run's.
func merge(dst, src *loadStats) {
	dst.attempted += src.attempted
	dst.failed += src.failed
	dst.shed += src.shed
	for op := 0; op < numOps; op++ {
		dst.lat[op] = append(dst.lat[op], src.lat[op]...)
		dst.cpu[op] = append(dst.cpu[op], src.cpu[op]...)
		_ = 0
		dst.sum[op] += src.sum[op]
		dst.count[op] += src.count[op]
	}
	dst.traced = append(dst.traced, src.traced...)
	dst.untraced = append(dst.untraced, src.untraced...)
	dst.late = append(dst.late, src.late...)
	dst.hwmMiB = max(dst.hwmMiB, src.hwmMiB)
	for len(dst.perSecond) < len(src.perSecond) {
		dst.perSecond = append(dst.perSecond, 0)
	}
	for i, n := range src.perSecond {
		dst.perSecond[i] += n
	}
	dst.firstErrs = append(dst.firstErrs, src.firstErrs...)
	for id, s := range src.ledger {
		dst.ledger[id] = s
	}
	for owner, oc := range src.owners {
		d := dst.owners[owner]
		if d == nil {
			d = &ownerCount{}
			dst.owners[owner] = d
		}
		d.submitted += oc.submitted
		d.accepted += oc.accepted
		d.assigned += oc.assigned
	}
	dst.schedMembers += src.schedMembers
}

// totals sums the client ledger over every owner.
func (st *loadStats) totals() (submitted, accepted, assigned uint64) {
	for _, oc := range st.owners {
		submitted += oc.submitted
		accepted += oc.accepted
		assigned += oc.assigned
	}
	return
}
