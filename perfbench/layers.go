package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/admission"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/flexoffer"
	"repro/internal/kpi"
	"repro/internal/market"
	"repro/internal/sched"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// layerPhase times single layers in-process, on the workload's own
// inputs (its offer stream and its seeded portfolio), recording one span
// per layer call. It returns the layer-call metrics by name.
func layerPhase(b *bench) (map[string]float64, error) {
	lp := &layerRun{b: b, out: map[string]float64{}, spans: b.tracer.buf(numConns), dir: filepath.Join(b.work, "layers")}
	if err := os.MkdirAll(lp.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(lp.dir)
	steps := []func() error{
		lp.walAppend, lp.storeOps, lp.pageAndReplay, lp.journal, lp.scheduler,
		lp.extraction, lp.admission,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return lp.out, nil
}

type layerRun struct {
	b     *bench
	out   map[string]float64
	spans *spanBuf
	dir   string
	n     int
}

// timeEach runs fn(i) for i in [0,n), one span per call under a parent
// span named after the metric, and returns the mean call time.
func (lp *layerRun) timeEach(name string, n int, fn func(i int) error) (time.Duration, error) {
	parent := lp.spans.next()
	t0 := time.Now()
	var total time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		e := time.Now()
		total += e.Sub(s)
		lp.spans.add(name, parent, s, e)
	}
	lp.spans.addWithID(parent, name+".all", 0, t0, time.Now())
	return total / time.Duration(n), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tmp returns a fresh directory under the phase's scratch dir.
func (lp *layerRun) tmp() string {
	lp.n++
	return filepath.Join(lp.dir, fmt.Sprintf("d%03d", lp.n))
}

// offers returns n offers of the workload's own stream.
func (lp *layerRun) offers(n int, inHorizon bool) flexoffer.Set {
	gen := newOfferGen(lp.b.o.seed*1000+99, fmt.Sprintf("layer-%d", lp.b.o.seed))
	set := make(flexoffer.Set, n)
	for i := range set {
		set[i] = gen.next(i, inHorizon)
	}
	return set
}

func (lp *layerRun) clock() func() time.Time {
	at := epoch()
	return func() time.Time { return at }
}

// walAppend: wal.Log.Append of one submitted offer, per fsync policy.
func (lp *layerRun) walAppend() error {
	payload, err := json.Marshal(lp.offers(1, false)[0])
	if err != nil {
		return err
	}
	for _, c := range []struct {
		policy wal.SyncPolicy
		n      int
	}{{wal.SyncAlways, 300}, {wal.SyncEvery, 3000}, {wal.SyncNever, 3000}} {
		log, _, err := wal.Open(wal.Options{Dir: lp.tmp(), Policy: c.policy})
		if err != nil {
			return err
		}
		mean, err := lp.timeEach("wal.append."+c.policy.String(), c.n, func(int) error {
			_, err := log.Append(payload)
			return err
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		lp.out["wal.append_us."+c.policy.String()] = us(mean)
	}
	return nil
}

// storeOps: Store.Submit/Accept/Assign in memory and journaled with fsync
// always, 8 shards as in the daemon.
func (lp *layerRun) storeOps() error {
	for _, c := range []struct {
		kind string
		n    int
	}{{"mem", 3000}, {"journaled", 300}} {
		var store *market.Store
		var journal *market.Journal
		if c.kind == "mem" {
			store = market.NewShardedStore(shards, lp.clock())
		} else {
			var err error
			store, journal, err = market.OpenJournaled(market.JournalOptions{Dir: lp.tmp(), Shards: shards, Policy: wal.SyncAlways, Clock: lp.clock()})
			if err != nil {
				return err
			}
		}
		set := lp.offers(c.n, false)
		sub, err := lp.timeEach("market.store.submit."+c.kind, c.n, func(i int) error { return store.Submit(set[i]) })
		if err != nil {
			return err
		}
		acc, err := lp.timeEach("market.store.accept."+c.kind, c.n, func(i int) error { return store.Accept(set[i].ID) })
		if err != nil {
			return err
		}
		asg, err := lp.timeEach("market.store.assign."+c.kind, c.n, func(i int) error {
			_, err := store.Assign(set[i].ID, set[i].EarliestStart, midEnergies(set[i]))
			return err
		})
		if err != nil {
			return err
		}
		if journal != nil {
			if err := journal.Close(); err != nil {
				return err
			}
		}
		lp.out["market.store.submit_us."+c.kind] = us(sub)
		lp.out["market.store.accept_us."+c.kind] = us(acc)
		lp.out["market.store.assign_us."+c.kind] = us(asg)
	}
	return nil
}

// residentStore builds an in-memory store holding mirabel-loop's
// residents: the seeded portfolio plus accepted arrivals.
func (lp *layerRun) residentStore() (*market.Store, error) {
	store := market.NewShardedStore(shards, lp.clock())
	if res := store.SubmitBatch(lp.b.in.portfolio); res.Rejected() > 0 {
		return nil, res.FirstErr()
	}
	for _, f := range lp.offers(2000, true) {
		if err := store.Submit(f); err != nil {
			return nil, err
		}
		if err := store.Accept(f.ID); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// pageAndReplay: Store.Page and Page.MarshalJSON over a full cursor walk,
// SubscribeReplay + drain at the residents, agg.Incremental.Add and
// kpi.Tracker.Apply over the replayed events.
func (lp *layerRun) pageAndReplay() error {
	store, err := lp.residentStore()
	if err != nil {
		return err
	}
	var pageT, encT time.Duration
	pages := 0
	q := market.ListQuery{Limit: listLimit}
	parent := lp.spans.next()
	for {
		s := time.Now()
		p, err := store.Page(q)
		if err != nil {
			return err
		}
		m := time.Now()
		if _, err := p.MarshalJSON(); err != nil {
			return err
		}
		e := time.Now()
		lp.spans.add("market.store.page", parent, s, m)
		lp.spans.add("market.page_encode", parent, m, e)
		pageT += m.Sub(s)
		encT += e.Sub(m)
		pages++
		if p.NextCursor == "" {
			break
		}
		q.Cursor = p.NextCursor
	}
	lp.out["market.store.page_us"] = us(pageT / time.Duration(pages))
	lp.out["market.page_encode_us"] = us(encT / time.Duration(pages))

	var events []market.StoreEvent
	s := time.Now()
	sub := store.SubscribeReplay()
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		events = append(events, ev)
	}
	sub.Close()
	lp.spans.add("market.events.replay", 0, s, time.Now())
	lp.out["market.events.replay_ms"] = ms(time.Since(s))

	tracker, err := kpi.NewTracker(kpi.Config{Resolution: resolution})
	if err != nil {
		return err
	}
	apply, err := lp.timeEach("kpi.apply", len(events), func(i int) error { tracker.Apply(events[i]); return nil })
	if err != nil {
		return err
	}
	lp.out["kpi.apply_us"] = us(apply)

	inc, err := agg.NewIncremental(agg.DefaultParams(), resolution)
	if err != nil {
		return err
	}
	set := lp.b.in.portfolio
	add, err := lp.timeEach("agg.add", len(set), func(i int) error { return inc.Add(set[i]) })
	if err != nil {
		return err
	}
	lp.out["agg.add_us"] = us(add)
	return nil
}

// journal: Journal.Snapshot of the portfolio store and OpenJournaled
// (recovery) of a prepared snapshot + WAL-tail dir.
func (lp *layerRun) journal() error {
	store, journal, err := market.OpenJournaled(market.JournalOptions{Dir: lp.tmp(), Shards: shards, Policy: wal.SyncNever, Clock: lp.clock()})
	if err != nil {
		return err
	}
	if res := store.SubmitBatch(lp.b.in.portfolio); res.Rejected() > 0 {
		return res.FirstErr()
	}
	snap, err := lp.timeEach("market.journal.snapshot", 1, func(int) error { return journal.Snapshot() })
	if err != nil {
		return err
	}
	if err := journal.Close(); err != nil {
		return err
	}
	lp.out["market.journal.snapshot_ms"] = ms(snap)

	dir := lp.tmp()
	if err := buildPrepared(dir, lp.b.in.portfolio); err != nil {
		return fmt.Errorf("prepared dir: %w", err)
	}
	var j2 *market.Journal
	open, err := lp.timeEach("market.journal.open", 1, func(int) error {
		_, j, err := market.OpenJournaled(market.JournalOptions{Dir: dir, Policy: wal.SyncNever, Clock: lp.clock()})
		j2 = j
		return err
	})
	if err != nil {
		return err
	}
	lp.out["market.journal.open_s"] = open.Seconds()
	return j2.Close()
}

// scheduler: sched.Service.RunOnce over 2000 accepted in-horizon offers
// of the workload's stream, median of three fresh stores.
func (lp *layerRun) scheduler() error {
	var runs []float64
	for r := 0; r < 3; r++ {
		store := market.NewShardedStore(shards, lp.clock())
		for _, f := range lp.offers(2000, true) {
			if err := store.Submit(f); err != nil {
				return err
			}
			if err := store.Accept(f.ID); err != nil {
				return err
			}
		}
		svc, err := sched.New(sched.Config{Store: store, Clock: lp.clock(), SupplySeed: 1})
		if err != nil {
			return err
		}
		var sum sched.RunSummary
		d, err := lp.timeEach("sched.run_once", 1, func(int) error {
			var err error
			sum, err = svc.RunOnce()
			return err
		})
		if cerr := svc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if sum.Members == 0 {
			return fmt.Errorf("sched.run_once assigned nothing")
		}
		runs = append(runs, ms(d))
	}
	lp.out["sched.run_once_ms"] = median(runs)
	return nil
}

// extraction: the paper's peak extraction and CSV reading per series, on
// the first 100 portfolio households.
func (lp *layerRun) extraction() error {
	in := lp.b.in
	n := min(100, len(in.series))
	ex, err := lp.timeEach("core.peak_extract", n, func(i int) error {
		params := core.DefaultParams()
		params.FlexPercentage = flexPct
		params.Seed = int64(i + 1)
		params.ConsumerID = in.ids[i]
		_, err := (&core.PeakExtractor{Params: params}).Extract(in.series[i])
		return err
	})
	if err != nil {
		return err
	}
	lp.out["core.peak_extract_ms_per_series"] = ms(ex)

	csvs := make([][]byte, n)
	for i := range csvs {
		var buf bytes.Buffer
		if err := in.series[i].WriteCSV(&buf); err != nil {
			return err
		}
		csvs[i] = buf.Bytes()
	}
	rd, err := lp.timeEach("timeseries.read_csv", n, func(i int) error {
		_, err := timeseries.ReadCSV(bytes.NewReader(csvs[i]))
		return err
	})
	if err != nil {
		return err
	}
	lp.out["timeseries.read_csv_ms_per_series"] = ms(rd)
	return nil
}

// admission: one uncontended pass through the daemon's admission
// middleware (default limits) around an empty handler.
func (lp *layerRun) admission() error {
	ctrl := admission.NewController(admission.Config{
		Reads:  admission.Limits{MaxConcurrent: 512, MaxQueue: 512, MaxWait: time.Second},
		Writes: admission.Limits{MaxConcurrent: 256, MaxQueue: 512, MaxWait: time.Second},
	})
	h := ctrl.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest(http.MethodPost, "/offers", nil)
	rec := httptest.NewRecorder()
	pass, err := lp.timeEach("admission.pass", 20000, func(int) error {
		h.ServeHTTP(rec, req)
		return nil
	})
	if err != nil {
		return err
	}
	lp.out["admission.pass_us"] = us(pass)
	return nil
}
