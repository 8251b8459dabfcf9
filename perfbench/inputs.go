package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/flexoffer"
	"repro/internal/household"
	"repro/internal/market"
	"repro/internal/pipeline"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// workload is one traffic mix and daemon configuration.
type workload struct {
	name    string
	durable bool // -data-dir with -fsync always
	seeded  bool // -seed-dir on the portfolio CSVs (setup = extraction → store, and WAL when durable)
	open    bool // open-loop arrivals + operator instead of the closed lifecycle loop
	boots   int  // daemon boots per run; setup_s is their median
	// households is the size of the simulated portfolio the daemon is
	// seeded with (28 days each, about 28 offers per household).
	households int
	// rssOffers is the count of acknowledged offers at which rss_peak_mb
	// is read, so a closed loop's figure does not follow its throughput;
	// 0 reads it at the end of the window.
	rssOffers int
}

var workloads = map[string]workload{
	"lifecycle-mem": {name: "lifecycle-mem", seeded: true, boots: 5, households: 300, rssOffers: 20000},
	"mirabel-loop":  {name: "mirabel-loop", durable: true, seeded: true, open: true, boots: 3, households: 1500},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	// shards is the daemon's store partition count on every workload.
	shards = 8
	// snapshotEvery is the journaled daemon's -snapshot-every. Each
	// automatic round marshals whole shards while requests wait, and at
	// mirabeld's default of 4096 a measured window holds one round, so the
	// tail sits halfway into a single stall's backlog. 1024 puts several
	// rounds in every window and their stalls in the tails.
	snapshotEvery = 1024
	// Each household is simulated for days at resolution.
	days       = 28
	resolution = 15 * time.Minute
	// flexPct is mirabeld's -seed-flexpct default, used for the
	// in-process extraction that must match the daemon's seeding.
	flexPct = 0.05
)

// portfolioStart is the first simulated day; the daemon's pinned clock
// (the portfolio epoch) is one day earlier, so every extracted offer is
// still inside its acceptance window.
var portfolioStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// epoch is the value of the daemon's -clock on every workload.
func epoch() time.Time { return portfolioStart.Add(-24 * time.Hour) }

// inputs are everything a run derives from its seed before timing starts.
type inputs struct {
	ids        []string             // household IDs in seeding order (sorted CSV names)
	series     []*timeseries.Series // one consumption series per household, same order
	portfolio  flexoffer.Set        // in-process peak extraction, seeding order
	seedDir    string               // portfolio CSVs (seeded workloads)
	genSeconds float64              // portfolio simulation time
}

// needPortfolio reports whether the run uses the household portfolio.
func needPortfolio(o options, wl workload) bool {
	return wl.seeded || o.trace
}

// makeInputs generates the household portfolio from the seed (the
// gendata path), extracts it in-process with the daemon's seeding
// parameters, and writes the CSVs the workload seeds from.
func makeInputs(o options, wl workload, work string) (*inputs, error) {
	in := &inputs{}
	if !needPortfolio(o, wl) {
		return in, nil
	}
	t0 := time.Now()
	reg := appliance.Default()
	cfgs := household.Population(wl.households, o.seed)
	// mirabeld seeds files in sorted name order and derives each
	// extractor's seed from that position; follow the same order.
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID+".csv" < cfgs[j].ID+".csv" })
	in.ids = make([]string, len(cfgs))
	in.series = make([]*timeseries.Series, len(cfgs))
	if err := parallel(len(cfgs), func(i int) error {
		r, err := household.Simulate(reg, cfgs[i], portfolioStart, days, resolution)
		if err != nil {
			return fmt.Errorf("simulate %s: %w", cfgs[i].ID, err)
		}
		total, err := composeTotal(r)
		if err != nil {
			return fmt.Errorf("simulate %s: %w", cfgs[i].ID, err)
		}
		in.ids[i], in.series[i] = cfgs[i].ID, total
		return nil
	}); err != nil {
		return nil, err
	}
	in.genSeconds = time.Since(t0).Seconds()

	var err error
	if in.portfolio, err = extractPortfolio(in.ids, in.series, 0); err != nil {
		return nil, err
	}
	if wl.seeded {
		in.seedDir = filepath.Join(work, "portfolio")
		if err := writeCSVs(in.seedDir, in.ids, in.series); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// composeTotal sums a simulated household's base load and appliance
// contributions in appliance-name order. household.Simulate adds the
// appliances to its Total in map order, so the same seed gives totals
// that differ in their last bits from run to run; this sum is the same
// consumption with a fixed order, so one seed always gives one portfolio.
func composeTotal(r *household.Result) (*timeseries.Series, error) {
	names := make([]string, 0, len(r.PerAppliance))
	for name := range r.PerAppliance {
		names = append(names, name)
	}
	sort.Strings(names)
	total := r.Base
	for _, name := range names {
		var err error
		if total, err = total.Add(r.PerAppliance[name]); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	next := make(chan int)
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for i := range next {
				if err := fn(i); err != nil && first == nil {
					first = err
				}
			}
			errc <- first
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// extractPortfolio runs the paper's peak-based extraction over every
// series exactly as mirabeld's -seed-dir path does (pipeline, per-series
// seed = 1-based position, consumer = household ID) and returns the
// offers in seeding order. workers 0 means GOMAXPROCS.
func extractPortfolio(ids []string, series []*timeseries.Series, workers int) (flexoffer.Set, error) {
	jobs := make([]pipeline.Job, len(ids))
	seedOf := make(map[string]int64, len(ids))
	pos := make(map[string]int, len(ids))
	for i, id := range ids {
		jobs[i] = pipeline.Job{ID: id, Series: series[i]}
		seedOf[id] = int64(i + 1)
		pos[id] = i
	}
	sink := &pipeline.CollectSink{}
	stats, err := pipeline.RunJobs(context.Background(), pipeline.Config{
		Workers: workers,
		NewExtractor: func(j pipeline.Job) core.Extractor {
			params := core.DefaultParams()
			params.FlexPercentage = flexPct
			params.Seed = seedOf[j.ID]
			params.ConsumerID = j.ID
			return &core.PeakExtractor{Params: params}
		},
	}, jobs, sink)
	if err != nil {
		return nil, err
	}
	if stats.Errors > 0 {
		return nil, fmt.Errorf("%d series failed extraction", stats.Errors)
	}
	outs := sink.Outputs()
	sort.Slice(outs, func(i, j int) bool { return pos[outs[i].JobID] < pos[outs[j].JobID] })
	var set flexoffer.Set
	for _, out := range outs {
		set = append(set, out.Result.Offers...)
	}
	return set, nil
}

// writeCSVs writes one timestamp,kwh CSV per household, as gendata does.
func writeCSVs(dir string, ids []string, series []*timeseries.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, id := range ids {
		f, err := os.Create(filepath.Join(dir, id+".csv"))
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<16)
		err = series[i].WriteCSV(w)
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// buildPrepared writes a recovery image: the portfolio in an 8-shard
// journaled store whose first three quarters sit in per-shard
// snapshots and the rest in a WAL tail of small batches, so a boot
// exercises both snapshot load and replay. The clock is pinned and the
// order fixed, so the directory is byte-identical for a given seed.
func buildPrepared(dir string, portfolio flexoffer.Set) error {
	clock := epoch()
	store, journal, err := market.OpenJournaled(market.JournalOptions{
		Dir:    dir,
		Shards: shards,
		Policy: wal.SyncNever,
		Clock:  func() time.Time { return clock },
	})
	if err != nil {
		return err
	}
	cut := len(portfolio) * 3 / 4
	if res := store.SubmitBatch(portfolio[:cut]); res.Rejected() > 0 {
		return fmt.Errorf("prepared snapshot part: %d rejected: %v", res.Rejected(), res.FirstErr())
	}
	if err := journal.Snapshot(); err != nil {
		return err
	}
	const tailBatch = 64
	for i := cut; i < len(portfolio); i += tailBatch {
		end := min(i+tailBatch, len(portfolio))
		if res := store.SubmitBatch(portfolio[i:end]); res.Rejected() > 0 {
			return fmt.Errorf("prepared tail: %d rejected: %v", res.Rejected(), res.FirstErr())
		}
	}
	// The journal is deliberately left open: Close would snapshot the
	// tail away. Every record is already written to its segment file.
	return nil
}

// offerGen builds one connection's deterministic offer stream, relative
// to the pinned clock.
type offerGen struct {
	rng   *rand.Rand
	owner string
	clock time.Time
}

func newOfferGen(seed int64, owner string) *offerGen {
	return &offerGen{rng: rand.New(rand.NewSource(seed)), owner: owner, clock: epoch()}
}

// next returns offer i. inHorizon places it on the 15-minute grid inside
// the scheduler's 24 h horizon (the scheduler may assign it); otherwise it
// starts 2–3 days out, where no round schedules it, and only the client
// assigns it.
func (g *offerGen) next(i int, inHorizon bool) *flexoffer.FlexOffer {
	slices := 2 + g.rng.Intn(7)
	profile := make([]flexoffer.Slice, slices)
	for k := range profile {
		lo := 0.1 + g.rng.Float64()
		profile[k] = flexoffer.Slice{Duration: resolution, MinEnergy: lo, MaxEnergy: lo + g.rng.Float64()}
	}
	var est time.Time
	if inHorizon {
		// Starts 1–16 h after the epoch, so start + flexibility + profile
		// stays inside the 24 h horizon.
		est = g.clock.Add(time.Hour + time.Duration(g.rng.Intn(61))*resolution)
	} else {
		est = g.clock.Add(48*time.Hour + time.Duration(g.rng.Intn(96))*resolution)
	}
	flex := time.Duration(1+g.rng.Intn(4)) * time.Hour
	fo := &flexoffer.FlexOffer{
		ID:             fmt.Sprintf("%s-%07d", g.owner, i),
		ConsumerID:     g.owner,
		CreationTime:   g.clock,
		AcceptanceTime: g.clock.Add(30 * time.Minute),
		AssignmentTime: g.clock.Add(45 * time.Minute),
		EarliestStart:  est,
		LatestStart:    est.Add(flex),
		Profile:        profile,
	}
	if err := fo.Validate(); err != nil {
		panic(fmt.Sprintf("perfbench: generated invalid offer: %v", err))
	}
	return fo
}

// midEnergies is the client's assignment: every slice at its midpoint.
func midEnergies(f *flexoffer.FlexOffer) []float64 {
	e := make([]float64, len(f.Profile))
	for k, s := range f.Profile {
		e[k] = (s.MinEnergy + s.MaxEnergy) / 2
	}
	return e
}
