// Command perfbench is the repository benchmark: it starts the real
// mirabeld binary, drives it over loopback from this one process, checks
// that the daemon's answers are correct, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object on
// the last line of standard output.
//
// It is normally started through run.sh, which builds both binaries from
// the checkout first:
//
//	bash perfbench/run.sh --workload lifecycle-mem --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - lifecycle-mem: in-memory daemon seeded with a small household
//     portfolio, closed loop on 2 connections, submit → accept → assign
//     with periodic stats, KPI, list and scheduling reads.
//   - mirabel-loop: journaled daemon (-fsync always) seeded with a
//     household portfolio; open-loop offer arrivals on one connection, an
//     operator (schedule, KPI, cursor walk) on the other, and a restart
//     that must bring back every acknowledged offer.
//
// The daemon and the driver run on disjoint CPU sets, and only one request
// is in flight at a time, so the daemon's CPU time across a request is
// that request's own. The request metrics are that CPU time, scaled with
// a reference unit run on the daemon's CPU between requests (see gate);
// wall-clock figures are reported alongside. Inputs derive from -seed
// only; the daemon's clock is pinned to the portfolio epoch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command-line arguments of one benchmark run.
type options struct {
	root     string // checkout root (sources)
	out      string // build and scratch directory inside the checkout
	daemon   string // mirabeld binary
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "checkout root holding the mirabeld sources")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for binaries, data dirs and traces")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/bin/mirabeld", "mirabeld binary")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | ")+" | all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	calibrate := flag.Bool("calibrate", false, "run as the calibrator process (internal)")
	flag.Parse()
	o.trace = trace == 1
	if *calibrate {
		os.Exit(calibratorMain())
	}

	if o.workload == "all" {
		os.Exit(runAll())
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in its own process with the
// same flags, prints every metric by name with its unit per workload, and
// returns a non-zero exit code if any run failed or any check did not
// hold.
func runAll() int {
	code := 0
	for _, name := range workloadNames() {
		var args []string
		for i := 1; i < len(os.Args); i++ {
			switch a := os.Args[i]; {
			case a == "-workload" || a == "--workload":
				i++ // drop its value
			case strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload="):
			default:
				args = append(args, a)
			}
		}
		cmd := exec.Command(os.Args[0], append(args, "-workload", name)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Printf("%-18s FAILED: %v\n", name, err)
			code = 1
			continue
		}
		names := make([]string, 0, len(res.Metrics))
		for m := range res.Metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			fmt.Printf("%-18s %-40s %14.6g %s\n", name, m, res.Metrics[m].Value, res.Metrics[m].Unit)
		}
		fmt.Printf("%-18s %-40s %14v (attempted %d, failed %d)\n", name, "correct", res.Correct, res.Attempted, res.Failed)
		if !res.Correct {
			fmt.Printf("%-18s %s\n", name, findLine(lines, `{"checks"`))
			code = 1
		}
	}
	return code
}

// findLine returns the first line with the given prefix.
func findLine(lines []string, prefix string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

// run executes one workload end to end and assembles the result.
func run(o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	work := filepath.Join(o.out, "run", o.workload)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	b := &bench{o: o, wl: wl, work: work, checks: &checks{}}
	defer b.stopDaemon()
	defer func() { b.cal.stop() }()
	if err := b.execute(); err != nil {
		return nil, err
	}

	res := &result{
		Attempted: b.load.attempted,
		Failed:    b.load.failed + b.load.shed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		b.perLayer(res.Metrics)
	} else {
		b.endToEnd(res.Metrics)
	}
	res.Correct = b.checks.ok()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A failed request counts as missing every latency limit; JSON
			// has no infinity, so report an unmistakably failing value.
			m.Value = 1e12
			res.Metrics[name] = m
		}
	}
	b.printHost()
	b.checks.print()
	return res, nil
}

// bench is the state of one run.
type bench struct {
	o      options
	wl     workload
	work   string
	checks *checks
	host   hostInfo

	in     *inputs
	d      *daemon
	setups []float64 // exec → /readyz 200, seconds, one per boot
	load   *loadStats

	baseline scrape // right after boot, before any load
	before   scrape // start of the measured window
	after    scrape // end of the measured window

	energyResidualKWh float64            // /stats running total − recomputed (trace runs)
	rebootSeconds     float64            // restart check boot time (journaled workload)
	layers            map[string]float64 // in-process layer-call phase (trace only)
	notes             []string           // why a per-layer metric reads 0 on this workload
	tracer            *tracer
	cal               *calibrator
	gate              *gate // the measured window's calibrations
}

// execute runs the phases of one run in order.
func (b *bench) execute() error {
	var err error
	b.host = readHost(b.o, b.wl)
	if b.in, err = makeInputs(b.o, b.wl, b.work); err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	if err := pinSelf(b.host.driverCPUs); err != nil {
		return fmt.Errorf("pin driver: %w", err)
	}
	if b.cal, err = startCalibrator(b.host.daemonCPUs[0]); err != nil {
		return fmt.Errorf("calibrator: %w", err)
	}
	if err := b.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.tracer = newTracer(b.o.trace)
	if err := b.drive(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := b.verify(); err != nil {
		return fmt.Errorf("checks: %w", err)
	}
	if b.o.trace {
		if b.layers, err = layerPhase(b); err != nil {
			return fmt.Errorf("layer phase: %w", err)
		}
		if err := b.tracer.write(filepath.Join(b.o.out, "traces", b.o.workload+".jsonl")); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	b.host.finish()
	return nil
}

// setup boots the daemon wl.boots times and keeps the last one running.
// Each boot is timed from exec to the first /readyz 200.
func (b *bench) setup() error {
	for i := 0; i < b.wl.boots; i++ {
		if err := b.prepareDataDir(); err != nil {
			return err
		}
		d, took, err := startDaemon(b, i, true)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, took.Seconds())
		if i < b.wl.boots-1 {
			if err := d.stop(); err != nil {
				return err
			}
			continue
		}
		b.d = d
	}
	return nil
}

// stopDaemon stops the running daemon, if any, and waits for it.
func (b *bench) stopDaemon() {
	if b.d != nil {
		_ = b.d.stop()
		b.d = nil
	}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
