package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"time"

	"repro/internal/market"
)

// scrape is one reading of the daemon's public counters: /metrics and
// /proc/<pid>.
type scrape struct {
	metrics    map[string]float64 // "name{labels}" → value
	stats      market.Counts
	cpu        time.Duration
	writeBytes float64
	hwmMiB     float64 // VmHWM: peak resident set so far
}

// takeScrape reads /metrics and /proc over c. The store counts come from
// the market_offers gauges (the /stats figures), so a scrape adds no
// request to the routes it measures.
func takeScrape(c *conn, pid int) (scrape, error) {
	s := scrape{cpu: procCPU(pid), writeBytes: procWriteBytes(pid), hwmMiB: procStatusMiB(pid, "VmHWM")}
	if err := c.get("/metrics"); err != nil {
		return s, err
	}
	s.metrics = parseMetrics(c.buf.Bytes())
	state := func(st market.State) int { return int(s.sum("market_offers", `state="`+st.String()+`"`)) }
	s.stats = market.Counts{
		Offered:             state(market.Offered),
		Accepted:            state(market.Accepted),
		Rejected:            state(market.Rejected),
		Assigned:            state(market.Assigned),
		Expired:             state(market.Expired),
		TotalFlexibleEnergy: s.sum("market_flexible_energy_kwh"),
	}
	return s, nil
}

// parseMetrics reads the Prometheus text exposition into a flat map.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of family whose label text contains all of
// matchers (e.g. `route="/kpi"`).
func (s scrape) sum(family string, matchers ...string) float64 {
	var total float64
	for key, v := range s.metrics {
		name, labels, _ := strings.Cut(key, "{")
		if name != family {
			continue
		}
		ok := true
		for _, m := range matchers {
			if !strings.Contains(labels, m) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after − before of one summed family.
func delta(before, after scrape, family string, matchers ...string) float64 {
	return after.sum(family, matchers...) - before.sum(family, matchers...)
}

// ratio is n/d, 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
