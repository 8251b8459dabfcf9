package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/kpi"
	"repro/internal/market"
)

// checks collects the run's correctness verdicts.
type checks struct {
	list []check
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (c *checks) add(name string, ok bool, detail string) {
	c.list = append(c.list, check{Name: name, OK: ok, Detail: detail})
}

// equal records an exact-equality check.
func (c *checks) equal(name string, got, want int64) {
	c.add(name, got == want, fmt.Sprintf("daemon %d, expected %d", got, want))
}

func (c *checks) ok() bool {
	if len(c.list) == 0 {
		return false
	}
	for _, ch := range c.list {
		if !ch.OK {
			return false
		}
	}
	return true
}

// print writes the verdicts as one JSON line.
func (c *checks) print() {
	line, _ := json.Marshal(struct {
		Checks []check `json:"checks"`
	}{c.list})
	fmt.Println(string(line))
}

// verify runs the workload's correctness checks after the measured
// window: the client ledger against /stats and the /kpi fold, the seeded
// count against an in-process extraction, scheduler feasibility, and on
// the journaled workload a restart that must bring back every acked offer.
func (b *bench) verify() error {
	var ignored atomic.Int64
	c := newConn(b.d.base, &ignored)
	defer c.close()
	st := b.load
	sub, acc, asg := st.totals()
	members := uint64(st.schedMembers)

	if n := len(st.firstErrs); n > 0 {
		b.checks.add("requests.no_failures", false, fmt.Sprint(st.firstErrs))
	}

	// Ledger vs /stats: the deltas since boot are exactly what the client
	// saw acknowledged plus what scheduling rounds reported assigning.
	base, end := b.baseline.stats, b.after.stats
	b.checks.equal("stats.offered_delta", int64(end.Offered-base.Offered), int64(sub-acc))
	b.checks.equal("stats.accepted_delta", int64(end.Accepted-base.Accepted), int64(acc-asg-members))
	b.checks.equal("stats.assigned_delta", int64(end.Assigned-base.Assigned), int64(asg+members))
	b.checks.equal("stats.rejected_expired_delta", int64(end.Rejected+end.Expired-base.Rejected-base.Expired), 0)
	if !b.wl.open {
		b.checks.equal("schedule.members_on_client_offers", int64(members), 0)
	}

	// Ledger vs the KPI fold, per driver-owned owner. Only the scheduler
	// assigns besides the client, and it only ever sees driver offers.
	if err := c.get("/kpi"); err != nil {
		return err
	}
	var rep kpi.Report
	if err := c.decode(&rep); err != nil {
		return err
	}
	owners := make([]string, 0, len(st.owners))
	for o := range st.owners {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	var kSub, kAcc, kAsg uint64
	for _, o := range owners {
		v := rep.Owners[o]
		kSub += v.Submitted
		kAcc += v.Accepted
		kAsg += v.Assigned
	}
	b.checks.equal("kpi.submitted", int64(kSub), int64(sub))
	b.checks.equal("kpi.accepted", int64(kAcc), int64(acc))
	b.checks.equal("kpi.assigned", int64(kAsg), int64(asg+members))
	b.checks.equal("kpi.global_assigned_vs_stats", int64(rep.Global.Assigned), int64(end.Assigned))

	if b.wl.seeded {
		want := int64(len(b.in.portfolio))
		b.checks.equal("seed.offers_vs_inprocess_extraction", int64(base.Offered), want)
		b.checks.equal("seed.dead_lettered", int64(b.baseline.sum("pipeline_dead_letter_offers_total")), 0)
	}

	if b.o.trace {
		if err := b.energyResidual(c); err != nil {
			return err
		}
	}
	if b.wl.open {
		if err := b.feasibility(c); err != nil {
			return err
		}
	}
	if b.wl.durable {
		return b.restartCheck()
	}
	return nil
}

// walk pages through /offers with the given filter and calls fn for every
// record.
func walk(c *conn, state, owner string, fn func(r *market.Record)) error {
	cursor := ""
	for {
		next, err := c.page(state, owner, cursor, market.MaxPageLimit)
		if err != nil {
			return err
		}
		var p struct {
			Records []market.Record `json:"records"`
		}
		if err := c.decode(&p); err != nil {
			return err
		}
		for i := range p.Records {
			fn(&p.Records[i])
		}
		if next == "" {
			return nil
		}
		cursor = next
	}
}

// feasibility checks every assigned offer: start inside [EST, LST] and
// one energy per slice inside the slice bounds.
func (b *bench) feasibility(c *conn) error {
	var n, bad int64
	var first string
	err := walk(c, "assigned", "", func(r *market.Record) {
		n++
		a, f := r.Assignment, r.Offer
		ok := a != nil && !a.Start.Before(f.EarliestStart) && !a.Start.After(f.LatestStart) && len(a.Energies) == len(f.Profile)
		if ok {
			for k, e := range a.Energies {
				s := f.Profile[k]
				tol := 1e-9 * math.Max(1, math.Abs(s.MaxEnergy))
				if e < s.MinEnergy-tol || e > s.MaxEnergy+tol {
					ok = false
				}
			}
		}
		if !ok {
			bad++
			if first == "" {
				first = f.ID
			}
		}
	})
	if err != nil {
		return err
	}
	b.checks.add("assignments.feasible", bad == 0, fmt.Sprintf("%d assigned, %d infeasible %s", n, bad, first))
	b.checks.equal("assignments.count_vs_stats", n, int64(b.after.stats.Assigned))
	return nil
}

// energyResidual recomputes the non-terminal flexible energy from the
// records with a compensated sum and reports how far the daemon's running
// /stats total has drifted from it. It is reported, not gated: the
// running float sum is known to drift.
func (b *bench) energyResidual(c *conn) error {
	var sum, comp float64
	add := func(r *market.Record) {
		x := r.Offer.TotalAvgEnergy()
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	for _, state := range []string{"offered", "accepted"} {
		if err := walk(c, state, "", add); err != nil {
			return err
		}
	}
	if err := c.get("/stats"); err != nil {
		return err
	}
	var now market.Counts
	if err := c.decode(&now); err != nil {
		return err
	}
	b.energyResidualKWh = now.TotalFlexibleEnergy - (sum + comp)
	return nil
}

// restartCheck stops the daemon with SIGTERM, boots it again on the same
// data dir and checks that every offer the client saw acknowledged comes
// back in its acknowledged state.
func (b *bench) restartCheck() error {
	if err := b.d.stop(); err != nil {
		b.d = nil
		return err
	}
	b.d = nil
	d, took, err := startDaemon(b, b.wl.boots, false)
	if err != nil {
		return err
	}
	b.d = d
	b.rebootSeconds = took.Seconds()
	var ignored atomic.Int64
	c := newConn(d.base, &ignored)
	defer c.close()

	// An offer the client saw accepted may since have been assigned by a
	// scheduling round, whose summary acknowledged it to the operator; the
	// number of those must equal what the summaries reported.
	want := map[byte]market.State{ackOffered: market.Offered, ackAccepted: market.Accepted, ackAssigned: market.Assigned}
	seen, wrong, scheduled := 0, 0, 0
	var first string
	owners := make([]string, 0, len(b.load.owners))
	for o := range b.load.owners {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, o := range owners {
		if err := walk(c, "", o, func(r *market.Record) {
			ack, ok := b.load.ledger[r.Offer.ID]
			if !ok {
				return
			}
			seen++
			if ack == ackAccepted && r.State == market.Assigned {
				scheduled++
				return
			}
			if r.State != want[ack] {
				wrong++
				if first == "" {
					first = fmt.Sprintf("%s acked %c, recovered %s", r.Offer.ID, ack, r.State)
				}
			}
		}); err != nil {
			return err
		}
	}
	b.checks.equal("restart.acked_offers_recovered", int64(seen), int64(len(b.load.ledger)))
	b.checks.equal("restart.scheduled_offers_recovered", int64(scheduled), b.load.schedMembers)
	b.checks.add("restart.acked_states_recovered", wrong == 0, fmt.Sprintf("%d wrong %s (reboot %.2fs)", wrong, first, b.rebootSeconds))
	return nil
}
