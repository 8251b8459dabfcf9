package kpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/market"
)

// genStoreOffer builds a random store-admissible offer: genScriptOffer's
// shape plus lifecycle deadlines far enough out that a clock pinned at
// the script base never expires it mid-script.
func genStoreOffer(rng *rand.Rand, n int) *flexoffer.FlexOffer {
	base := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	f := genScriptOffer(rng, n)
	f.CreationTime = base
	f.AcceptanceTime = base.Add(72 * time.Hour)
	f.AssignmentTime = base.Add(96 * time.Hour)
	// Keep the lifecycle order valid: the start window must not open
	// before the assignment deadline. Preserve the generated window
	// shape, shifted past it.
	window := f.LatestStart.Sub(f.EarliestStart)
	f.EarliestStart = f.AssignmentTime.Add(f.EarliestStart.Sub(base))
	f.LatestStart = f.EarliestStart.Add(window)
	return f
}

// step0 spaces each seed's offer-ID namespace.
func step0(seed int64) int { return int(seed) * 1000 }

// TestServiceResyncEquivalence is the lag-recovery property test: a
// service whose bounded subscription overflows mid-script must, after its
// replay resyncs, report bitwise-identically (reflect.DeepEqual, no
// tolerance) to a fresh never-lagged service attached to the same store —
// including the out-of-band dead-letter counts, which the resync re-books
// into the rebuilt tracker. 6 seeds, random lifecycle scripts, drains
// interleaved at random so lag latches at different script positions.
func TestServiceResyncEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
			store := market.NewShardedStore(4, func() time.Time { return base })

			svc, err := NewService(ServiceConfig{Store: store, EventHighWater: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			dead := make(map[string]uint64)
			var live []string // offered, undecided
			var accepted []string
			byID := make(map[string]*flexoffer.FlexOffer)
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // submit
					f := genStoreOffer(rng, step+int(seed)*1000)
					if err := store.Submit(f); err != nil {
						t.Fatalf("step %d submit: %v", step, err)
					}
					byID[f.ID] = f
					live = append(live, f.ID)
				case op < 7 && len(live) > 0: // accept
					i := rng.Intn(len(live))
					id := live[i]
					if err := store.Accept(id); err != nil {
						t.Fatalf("step %d accept %s: %v", step, id, err)
					}
					live = append(live[:i], live[i+1:]...)
					accepted = append(accepted, id)
				case op < 8 && len(live) > 0: // reject
					i := rng.Intn(len(live))
					if err := store.Reject(live[i]); err != nil {
						t.Fatalf("step %d reject: %v", step, err)
					}
					live = append(live[:i], live[i+1:]...)
				case op < 9 && len(accepted) > 0: // assign
					i := rng.Intn(len(accepted))
					id := accepted[i]
					start, energies := genAssignment(rng, byID[id])
					if _, err := store.Assign(id, start, energies); err != nil {
						t.Fatalf("step %d assign %s: %v", step, id, err)
					}
					accepted = append(accepted[:i], accepted[i+1:]...)
				default: // dead letters, out of band
					owner := scriptOwners[rng.Intn(len(scriptOwners))]
					n := uint64(1 + rng.Intn(3))
					dead[owner] += n
					svc.ObserveDeadLetters(owner, n)
				}
				// Occasional drains so the lag latch fires at varied
				// positions; most steps leave the queue to overflow.
				if rng.Intn(25) == 0 {
					svc.Report()
				}
			}

			// Force one final overflow so the last drain ends exactly on
			// a fresh replay fold: the resynced tracker then folded the
			// same bootstrap sequence a newly attached service sees, and
			// the comparison below can demand bitwise equality (identical
			// float summation order), not just tolerance.
			for i := 0; i < 10; i++ {
				f := genStoreOffer(rng, 900000+step0(seed)+i)
				if err := store.Submit(f); err != nil {
					t.Fatalf("tail submit: %v", err)
				}
			}
			got := svc.Report()
			if svc.Resyncs() == 0 {
				t.Fatal("script never overflowed the high-water mark; property untested")
			}

			// The reference: a never-lagged fold — a fresh unbounded
			// service attached now, fed the same dead letters.
			ref, err := NewService(ServiceConfig{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for owner, n := range dead {
				ref.ObserveDeadLetters(owner, n)
			}
			want := ref.Report()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resynced report diverges from never-lagged fold after %d resyncs:\ngot  %+v\nwant %+v",
					svc.Resyncs(), got, want)
			}
			// The resynced tracker's encoding cache started cold and must
			// render the same bytes as the reflection encoder.
			assertCachedJSON(t, "after resync", got, svc.drain().AppendReportJSON)
		})
	}
}
