package kpi

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/flexoffer"
	"repro/internal/market"
)

// oracleJSON is the reflection encoding of the filtered report: what
// GET /kpi wrote before the per-scope cache, and what the cached path
// must reproduce byte for byte.
func oracleJSON(t testing.TB, rep Report, sel Selection) []byte {
	t.Helper()
	switch {
	case sel.Owner != "":
		rep.Owners = map[string]Values{sel.Owner: rep.Owners[sel.Owner]}
	case sel.NoOwners:
		rep.Owners = nil
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

// assertCachedJSON requires render (a tracker's AppendReportJSON) to
// match the oracle encoding of rep for every selection: all owners,
// none, and each owner alone.
func assertCachedJSON(t testing.TB, where string, rep Report, render func([]byte, Selection) ([]byte, error)) {
	t.Helper()
	sels := []Selection{{}, {NoOwners: true}}
	for owner := range rep.Owners {
		if owner != "" { // the empty Owner selects every owner
			sels = append(sels, Selection{Owner: owner})
		}
	}
	for _, sel := range sels {
		got, err := render(nil, sel)
		if err != nil {
			t.Fatalf("%s: AppendReportJSON(%+v): %v", where, sel, err)
		}
		if want := oracleJSON(t, rep, sel); !bytes.Equal(got, want) {
			t.Fatalf("%s: cached encoding for %+v diverges from the reflection encoding\ncached: %s\noracle: %s", where, sel, got, want)
		}
	}
}

// TestAppendReportJSONContract: the rendered bytes append to dst, and an
// unseen owner is an ErrUnknownOwner that leaves dst as it was.
func TestAppendReportJSONContract(t *testing.T) {
	tr, err := NewTracker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertCachedJSON(t, "empty tracker", tr.Report(), tr.AppendReportJSON)
	tr.Apply(market.StoreEvent{Kind: market.EventSubmitted, Offer: goldenOffer("a", "house-a", at(18), at(20), [2]float64{1, 3})})

	prefix := []byte("prefix:")
	got, err := tr.AppendReportJSON(prefix, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("prefix:"), oracleJSON(t, tr.Report(), Selection{})...); !bytes.Equal(got, want) {
		t.Fatalf("append to prefix:\ngot  %s\nwant %s", got, want)
	}
	got, err = tr.AppendReportJSON(prefix, Selection{Owner: "nobody"})
	if !errors.Is(err, ErrUnknownOwner) || !bytes.Equal(got, prefix) {
		t.Fatalf("unknown owner: got %q, %v; want the bare prefix and ErrUnknownOwner", got, err)
	}
}

// FuzzKPIReportOwnerKeys pins owner-key encoding to encoding/json's
// map-key path: keys with HTML-special characters, U+2028/U+2029,
// control bytes and invalid UTF-8 must escape (and sort) exactly as the
// reflection encoder does.
func FuzzKPIReportOwnerKeys(f *testing.F) {
	for _, seed := range [][2]string{
		{"house-1", "house-2"},
		{"<script>", "a&b"},
		{"\u2028", "line\u2029sep"},
		{"\xff\xfe", "ok\xc3"},
		{`quo"te`, `back\slash`},
		{"\x00\x1f", "\x7f"},
		{"é", "\xed\xa0\x80"},
		{"", ">"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		tr, err := NewTracker(Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i, owner := range []string{a, b, "house-1", a} {
			id := "o" + strconv.Itoa(i)
			tr.Apply(market.StoreEvent{Kind: market.EventSubmitted, Offer: goldenOffer(id, owner, at(18), at(20), [2]float64{1, 3})})
		}
		assertCachedJSON(t, "submitted", tr.Report(), tr.AppendReportJSON)
		tr.Apply(market.StoreEvent{Kind: market.EventAssigned, Offer: goldenOffer("o0", a, at(18), at(20), [2]float64{1, 3}), Start: at(19), Energies: []float64{2}})
		tr.ObserveDeadLetters(b, 2)
		assertCachedJSON(t, "assigned", tr.Report(), tr.AppendReportJSON)
	})
}

// TestAppendReportJSONConcurrent runs cached readers of every selection
// beside a folding writer (run it under -race). Each rendered report must
// be one consistent snapshot — its global tally equal to the sum over its
// owners — and once the writer stops the cache must match the oracle.
func TestAppendReportJSONConcurrent(t *testing.T) {
	const owners, events, readers = 8, 400, 4
	tr, err := NewTracker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			owner := "house-" + strconv.Itoa(i%owners)
			f := goldenOffer("o"+strconv.Itoa(i), owner, at(18), at(20), [2]float64{1, 3})
			tr.Apply(market.StoreEvent{Kind: market.EventSubmitted, Offer: f})
			if i%3 == 0 {
				tr.Apply(market.StoreEvent{Kind: market.EventAssigned, Offer: f, Start: at(19), Energies: []float64{2}})
			}
			if i%50 == 0 {
				tr.ObserveDeadLetters(owner, 1)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sels := []Selection{{}, {NoOwners: true}, {Owner: "house-" + strconv.Itoa(r)}}
			for i := 0; i < 100; i++ {
				sel := sels[i%len(sels)]
				body, err := tr.AppendReportJSON(nil, sel)
				if errors.Is(err, ErrUnknownOwner) {
					continue // the writer has not reached this owner yet
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				var rep Report
				if err := json.Unmarshal(body, &rep); err != nil {
					t.Errorf("reader %d: invalid JSON: %v", r, err)
					return
				}
				if sel == (Selection{}) {
					var submitted, assigned uint64
					for _, v := range rep.Owners {
						submitted += v.Submitted
						assigned += v.Assigned
					}
					if submitted != rep.Global.Submitted || assigned != rep.Global.Assigned {
						t.Errorf("reader %d: torn snapshot: owners sum %d/%d, global %d/%d",
							r, submitted, assigned, rep.Global.Submitted, rep.Global.Assigned)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	assertCachedJSON(t, "after concurrent folds", tr.Report(), tr.AppendReportJSON)
}

// benchTracker is a mirabel-loop-sized tracker: 1,500 owners with 28
// offered offers each, plus one hot owner every iteration folds into.
func benchTracker(b *testing.B) (*Tracker, *flexoffer.FlexOffer) {
	b.Helper()
	tr, err := NewTracker(Config{})
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	tmpl := goldenOffer("", "", base.Add(18*time.Hour), base.Add(22*time.Hour), [2]float64{0.5, 1.5}, [2]float64{0.2, 0.8})
	for o := 0; o < 1500; o++ {
		owner := "home-" + strconv.Itoa(o)
		for i := 0; i < 28; i++ {
			f := *tmpl
			f.ID, f.ConsumerID = owner+"/peak-"+strconv.Itoa(i), owner
			tr.Apply(market.StoreEvent{Kind: market.EventSubmitted, Offer: &f})
		}
	}
	tmpl.ConsumerID = "arrivals"
	return tr, tmpl
}

// reportSink keeps the benchmarked encodings alive.
var reportSink []byte

// BenchmarkKPIReportJSON measures one operator read of the full report
// after one fold: the reflection oracle (Report, then json.NewEncoder)
// beside the per-scope cached path GET /kpi serves.
func BenchmarkKPIReportJSON(b *testing.B) {
	render := map[string]func(*Tracker) ([]byte, error){
		"oracle": func(tr *Tracker) ([]byte, error) {
			var buf bytes.Buffer
			err := json.NewEncoder(&buf).Encode(tr.Report())
			return buf.Bytes(), err
		},
		"cached": func(tr *Tracker) ([]byte, error) {
			return tr.AppendReportJSON(nil, Selection{})
		},
	}
	for _, name := range []string{"oracle", "cached"} {
		b.Run(name, func(b *testing.B) {
			tr, hot := benchTracker(b)
			var err error
			if reportSink, err = render[name](tr); err != nil { // warms the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := *hot
				f.ID = "arrivals/" + strconv.Itoa(i)
				tr.Apply(market.StoreEvent{Kind: market.EventSubmitted, Offer: &f})
				if reportSink, err = render[name](tr); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(reportSink)))
		})
	}
}
