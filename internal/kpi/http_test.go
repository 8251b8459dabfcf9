package kpi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/market"
)

// newTestService builds a service over a small live store: two owners,
// one offer assigned, one rejected, one left offered.
func newTestService(t *testing.T) (*Service, *market.Store) {
	t.Helper()
	now := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	store := market.NewStore(func() time.Time { return now })

	a := goldenOffer("a", "house-a", at(18), at(20), [2]float64{1, 3}, [2]float64{1, 3})
	b := goldenOffer("b", "house-b", at(19), at(23), [2]float64{2, 4})
	c := goldenOffer("c", "house-a", at(20), at(21), [2]float64{1, 1})
	if err := store.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := store.Submit(b); err != nil {
		t.Fatal(err)
	}
	if err := store.Submit(c); err != nil {
		t.Fatal(err)
	}
	if err := store.Accept("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Assign("a", at(20), []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := store.Reject("b"); err != nil {
		t.Fatal(err)
	}

	svc, err := NewService(ServiceConfig{Store: store, Config: Config{Resolution: time.Hour, PeakStartHour: 18, PeakEndHour: 22}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, store
}

// getKPI performs one request against the service handler.
func getKPI(t *testing.T, h http.Handler, method, target string) (int, []byte) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, target, nil))
	return rr.Code, rr.Body.Bytes()
}

// TestKPIHandler covers the /kpi contract: the happy path, both filters,
// and every error path with the JSON error envelope.
func TestKPIHandler(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()

	code, body := getKPI(t, h, "GET", "/kpi")
	if code != http.StatusOK {
		t.Fatalf("GET /kpi = %d: %s", code, body)
	}
	var rep Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("GET /kpi: invalid JSON: %v", err)
	}
	if rep.Global.Submitted != 3 || rep.Global.Assigned != 1 || rep.Global.Rejected != 1 {
		t.Fatalf("unexpected global counts: %+v", rep.Global.Totals)
	}
	if len(rep.Owners) != 2 {
		t.Fatalf("owners = %v, want house-a and house-b", rep.Owners)
	}
	if rep.Config.PeakStartHour != 18 || rep.Config.PeakEndHour != 22 {
		t.Fatalf("config view off: %+v", rep.Config)
	}

	code, body = getKPI(t, h, "GET", "/kpi?owner=house-a")
	if code != http.StatusOK {
		t.Fatalf("owner filter = %d: %s", code, body)
	}
	rep = Report{}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Owners) != 1 || rep.Owners["house-a"].Submitted != 2 {
		t.Fatalf("owner filter returned %v", rep.Owners)
	}

	code, body = getKPI(t, h, "GET", "/kpi?owners=false")
	if code != http.StatusOK {
		t.Fatalf("owners=false = %d: %s", code, body)
	}
	if strings.Contains(string(body), `"owners"`) {
		t.Fatalf("owners=false must omit the breakdown: %s", body)
	}

	for _, tc := range []struct {
		target string
		method string
		want   int
	}{
		{"/kpi?owner=nobody", "GET", http.StatusNotFound},
		{"/kpi?owners=maybe", "GET", http.StatusBadRequest},
		{"/kpi?owner=house-a&owners=false", "GET", http.StatusBadRequest},
		{"/kpi", "POST", http.StatusMethodNotAllowed},
		{"/kpi", "DELETE", http.StatusMethodNotAllowed},
	} {
		code, body := getKPI(t, h, tc.method, tc.target)
		if code != tc.want {
			t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.target, code, tc.want, body)
		}
		var envelope struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
			t.Errorf("%s %s: missing error envelope: %s", tc.method, tc.target, body)
		}
	}
}

// TestKPIHandlerBodyMatchesReport: each selection's response body is
// byte-identical to the reflection encoding of the filtered Report and
// carries its Content-Length.
func TestKPIHandlerBodyMatchesReport(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	for _, tc := range []struct {
		target string
		sel    Selection
	}{
		{"/kpi", Selection{}},
		{"/kpi?owners=true", Selection{}},
		{"/kpi?owners=false", Selection{NoOwners: true}},
		{"/kpi?owner=house-b", Selection{Owner: "house-b"}},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", tc.target, nil))
		body := rr.Body.Bytes()
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", tc.target, rr.Code, body)
		}
		if want := oracleJSON(t, svc.Report(), tc.sel); !bytes.Equal(body, want) {
			t.Errorf("GET %s body:\n got %s\nwant %s", tc.target, body, want)
		}
		if got, want := rr.Header().Get("Content-Length"), strconv.Itoa(len(body)); got != want {
			t.Errorf("GET %s Content-Length = %q, want %q", tc.target, got, want)
		}
		if got := rr.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("GET %s Content-Type = %q", tc.target, got)
		}
	}
}

// TestKPIHandlerDrainsLiveEvents checks that a request observes store
// transitions that happened after the previous request.
func TestKPIHandlerDrainsLiveEvents(t *testing.T) {
	svc, store := newTestService(t)
	h := svc.Handler()

	_, body := getKPI(t, h, "GET", "/kpi")
	var before Report
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if err := store.Accept("c"); err != nil {
		t.Fatal(err)
	}
	_, body = getKPI(t, h, "GET", "/kpi")
	var after Report
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Global.Accepted != before.Global.Accepted+1 {
		t.Fatalf("accept not folded: before %d, after %d", before.Global.Accepted, after.Global.Accepted)
	}
	if after.Events != before.Events+1 {
		t.Fatalf("events: before %d, after %d, want +1", before.Events, after.Events)
	}
}

// FuzzKPIQuery throws arbitrary query strings at the handler: it must
// never panic, always answer 200/400/404, and always produce valid JSON.
func FuzzKPIQuery(f *testing.F) {
	now := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	store := market.NewStore(func() time.Time { return now })
	a := goldenOffer("a", "house-a", at(18), at(20), [2]float64{1, 3})
	if err := store.Submit(a); err != nil {
		f.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{Store: store})
	if err != nil {
		f.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()

	for _, seed := range []string{
		"", "owner=house-a", "owner=nobody", "owners=false", "owners=true",
		"owners=2", "owners=x", "owner=house-a&owners=false", "owner=%zz",
		"owner=a&owner=b", "owners=false&owners=true", "a=b&&&=", "owner=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: "/kpi", RawQuery: rawQuery},
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("query %q: unexpected status %d", rawQuery, rr.Code)
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("query %q: invalid JSON body: %s", rawQuery, rr.Body.Bytes())
		}
	})
}
