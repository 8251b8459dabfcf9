package market

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientReusesConnection: sequential client calls — bodiless
// successes (Submit, Accept), decoded successes and error responses —
// all ride one keep-alive connection. A response body closed before EOF
// makes the transport drop its connection, so each such call would dial
// anew.
func TestClientReusesConnection(t *testing.T) {
	clock := &fakeClock{now: t0}
	store := NewStore(clock.Now)
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(NewServer(store))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	cl := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	calls := []struct {
		name    string
		call    func() error
		wantErr bool
	}{
		{"submit a", func() error { return cl.Submit(testOffer("a")) }, false},
		{"submit b", func() error { return cl.Submit(testOffer("b")) }, false},
		{"duplicate submit", func() error { return cl.Submit(testOffer("a")) }, true},
		{"accept a", func() error { return cl.Accept("a") }, false},
		{"accept a again", func() error { return cl.Accept("a") }, true},
		{"reject b", func() error { return cl.Reject("b") }, false},
		{"assign a", func() error {
			return cl.Assign("a", t0.Add(7*time.Hour), []float64{0.5, 0.5, 0.5, 0.5})
		}, false},
		{"get a", func() error { _, err := cl.Get("a"); return err }, false},
		{"get missing", func() error { _, err := cl.Get("nope"); return err }, true},
		{"list", func() error { _, err := cl.List(""); return err }, false},
		{"list page", func() error { _, err := cl.ListPage(ListQuery{Limit: 1}); return err }, false},
		{"stats", func() error { _, err := cl.Stats(); return err }, false},
		{"expire", func() error { _, err := cl.Expire(); return err }, false},
	}
	for _, c := range calls {
		if err := c.call(); (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d sequential calls opened %d connections, want 1", len(calls), n)
	}
}
