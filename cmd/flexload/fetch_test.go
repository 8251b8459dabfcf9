package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/market"
)

// TestFetchHelpersReuseConnection: the report scrapers decode with a
// json.Decoder, which stops before the trailing newline the server's
// encoder writes; undrained, every scrape would cost a fresh connection.
// Sequential scrapes — including a failing one — must share one.
func TestFetchHelpersReuseConnection(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/kpi", func(w http.ResponseWriter, r *http.Request) {
		market.WriteJSON(w, http.StatusOK, map[string]any{"events": 3})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		market.WriteJSON(w, http.StatusOK, map[string]any{
			"market_shard_records": []map[string]any{{"labels": map[string]string{"shard": "0"}, "value": 2}},
		})
	})
	mux.HandleFunc("/schedule/run", func(w http.ResponseWriter, r *http.Request) {
		market.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "ledger down"})
	})
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	client := ts.Client()

	const rounds = 4
	for i := 0; i < rounds; i++ {
		rep, err := fetchKPI(client, ts.URL)
		if err != nil || rep.Events != 3 {
			t.Fatalf("fetchKPI = %+v, %v", rep, err)
		}
		if _, err := fetchShardStats(client, ts.URL); err != nil {
			t.Fatalf("fetchShardStats: %v", err)
		}
		if err := postScheduleRun(context.Background(), client, ts.URL); err == nil {
			t.Fatal("postScheduleRun: want the 503 as an error")
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d sequential scrapes opened %d connections, want 1", 3*rounds, n)
	}
}
