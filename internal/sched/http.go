package sched

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/agg"
	"repro/internal/market"
)

// AggregateView is the JSON shape of one aggregate on GET /aggregates.
type AggregateView struct {
	// ID is the deterministic aggregate ID.
	ID string `json:"id"`
	// EarliestStart and LatestStart bound the aggregate's start window.
	EarliestStart time.Time `json:"earliest_start"`
	LatestStart   time.Time `json:"latest_start"`
	// Slices is the aggregated profile length.
	Slices int `json:"slices"`
	// MinKWh and MaxKWh bound the aggregate's total energy.
	MinKWh float64 `json:"min_kwh"`
	MaxKWh float64 `json:"max_kwh"`
	// Members lists the member offer IDs.
	Members []string `json:"members"`
}

// viewOf renders one aggregate.
func viewOf(a *agg.Aggregate) AggregateView {
	v := AggregateView{
		ID:            a.Offer.ID,
		EarliestStart: a.Offer.EarliestStart,
		LatestStart:   a.Offer.LatestStart,
		Slices:        len(a.Offer.Profile),
		MinKWh:        a.Offer.TotalMinEnergy(),
		MaxKWh:        a.Offer.TotalMaxEnergy(),
		Members:       make([]string, len(a.Members)),
	}
	for i, f := range a.Members {
		v.Members[i] = f.ID
	}
	return v
}

// Handler serves the scheduling API:
//
//	GET  /aggregates    current aggregation (?limit= caps the list)
//	GET  /schedule      service status: counters, last run, history
//	POST /schedule/run  execute one scheduling round now
//
// Mount it beside the market server; the daemon's observability middleware
// wraps both.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/aggregates", s.handleAggregates)
	mux.HandleFunc("/schedule", s.handleSchedule)
	mux.HandleFunc("/schedule/run", s.handleScheduleRun)
	return mux
}

func (s *Service) handleAggregates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		market.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	limit := -1
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			market.WriteJSONError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	aggs, err := s.Aggregates()
	if err != nil {
		market.WriteJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	views := make([]AggregateView, 0, len(aggs))
	for _, a := range aggs {
		if limit >= 0 && len(views) == limit {
			break
		}
		views = append(views, viewOf(a))
	}
	market.WriteJSON(w, http.StatusOK, struct {
		Aggregates []AggregateView      `json:"aggregates"`
		Total      int                  `json:"total"`
		Stats      agg.IncrementalStats `json:"stats"`
	}{Aggregates: views, Total: len(aggs), Stats: s.inc.Stats()})
}

func (s *Service) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		market.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	market.WriteJSON(w, http.StatusOK, s.Status())
}

func (s *Service) handleScheduleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		market.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	summary, err := s.RunOnce()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrLedger) {
			status = http.StatusServiceUnavailable
		}
		market.WriteJSONError(w, status, err.Error())
		return
	}
	market.WriteJSON(w, http.StatusOK, summary)
}
