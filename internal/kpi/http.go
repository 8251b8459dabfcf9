package kpi

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/market"
)

// Handler serves the KPI API:
//
//	GET /kpi    full KPI report (?owner= selects one owner,
//	            ?owners=false drops the per-owner breakdown)
//
// Mount it beside the market server; the daemon's observability
// middleware wraps it like every other route.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/kpi", s.handleKPI)
	return mux
}

// handleKPI renders the report from the tracker's per-scope encoding
// cache: the bytes are copied out under the tracker lock and written
// after it is released.
func (s *Service) handleKPI(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		market.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	q := r.URL.Query()
	sel := Selection{Owner: q.Get("owner")}
	if raw := q.Get("owners"); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			market.WriteJSONError(w, http.StatusBadRequest, "owners must be a boolean")
			return
		}
		sel.NoOwners = !b
	}
	if sel.Owner != "" && sel.NoOwners {
		market.WriteJSONError(w, http.StatusBadRequest, "owner and owners=false are mutually exclusive")
		return
	}

	body, err := s.drain().AppendReportJSON(nil, sel)
	switch {
	case errors.Is(err, ErrUnknownOwner):
		market.WriteJSONError(w, http.StatusNotFound, err.Error())
	case err != nil:
		market.WriteJSONError(w, http.StatusInternalServerError, err.Error())
	default:
		market.WriteRawJSON(w, http.StatusOK, body)
	}
}
