package pgwire

import (
	"encoding/json"
	"net/http"
)

// AdminHandler serves the proxy's small admin surface:
//
//	GET /v1/proxy/status — the Status JSON (uptime, connections, capture totals)
//	GET /v1/metrics      — Prometheus exposition of the proxy's registry
//
// The handler is intended for a loopback/ops listener.
func (p *Proxy) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/proxy/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Status())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = p.reg.WritePrometheus(w, false)
	})
	return mux
}
