package obs

import (
	"net/http"
)

// contentType is the Prometheus text exposition content type.
const contentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the /metrics endpoint for a registry: every scrape is a
// fresh snapshot in the text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", contentType)
		r.writePrometheus(w)
	})
}
