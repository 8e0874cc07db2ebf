package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"emerald/internal/guard"
	"emerald/internal/telemetry"
)

// Server is the HTTP surface over a Runner and its Store:
//
//	POST   /jobs            submit a Spec; 202 with the job snapshot
//	                        (200 when served from cache at submit; 503
//	                        with Retry-After when full or draining)
//	GET    /jobs/{id}       one job snapshot (running jobs carry a live
//	                        "progress" object)
//	GET    /jobs/{id}/diag  on-demand diagnostic bundle captured from a
//	                        running job's live simulation
//	DELETE /jobs/{id}       cancel a still-queued job
//	GET    /jobs            every job snapshot
//	GET    /results/{key}   the stored result, byte-for-byte
//	GET    /metrics         queue/cache/latency metrics — JSON by
//	                        default, prometheus text exposition when
//	                        Accept asks for text/plain or openmetrics
//	GET    /healthz         liveness probe (alias: /healthz/live)
//	GET    /healthz/ready   readiness: 503 while draining or queue-full
//	GET    /debug/pprof/    Go profiler endpoints (only when Pprof set)
type Server struct {
	runner *Runner
	store  *Store

	// Pprof mounts net/http/pprof under /debug/pprof/ (the emeraldd
	// -pprof flag). Off by default: profiler endpoints expose internals
	// and can run CPU profiles, so operators opt in. Set before Handler.
	Pprof bool

	// Fleet, when non-nil, folds the distributed sweep plane into this
	// node's surface: its routes mount under /fleet/, readiness gates on
	// fleet warmup (the first peer-probe round), and the Prometheus
	// scrape gains the per-peer gauges. Set before Handler.
	Fleet FleetPlane
}

// FleetPlane is what the server needs from internal/fleet (an
// interface here so sweep does not import its own consumer).
type FleetPlane interface {
	// Register mounts the fleet endpoints (steal, replication, keys,
	// info) on the node's mux.
	Register(mux *http.ServeMux)
	// Ready reports whether the fleet plane can place work (the first
	// health-probe round has completed); reason explains a false.
	Ready() (ok bool, reason string)
	// WriteProm appends the fleet's per-peer gauges and repair counters
	// to a Prometheus scrape.
	WriteProm(w io.Writer) error
}

// NewServer wires the HTTP surface.
func NewServer(runner *Runner, store *Store) *Server {
	return &Server{runner: runner, store: store}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/diag", s.handleDiag)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /results/{key}", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Liveness answers "is the process up" — always yes if we got here.
	// Readiness answers "should you send work" — no while draining
	// (graceful shutdown keeps serving status until workers finish) or
	// while the queue has no room.
	mux.HandleFunc("GET /healthz", s.handleLive)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	if s.Pprof {
		// The default pprof handlers register on DefaultServeMux; mount
		// them explicitly on ours.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if s.Fleet != nil {
		s.Fleet.Register(mux)
	}
	return mux
}

func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.runner.Draining():
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.runner.QueueFull():
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "queue full")
	default:
		if s.Fleet != nil {
			if ok, reason := s.Fleet.Ready(); !ok {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, reason)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort: headers are out
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	job, err := s.runner.Submit(spec)
	switch {
	case err == nil:
		if job.Cached {
			writeJSON(w, http.StatusOK, job)
		} else {
			writeJSON(w, http.StatusAccepted, job)
		}
	case err == errQueueFull:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err == errClosed:
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.runner.Cancel(r.PathValue("id"))
	switch err {
	case nil:
		writeJSON(w, http.StatusOK, job)
	case errNoSuchJob:
		http.Error(w, err.Error(), http.StatusNotFound)
	case errNotCancelable:
		// The job already started or finished; report its state so the
		// client can tell which.
		writeJSON(w, http.StatusConflict, job)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.runner.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !ValidKey(key) {
		http.Error(w, "malformed result key", http.StatusBadRequest)
		return
	}
	data, ok, err := s.store.Get(key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "no such result", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // best effort
}

// diagTimeout bounds how long a /diag request waits for the simulation
// goroutine's next stride poll. A healthy run serves it in
// microseconds; the bound covers runs that finish (or wedge) while the
// request is in flight.
const diagTimeout = 5 * time.Second

// DiagBundle is the JSON served by GET /jobs/{id}/diag: the same
// structured snapshot a watchdog abort produces (per-CPU state, GPU
// front end and warp detail, NoC credits, DRAM occupancy, emtrace
// tail), captured on demand from a live healthy run.
type DiagBundle struct {
	JobID      string     `json:"job_id"`
	CapturedAt time.Time  `json:"captured_at"`
	Diag       guard.Diag `json:"diag"`
}

func (s *Server) handleDiag(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), diagTimeout)
	defer cancel()
	d, err := s.runner.Diag(ctx, id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, DiagBundle{
			JobID: id, CapturedAt: time.Now(), Diag: *d,
		})
	case errors.Is(err, errNoSuchJob):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, errNotRunning):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "diag capture timed out (simulation not reaching its poll stride)",
			http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// wantsProm reports whether the request's Accept header asks for the
// prometheus text exposition instead of the original JSON shape. The
// JSON default keeps the existing client byte-compatible; scrapers
// send "text/plain;version=0.0.4" or an openmetrics type.
func wantsProm(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		if err := s.runner.WritePrometheus(w); err != nil {
			return // headers are out; nothing recoverable
		}
		telemetry.SampleRuntime().WriteProm(telemetry.NewPromWriter(w))
		if s.Fleet != nil {
			s.Fleet.WriteProm(w) //nolint:errcheck // best effort: headers are out
		}
		return
	}
	writeJSON(w, http.StatusOK, s.runner.Metrics())
}
