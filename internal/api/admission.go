package api

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// AdmissionConfig bounds concurrent work per request class (reads =
// GET, writes = everything else). Zero limits leave that class
// ungated, so the zero value disables admission control entirely —
// embedded servers and tests are unaffected unless they opt in.
//
// Shedding contract: a request that would overflow the wait queue is
// refused immediately with 429; one that queues but does not get an
// execution slot within QueueTimeout gets 503. Both carry the
// machine-readable code "overloaded" and a Retry-After header, and
// both are shed BEFORE the handler runs — a shed write never had side
// effects, so clients retry them safely regardless of idempotency.
type AdmissionConfig struct {
	// MaxInFlightRead bounds concurrently executing GET requests
	// (0 = unlimited).
	MaxInFlightRead int
	// MaxInFlightWrite bounds concurrently executing non-GET requests
	// (0 = unlimited).
	MaxInFlightWrite int
	// QueueDepth bounds how many requests per class may wait for an
	// execution slot before new arrivals are shed with 429 (default 64
	// when a class limit is set).
	QueueDepth int
	// QueueTimeout is the longest a queued request waits for a slot
	// before being shed with 503 (default 1s).
	QueueTimeout time.Duration
	// RetryAfter is the hint returned with shed responses (default 1s,
	// rounded up to whole seconds).
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// gate is one request class's admission state: a slot semaphore plus a
// waiter count implementing the bounded accept queue.
type gate struct {
	slots   chan struct{}
	waiters atomic.Int64
	depth   int64
}

func newGate(maxInFlight, depth int) *gate {
	if maxInFlight <= 0 {
		return nil
	}
	return &gate{slots: make(chan struct{}, maxInFlight), depth: int64(depth)}
}

// admission is the per-server controller. shed counts refused
// requests (exposed in /api/v1/stats).
type admission struct {
	cfg   AdmissionConfig
	read  *gate
	write *gate
	shed  atomic.Uint64
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	return &admission{
		cfg:   cfg,
		read:  newGate(cfg.MaxInFlightRead, cfg.QueueDepth),
		write: newGate(cfg.MaxInFlightWrite, cfg.QueueDepth),
	}
}

// Shed reports how many requests have been refused by admission
// control since start.
func (a *admission) Shed() uint64 { return a.shed.Load() }

// wrap gates one route handler. The gate is selected by method class;
// an ungated class passes straight through.
func (a *admission) wrap(method string, h http.HandlerFunc) http.HandlerFunc {
	g := a.write
	if method == http.MethodGet {
		g = a.read
	}
	if g == nil {
		return h
	}
	retryAfter := strconv.Itoa(int((a.cfg.RetryAfter + time.Second - 1) / time.Second))
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case g.slots <- struct{}{}:
			// Fast path: a slot is free.
		default:
			// Queue (bounded), then wait for a slot or time out.
			if g.waiters.Add(1) > g.depth {
				g.waiters.Add(-1)
				a.shed.Add(1)
				w.Header().Set("Retry-After", retryAfter)
				writeErrCode(w, http.StatusTooManyRequests, codeOverloaded,
					"api: accept queue full, request shed before execution")
				return
			}
			t := time.NewTimer(a.cfg.QueueTimeout)
			select {
			case g.slots <- struct{}{}:
				t.Stop()
				g.waiters.Add(-1)
			case <-t.C:
				g.waiters.Add(-1)
				a.shed.Add(1)
				w.Header().Set("Retry-After", retryAfter)
				writeErrCode(w, http.StatusServiceUnavailable, codeOverloaded,
					"api: no capacity within queue timeout, request shed before execution")
				return
			case <-r.Context().Done():
				t.Stop()
				g.waiters.Add(-1)
				return // client gave up while queued; nothing ran
			}
		}
		defer func() { <-g.slots }()
		h(w, r)
	}
}

// healthz is the liveness probe: the process is up and serving HTTP.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyz is the readiness probe: every shard has finished boot replay
// (implied by the server existing — core.Open returns only after
// recovery) and none has fail-stopped. A degraded system answers 503
// so load balancers drain it while reads continue to be served to
// clients that still hold the address.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	ready, degraded := s.bpms.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	if degraded == nil {
		degraded = []int{}
	}
	writeJSON(w, status, map[string]any{"ready": ready, "degradedShards": degraded})
}
