// Package api exposes the BPMS over HTTP (stdlib net/http), the
// analogue of the WfMC client/admin interfaces: deploy and inspect
// definitions, start and manage instances, drive worklists, publish
// messages, and export history as XES.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/task"
	"bpms/internal/verify"
)

// Server wraps a BPMS with HTTP handlers.
type Server struct {
	bpms  *core.BPMS
	mux   *http.ServeMux
	start time.Time
	adm   *admission // nil = admission control disabled

	readTimeout  time.Duration
	writeTimeout time.Duration

	mu   sync.Mutex
	http *http.Server
}

// Option customises a Server at construction.
type Option func(*Server)

// WithAdmission enables admission control with the given limits.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) {
		if cfg.MaxInFlightRead > 0 || cfg.MaxInFlightWrite > 0 {
			s.adm = newAdmission(cfg)
		}
	}
}

// WithHTTPTimeouts overrides the server's read (full request,
// header included) and write timeouts. Zero keeps the default.
func WithHTTPTimeouts(read, write time.Duration) Option {
	return func(s *Server) {
		if read > 0 {
			s.readTimeout = read
		}
		if write > 0 {
			s.writeTimeout = write
		}
	}
}

// New builds the HTTP server for a BPMS.
func New(b *core.BPMS, opts ...Option) *Server {
	s := &Server{bpms: b, mux: http.NewServeMux(), start: time.Now()}
	for _, o := range opts {
		o(s)
	}
	s.routes()
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// route is one row of the route table: a method, a path pattern
// relative to the version prefix, and its handler.
type route struct {
	method, pattern string
	handler         http.HandlerFunc
}

// table is the single route table of the API surface, registered
// under the versioned prefix /api/v1.
func (s *Server) table() []route {
	return []route{
		{"GET", "/definitions", s.listDefinitions},
		{"POST", "/definitions", s.deploy},
		{"GET", "/definitions/{id}", s.getDefinition},
		{"GET", "/definitions/{id}/verify", s.verifyDefinition},

		{"GET", "/instances", s.listInstances},
		{"POST", "/instances", s.startInstance},
		{"GET", "/instances/{id}", s.getInstance},
		{"DELETE", "/instances/{id}", s.cancelInstance},
		{"PUT", "/instances/{id}/variables/{name}", s.setVariable},
		{"GET", "/instances/{id}/history", s.instanceHistory},

		{"POST", "/messages", s.publishMessage},

		{"GET", "/tasks", s.listTasks},
		{"POST", "/tasks/{id}/claim", s.taskAction(actClaim)},
		{"POST", "/tasks/{id}/start", s.taskAction(actStart)},
		{"POST", "/tasks/{id}/complete", s.taskAction(actComplete)},
		{"POST", "/tasks/{id}/fail", s.taskAction(actFail)},
		{"POST", "/tasks/{id}/delegate", s.taskAction(actDelegate)},
		{"POST", "/tasks/{id}/release", s.taskAction(actRelease)},

		{"GET", "/history/xes", s.exportXES},
		{"GET", "/stats", s.stats},
		{"GET", "/violations", s.violations},

		{"POST", "/admin/users", s.addUser},
		{"POST", "/admin/snapshot", s.adminSnapshot},
	}
}

func (s *Server) routes() {
	for _, rt := range s.table() {
		h := rt.handler
		if s.adm != nil {
			// Admission sits inside instrumentation so shed responses
			// show up in the per-route counters.
			h = s.adm.wrap(rt.method, h)
		}
		pattern := rt.method + " /api/v1" + rt.pattern
		s.mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	// The scrape and probe endpoints live outside the API version
	// prefix, at their conventional paths, and are never gated by
	// admission control: an overloaded or degraded system must still
	// answer its monitors. On an uninstrumented system /metrics is 404.
	s.mux.Handle("GET /metrics", s.bpms.Metrics.Handler())
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
}

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route handler with per-route request counters
// and a latency histogram. The handles are resolved once here, at
// registration; with metrics disabled the handler is returned
// untouched, so the uninstrumented request path is unchanged.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.bpms.Metrics.HTTPRoute(route)
	if rm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		rm.Done(sw.code, time.Since(t0))
	}
}

// jsonBufs pools the encode buffers behind writeJSON. Buffers that
// grew past 1MiB (a huge instance list, say) are dropped instead of
// pinned in the pool forever.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const jsonBufMax = 1 << 20

// writeJSON encodes into a pooled buffer before touching the response:
// an encoder error surfaces as a 500 instead of a 200 with a truncated
// body (the header can't be rewritten once written), and the known
// length gives the response a Content-Length header instead of chunked
// encoding.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= jsonBufMax {
			buf.Reset()
			jsonBufs.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		msg := "api: encode response: " + err.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":{\"code\":%q,\"message\":%q}}\n", codeInternal, msg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// Machine-readable error codes of the v1 error envelope. Every error
// response carries exactly one of these.
const (
	codeBadRequest        = "bad_request"
	codeUnknownDefinition = "unknown_definition"
	codeUnknownInstance   = "unknown_instance"
	codeUnknownTask       = "unknown_task"
	codeInvalidTransition = "invalid_transition"
	codeNotActive         = "instance_not_active"
	codeNotAuthorized     = "not_authorized"
	codeInvalidDefinition = "invalid_definition"
	codeTooLarge          = "request_too_large"
	codeShardDegraded     = "shard_degraded"
	codeOverloaded        = "overloaded"
	codeInternal          = "internal"
)

// errDetail is the machine-readable half of the error envelope.
type errDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is the error response body: the v1 envelope under "error"
// ({"code","message"}).
type apiError struct {
	Error errDetail `json:"error"`
}

// writeErrCode writes one error response in the envelope shape.
func writeErrCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiError{Error: errDetail{Code: code, Message: msg}})
}

// writeErr maps engine/task/model errors to HTTP statuses and machine
// codes — the single mapping every route goes through.
func writeErr(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, codeInternal
	var ve *model.ValidationError
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, engine.ErrUnknownProcess):
		status, code = http.StatusNotFound, codeUnknownDefinition
	case errors.Is(err, engine.ErrUnknownInstance):
		status, code = http.StatusNotFound, codeUnknownInstance
	case errors.Is(err, task.ErrNotFound):
		status, code = http.StatusNotFound, codeUnknownTask
	case errors.Is(err, task.ErrBadTransition):
		status, code = http.StatusConflict, codeInvalidTransition
	case errors.Is(err, engine.ErrNotActive):
		status, code = http.StatusConflict, codeNotActive
	case errors.Is(err, task.ErrNotAuthorized):
		status, code = http.StatusForbidden, codeNotAuthorized
	case errors.As(err, &ve):
		status, code = http.StatusBadRequest, codeInvalidDefinition
	case errors.As(err, &mbe):
		status, code = http.StatusRequestEntityTooLarge, codeTooLarge
	case errors.Is(err, engine.ErrDegraded):
		// The owning shard has fail-stopped into read-only mode. The
		// write was refused before any state change; clients may retry
		// (another replica, or this one after repair and restart).
		status, code = http.StatusServiceUnavailable, codeShardDegraded
		w.Header().Set("Retry-After", "5")
	}
	writeErrCode(w, status, code, err.Error())
}

func (s *Server) listDefinitions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.bpms.Engine.Definitions())
}

func (s *Server) deploy(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeErr(w, err)
		return
	}
	var p *model.Process
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.Contains(ct, "xml"):
		p, err = model.DecodeXML(data)
	default:
		p, err = model.DecodeJSON(data)
	}
	if err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if err := s.bpms.Deploy(p); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": p.ID, "version": p.Version})
}

func (s *Server) getDefinition(w http.ResponseWriter, r *http.Request) {
	p, ok := s.bpms.Engine.Definition(r.PathValue("id"))
	if !ok {
		writeErrCode(w, http.StatusNotFound, codeUnknownDefinition, "unknown definition")
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) verifyDefinition(w http.ResponseWriter, r *http.Request) {
	p, ok := s.bpms.Engine.Definition(r.PathValue("id"))
	if !ok {
		writeErrCode(w, http.StatusNotFound, codeUnknownDefinition, "unknown definition")
		return
	}
	res, err := verify.Check(p, verify.DefaultOptions())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sound":        res.Sound,
		"bounded":      res.Bounded,
		"method":       res.Method,
		"stateCount":   res.StateCount,
		"violations":   res.Violations,
		"deadElements": res.DeadElements,
		"warnings":     res.Warnings,
	})
}

type startRequest struct {
	ProcessID string         `json:"processId"`
	Vars      map[string]any `json:"vars,omitempty"`
}

type instanceResponse struct {
	ID        string         `json:"id"`
	ProcessID string         `json:"processId"`
	Status    string         `json:"status"`
	Vars      map[string]any `json:"vars,omitempty"`
	Tokens    []tokenJSON    `json:"tokens,omitempty"`
}

type tokenJSON struct {
	Element    string `json:"element"`
	Wait       string `json:"wait,omitempty"`
	WorkItemID string `json:"workItemId,omitempty"`
}

func toInstanceResponse(v *engine.InstanceView) instanceResponse {
	out := instanceResponse{
		ID:        v.ID,
		ProcessID: v.ProcessID,
		Status:    v.Status.String(),
		Vars:      map[string]any{},
	}
	for k, val := range v.Vars {
		out.Vars[k] = val.ToGo()
	}
	for _, t := range v.ActiveTokens {
		out.Tokens = append(out.Tokens, tokenJSON{
			Element: t.Element, Wait: t.Wait.String(), WorkItemID: t.WorkItemID,
		})
	}
	return out
}

func (s *Server) startInstance(w http.ResponseWriter, r *http.Request) {
	var req startRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	v, err := s.bpms.Engine.StartInstance(req.ProcessID, req.Vars)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, toInstanceResponse(v))
}

// instanceRow is one row of the paginated instance listing: identity
// and status only — fetch /instances/{id} for variables and tokens.
type instanceRow struct {
	ID        string `json:"id"`
	ProcessID string `json:"processId"`
	Status    string `json:"status"`
}

// listInstances serves GET /instances with limit/offset pagination and
// an optional ?state= filter (active|completed|cancelled|faulted).
// The response carries the post-filter total, so clients can sample or
// walk the full set without ever receiving a 100k-element dump.
func (s *Server) listInstances(w http.ResponseWriter, r *http.Request) {
	offset, limit, err := pageParams(r)
	if err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	var filter *engine.Status
	if name := r.URL.Query().Get("state"); name != "" {
		st, err := engine.ParseStatus(name)
		if err != nil {
			writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
			return
		}
		filter = &st
	}
	sums := s.bpms.Engine.Summaries()
	if filter != nil {
		kept := sums[:0]
		for _, sm := range sums {
			if sm.Status == *filter {
				kept = append(kept, sm)
			}
		}
		sums = kept
	}
	total := len(sums)
	sums = sums[min(offset, total):]
	if limit >= 0 && limit < len(sums) {
		sums = sums[:limit]
	}
	items := make([]instanceRow, 0, len(sums))
	for _, sm := range sums {
		items = append(items, instanceRow{ID: sm.ID, ProcessID: sm.ProcessID, Status: sm.Status.String()})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"items":  items,
		"total":  total,
		"count":  len(items),
		"offset": offset,
		"limit":  limit,
	})
}

func (s *Server) getInstance(w http.ResponseWriter, r *http.Request) {
	v, err := s.bpms.Engine.Instance(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toInstanceResponse(v))
}

func (s *Server) cancelInstance(w http.ResponseWriter, r *http.Request) {
	if err := s.bpms.Engine.CancelInstance(r.PathValue("id"), "cancelled via API"); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) setVariable(w http.ResponseWriter, r *http.Request) {
	var value any
	if err := json.NewDecoder(r.Body).Decode(&value); err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if err := s.bpms.Engine.SetVariable(r.PathValue("id"), r.PathValue("name"), value); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) instanceHistory(w http.ResponseWriter, r *http.Request) {
	evs := s.bpms.History.EventsOf(r.PathValue("id"))
	writeJSON(w, http.StatusOK, evs)
}

type messageRequest struct {
	Name string         `json:"name"`
	Key  string         `json:"key,omitempty"`
	Vars map[string]any `json:"vars,omitempty"`
}

func (s *Server) publishMessage(w http.ResponseWriter, r *http.Request) {
	var req messageRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	delivered, buffered, err := s.bpms.Engine.Publish(req.Name, req.Key, req.Vars)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"delivered": delivered, "buffered": buffered})
}

// pageParams parses limit/offset query parameters (limit defaults to
// -1 = everything, offset to 0).
func pageParams(r *http.Request) (offset, limit int, err error) {
	offset, limit = 0, -1
	if v := r.URL.Query().Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("api: bad offset %q", v)
		}
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("api: bad limit %q", v)
		}
	}
	return offset, limit, nil
}

// listTasks serves GET /api/v1/tasks with user/state filters and
// limit/offset pagination. Filtering and paging both happen inside the
// worklist's ordered indexes, which stop at offset+limit entries:
//
//   - ?user=u            → {"worklist": [...], "offered": [...]} (each
//     list paginated independently — the pre-pagination shape)
//   - ?state=s           → {"items": [...], ...} from the state index
//   - ?user=u&state=s    → {"items": [...], ...} from the user's
//     offered or worklist index, or the state index filtered by
//     assignee (task.Service.UserStatePage)
func (s *Server) listTasks(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	stateName := r.URL.Query().Get("state")
	offset, limit, err := pageParams(r)
	if err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if user == "" && stateName == "" {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, "missing user or state parameter")
		return
	}
	if stateName == "" {
		writeJSON(w, http.StatusOK, map[string][]*task.Item{
			"worklist": s.bpms.Tasks.WorklistPage(user, offset, limit),
			"offered":  s.bpms.Tasks.OfferedPage(user, offset, limit),
		})
		return
	}
	state, err := task.ParseState(stateName)
	if err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	var items []*task.Item
	if user == "" {
		items = s.bpms.Tasks.ByStatePage(state, offset, limit)
	} else {
		items = s.bpms.Tasks.UserStatePage(user, state, offset, limit)
	}
	if items == nil {
		items = []*task.Item{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"items":  items,
		"count":  len(items),
		"offset": offset,
		"limit":  limit,
	})
}

type taskRequest struct {
	User    string         `json:"user"`
	To      string         `json:"to,omitempty"`     // delegate target
	Reason  string         `json:"reason,omitempty"` // fail reason
	Outcome map[string]any `json:"outcome,omitempty"`
}

type taskAct int

const (
	actClaim taskAct = iota
	actStart
	actComplete
	actFail
	actDelegate
	actRelease
)

func (s *Server) taskAction(act taskAct) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req taskRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
			return
		}
		id := r.PathValue("id")
		// Refuse mutations whose completion callback would hit a
		// fail-stopped shard BEFORE touching the worklist, so the item
		// is not left claimed/started with its instance frozen.
		if cur, err := s.bpms.Tasks.Get(id); err == nil && cur.InstanceID != "" &&
			s.bpms.Engine.OwnerDegraded(cur.InstanceID) {
			w.Header().Set("Retry-After", "5")
			writeErrCode(w, http.StatusServiceUnavailable, codeShardDegraded,
				"api: owning shard is degraded (read-only); task mutation refused")
			return
		}
		var it *task.Item
		var err error
		switch act {
		case actClaim:
			it, err = s.bpms.Tasks.Claim(id, req.User)
		case actStart:
			it, err = s.bpms.Tasks.Start(id, req.User)
		case actComplete:
			it, err = s.bpms.Tasks.Complete(id, req.User, req.Outcome)
		case actFail:
			it, err = s.bpms.Tasks.Fail(id, req.User, req.Reason)
		case actDelegate:
			it, err = s.bpms.Tasks.Delegate(id, req.User, req.To)
		case actRelease:
			it, err = s.bpms.Tasks.Release(id, req.User)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, it)
	}
}

func (s *Server) exportXES(w http.ResponseWriter, _ *http.Request) {
	// Stream the document: traces are built from the store one
	// instance at a time and encoded directly onto the response, so a
	// large audit trail never materialises in server memory (neither
	// as a Log nor as an XML blob).
	w.Header().Set("Content-Type", "application/xml")
	_ = history.StreamXES(w, s.bpms.History, false)
}

func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	// Summaries() walks the shards' summary indexes — one row per
	// instance, no per-instance view materialisation.
	counts := map[string]int{}
	for _, sm := range s.bpms.Engine.Summaries() {
		counts[sm.Status.String()]++
	}
	hist := s.bpms.History.Stats()
	body := map[string]any{
		"definitions":   len(s.bpms.Engine.Definitions()),
		"instances":     counts,
		"events":        hist.Events,
		"shards":        s.bpms.ShardStats(),
		"history":       hist,
		"worklist":      s.bpms.Tasks.Stats(),
		"startedAt":     s.start.UTC().Format(time.RFC3339),
		"uptimeSeconds": time.Since(s.start).Seconds(),
	}
	ready, degraded := s.bpms.Ready()
	body["ready"] = ready
	if len(degraded) > 0 {
		body["degradedShards"] = degraded
	}
	if s.adm != nil {
		body["shedRequests"] = s.adm.Shed()
	}
	// Chaos runs mount a fault.Injector under the storage layer; its
	// counters make the injected-fault report scrapeable before a kill.
	if rep, ok := s.bpms.FaultReport(); ok {
		body["faults"] = rep
	}
	writeJSON(w, http.StatusOK, body)
}

// violations serves GET /violations: the open SLA violations — work
// items past their due time and unsound deployed definitions.
func (s *Server) violations(w http.ResponseWriter, _ *http.Request) {
	items := s.bpms.Violations()
	writeJSON(w, http.StatusOK, map[string]any{"items": items, "count": len(items)})
}

type userRequest struct {
	ID    string   `json:"id"`
	Roles []string `json:"roles,omitempty"`
}

// addUser registers a user in the organisational directory — how a
// client stands up a workforce without restarting bpmsd with -user
// flags.
func (s *Server) addUser(w http.ResponseWriter, r *http.Request) {
	var req userRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if req.ID == "" {
		writeErrCode(w, http.StatusBadRequest, codeBadRequest, "missing user id")
		return
	}
	s.bpms.AddUser(req.ID, req.Roles...)
	writeJSON(w, http.StatusCreated, map[string]any{"id": req.ID, "roles": req.Roles})
}

// adminSnapshot triggers a state snapshot on every shard (compacting
// each shard's journal prefix) — the endpoint behind `bpmsctl
// snapshot`. In-memory systems have no snapshot stores and fail.
func (s *Server) adminSnapshot(w http.ResponseWriter, _ *http.Request) {
	if err := s.bpms.Engine.Snapshot(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": s.bpms.Engine.Shards()})
}

// Default HTTP server timeouts. Read covers the whole request (slow
// or stalled uploads can't pin a connection forever); write is long
// enough for a full XES export of a large audit trail.
const (
	defaultReadTimeout  = 30 * time.Second
	defaultWriteTimeout = 5 * time.Minute
)

// ListenAndServe runs the server on addr (convenience for cmd/bpmsd).
// It returns http.ErrServerClosed after a graceful Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.mu.Lock()
	if s.http != nil {
		s.mu.Unlock()
		return fmt.Errorf("api: server already running")
	}
	read, write := s.readTimeout, s.writeTimeout
	if read <= 0 {
		read = defaultReadTimeout
	}
	if write <= 0 {
		write = defaultWriteTimeout
	}
	srv := &http.Server{
		Addr:    addr,
		Handler: s.mux,
		// ReadHeaderTimeout alone defeats slowloris-style header
		// trickling; ReadTimeout bounds the body too.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       read,
		WriteTimeout:      write,
		IdleTimeout:       2 * time.Minute,
	}
	s.http = srv
	s.mu.Unlock()
	fmt.Printf("bpmsd listening on %s\n", addr)
	return srv.ListenAndServe()
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish (bounded by ctx). Safe to call from another
// goroutine than ListenAndServe; a no-op when the server never ran.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
