package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"bpms/internal/client"
	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/task"
)

// opClass groups operations whose latencies are pooled.
type opClass int

const (
	opStart    opClass = iota // POST /instances
	opTask                    // claim, start, complete
	opWorklist                // offered-page GET
	nClasses
)

var classNames = [nClasses]string{"start", "task_op", "worklist"}

const pageLimit = 20

// backend is what a worker drives: the HTTP API of a live server, or the
// same operations called directly on an in-process system (the traced
// replay's second pass, which isolates the api layer).
type backend interface {
	start(ctx context.Context, process string, vars map[string]any) (*client.Instance, error)
	page(ctx context.Context, user string) ([]client.Task, error)
	claim(ctx context.Context, id, user string) (*client.Task, error)
	begin(ctx context.Context, id, user string) (*client.Task, error)
	complete(ctx context.Context, id, user string, outcome map[string]any) (*client.Task, error)
}

// httpBackend is one connection to a server through internal/client with
// retries off: a retried request would hide a failure and time two sends.
type httpBackend struct{ c *client.Client }

func newHTTPBackend(base string) httpBackend {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return httpBackend{client.New(base, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))}
}

// handlerTransport serves requests by calling an http.Handler on the
// caller's goroutine: the API layer with no sockets and no server loop.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newHandlerBackend is the client talking straight to a handler.
func newHandlerBackend(h http.Handler) httpBackend {
	return httpBackend{client.New("http://in-process", client.WithHTTPClient(&http.Client{Transport: handlerTransport{h}}))}
}

func (h httpBackend) start(ctx context.Context, process string, vars map[string]any) (*client.Instance, error) {
	return h.c.StartInstance(ctx, process, vars)
}

func (h httpBackend) page(ctx context.Context, user string) ([]client.Task, error) {
	p, err := h.c.Tasks(ctx, client.TaskQuery{User: user, State: "offered", Limit: pageLimit})
	if err != nil {
		return nil, err
	}
	return p.Items, nil
}

func (h httpBackend) claim(ctx context.Context, id, user string) (*client.Task, error) {
	return h.c.Claim(ctx, id, user)
}

func (h httpBackend) begin(ctx context.Context, id, user string) (*client.Task, error) {
	return h.c.StartTask(ctx, id, user)
}

func (h httpBackend) complete(ctx context.Context, id, user string, outcome map[string]any) (*client.Task, error) {
	return h.c.CompleteTask(ctx, id, user, outcome)
}

// directBackend calls the layers' public functions with no HTTP or JSON
// in between.
type directBackend struct{ sys *core.BPMS }

func (d directBackend) start(_ context.Context, process string, vars map[string]any) (*client.Instance, error) {
	v, err := d.sys.Engine.StartInstance(process, vars)
	if err != nil {
		return nil, err
	}
	return viewToInstance(v), nil
}

func viewToInstance(v *engine.InstanceView) *client.Instance {
	out := &client.Instance{ID: v.ID, ProcessID: v.ProcessID, Status: v.Status.String(), Vars: map[string]any{}}
	for k, val := range v.Vars {
		out.Vars[k] = val.ToGo()
	}
	for _, t := range v.ActiveTokens {
		out.Tokens = append(out.Tokens, client.Token{Element: t.Element, Wait: t.Wait.String(), WorkItemID: t.WorkItemID})
	}
	return out
}

func itemToTask(it *task.Item) client.Task {
	return client.Task{ID: it.ID, InstanceID: it.InstanceID, ElementID: it.ElementID,
		State: it.State.String(), Role: it.Role, Assignee: it.Assignee}
}

func (d directBackend) page(_ context.Context, user string) ([]client.Task, error) {
	items := d.sys.Tasks.OfferedPage(user, 0, pageLimit)
	out := make([]client.Task, len(items))
	for i, it := range items {
		out[i] = itemToTask(it)
	}
	return out, nil
}

func taskResult(it *task.Item, err error) (*client.Task, error) {
	if err != nil {
		return nil, err
	}
	t := itemToTask(it)
	return &t, nil
}

func (d directBackend) claim(_ context.Context, id, user string) (*client.Task, error) {
	return taskResult(d.sys.Tasks.Claim(id, user))
}

func (d directBackend) begin(_ context.Context, id, user string) (*client.Task, error) {
	return taskResult(d.sys.Tasks.Start(id, user))
}

func (d directBackend) complete(_ context.Context, id, user string, outcome map[string]any) (*client.Task, error) {
	return taskResult(d.sys.Tasks.Complete(id, user, outcome))
}

// ackedCase is an instance the server acknowledged, with what the oracle
// expects of it after a crash.
type ackedCase struct {
	ID     string
	Claims bool // a claims case left open at "register"; else a completed script case
}

// recorder collects one run's latencies, counts and oracle failures. All
// workers of a run share it.
type recorder struct {
	mu        sync.Mutex
	lat       [nClasses][]float64 // milliseconds, in completion order
	turnMS    []float64           // whole worker turns, from due to the last reply
	attempted int
	failed    int
	notes     []string    // first few failures, for the report
	cases     int         // instances acknowledged
	acked     []ackedCase // kept only when keepAcked
	keepAcked bool
	claimed   map[string]bool // work items some worker has taken
}

func newRecorder() *recorder { return &recorder{claimed: map[string]bool{}} }

func (r *recorder) failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// absorb adds the operations and failures of an untimed side loop to the
// run's count.
func (r *recorder) absorb(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

func (r *recorder) ack(id string, claims bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cases++
	if r.keepAcked {
		r.acked = append(r.acked, ackedCase{id, claims})
	}
}

// take returns the first listed item no worker has taken yet and marks it.
// Two workers can hold the same page; the shared set makes a claim
// conflict a benchmark bug, never load.
func (r *recorder) take(items []client.Task) *client.Task {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range items {
		if !r.claimed[items[i].ID] {
			r.claimed[items[i].ID] = true
			return &items[i]
		}
	}
	return nil
}

// worker issues operations against one backend and checks every reply
// against what the generator knows the answer must be.
type worker struct {
	be  backend
	rec *recorder
	// span, when set, opens a trace span around each call and returns the
	// function that closes it.
	span func(c opClass) func()
}

// call runs one operation, timed from `from` (the send time, or the due
// time of an open-loop turn). A transport error or non-2xx reply counts as
// failed; the caller adds oracle mismatches.
func (w *worker) call(c opClass, from time.Time, fn func() error) bool {
	var end func()
	if w.span != nil {
		end = w.span(c)
	}
	err := fn()
	if end != nil {
		end()
	}
	ms := float64(time.Since(from)) / float64(time.Millisecond)
	w.rec.mu.Lock()
	w.rec.attempted++
	w.rec.lat[c] = append(w.rec.lat[c], ms)
	w.rec.mu.Unlock()
	if err != nil {
		w.rec.failf("%s: %v", classNames[c], err)
		return false
	}
	return true
}

// startScript starts one pipeline case. It completes inside the call, so
// the reply carries the whole answer: completed, path == "fast" iff
// amount > 5000, checked and recorded true.
func (w *worker) startScript(ctx context.Context, v StartVars) {
	var inst *client.Instance
	ok := w.call(opStart, time.Now(), func() (err error) {
		inst, err = w.be.start(ctx, pipelineID, v.Map())
		return err
	})
	if !ok {
		return
	}
	w.rec.ack(inst.ID, false)
	wantPath := "slow"
	if v.Amount > 5000 {
		wantPath = "fast"
	}
	if inst.Status != "completed" || inst.Vars["path"] != wantPath ||
		inst.Vars["recorded"] != true || inst.Vars["checked"] != true {
		w.rec.failf("script case %s amount=%d: status=%s path=%v recorded=%v checked=%v",
			inst.ID, v.Amount, inst.Status, inst.Vars["path"], inst.Vars["recorded"], inst.Vars["checked"])
	}
}

// startClaim files one claims case: it must park at "register" with a
// work item offered to the clerks.
func (w *worker) startClaim(ctx context.Context, v StartVars) {
	var inst *client.Instance
	ok := w.call(opStart, time.Now(), func() (err error) {
		inst, err = w.be.start(ctx, claimsID, v.Map())
		return err
	})
	if !ok {
		return
	}
	w.rec.ack(inst.ID, true)
	if msg := checkOpenClaim(inst); msg != "" {
		w.rec.failf("claims case %s: %s", inst.ID, msg)
	}
}

func checkOpenClaim(inst *client.Instance) string {
	if inst.Status != "active" || len(inst.Tokens) != 1 ||
		inst.Tokens[0].Element != "register" || inst.Tokens[0].WorkItemID == "" {
		return fmt.Sprintf("want active with one work item at register, got status=%s tokens=%+v", inst.Status, inst.Tokens)
	}
	return ""
}

// turn is one worker turn: page of offers (timed from due), then claim,
// start and complete one listed item, then on every third turn a new case.
// A turn that gets its page is timed as a whole, from due to its last reply.
func (w *worker) turn(ctx context.Context, t Turn, due time.Time) {
	var items []client.Task
	ok := w.call(opWorklist, due, func() (err error) {
		items, err = w.be.page(ctx, t.User)
		return err
	})
	if !ok {
		return
	}
	defer func() {
		ms := float64(time.Since(due)) / float64(time.Millisecond)
		w.rec.mu.Lock()
		w.rec.turnMS = append(w.rec.turnMS, ms)
		w.rec.mu.Unlock()
	}()
	role := roleOf(t.User)
	if len(items) > pageLimit {
		w.rec.failf("page for %s has %d items, limit %d", t.User, len(items), pageLimit)
	}
	for _, it := range items {
		if it.State != "offered" || it.Role != role {
			w.rec.failf("page for %s (%s) lists %s state=%s role=%s", t.User, role, it.ID, it.State, it.Role)
			break
		}
	}
	if it := w.rec.take(items); it != nil {
		w.work(ctx, it.ID, t)
	}
	if t.Start != nil {
		w.startClaim(ctx, *t.Start)
	}
}

// work takes one offered item through claim -> start -> complete, checking
// the state each reply reports.
func (w *worker) work(ctx context.Context, id string, t Turn) {
	steps := []struct {
		want string
		do   func() (*client.Task, error)
	}{
		{"allocated", func() (*client.Task, error) { return w.be.claim(ctx, id, t.User) }},
		{"started", func() (*client.Task, error) { return w.be.begin(ctx, id, t.User) }},
		{"completed", func() (*client.Task, error) {
			return w.be.complete(ctx, id, t.User, map[string]any{"severity": t.Severity})
		}},
	}
	for _, s := range steps {
		var got *client.Task
		ok := w.call(opTask, time.Now(), func() (err error) {
			got, err = s.do()
			return err
		})
		if !ok {
			return
		}
		if got.State != s.want || got.Assignee != t.User {
			w.rec.failf("work item %s: want %s by %s, got %s by %s", id, s.want, t.User, got.State, got.Assignee)
			return
		}
	}
}
