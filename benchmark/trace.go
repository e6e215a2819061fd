package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bpms/internal/core"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// Span names. A request is client.call ⊃ api.handler ⊃ storage.write /
// storage.sync; the direct pass has shard.call in place of the first two.
const (
	spanClient  = "client.call"
	spanHandler = "api.handler"
	spanDirect  = "shard.call"
)

// beginClient opens the client-side span of one request.
func (t *tracer) beginClient(class string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Req: t.req, Name: spanClient, Class: class, Start: int64(time.Since(t.t0))})
	t.client = id
	return id
}

func (t *tracer) endClient(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.client = 0
}

// beginServe opens the server-side span of the request in flight (the
// handler, or the direct call) and makes it the owner of storage calls.
func (t *tracer) beginServe(name, class string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client == 0 {
		t.req++ // direct pass: the call is the request
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: t.client, Req: t.req, Name: name, Class: class,
		Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

// endServe closes a server-side span. The handler returns on the server's
// goroutine, possibly after the client has read the reply and sent the
// next request, so it gives up ownership only if it still has it.
func (t *tracer) endServe(id, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.spans[id-1].Bytes = bytes
	if t.cur == id {
		t.cur = 0
	}
}

// routeClass maps a request to its op class.
func routeClass(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/api/v1")
	switch {
	case r.Method == http.MethodPost && p == "/instances":
		return classNames[opStart]
	case r.Method == http.MethodGet && p == "/tasks":
		return classNames[opWorklist]
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/tasks/"):
		return classNames[opTask]
	}
	return "other"
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// middleware wraps api.New(b).Handler() with the api.handler span. While
// the tracer is paused (set-up, preload) requests pass through unrecorded.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.paused.Load() {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		id := t.beginServe(spanHandler, routeClass(r))
		next.ServeHTTP(cw, r)
		t.endServe(id, cw.n)
	})
}

// pass is one traced replay of the first part of a workload's stream.
type pass struct {
	spans   []Span
	fs      map[string]fsCount // storage work of the traced part, by path class
	syncNS  []int64            // state-WAL fsync durations of the traced part
	cases   int                // instances started in the traced part
	events  int                // history events of the traced part
	appends uint64             // state-journal records of the traced part
	rec     *recorder
}

// replayMode says how a replay reaches the system.
type replayMode int

const (
	overHTTP replayMode = iota // client -> httptest server -> api handler, spans on
	// direct alternates, operation by operation, between calling the engine
	// and worklist directly (shard.call) and calling the API handler with no
	// network in between (api.handler): the same work under the same
	// conditions, with and without the api layer.
	direct
	untraced // over HTTP with no spans: the base of trace.overhead_ratio
)

// replay drives the first size.Traced operations of the stream, one
// client, sequentially, against an in-process system. Set-up and preload
// run with the tracer paused.
func (b *bench) replay(workload string, stream *Stream, size Size, mode replayMode) (*pass, error) {
	tr := newTracer()
	tr.paused.Store(true)
	tfs := newTimingFS(tr)
	dataDir := ""
	if isDurable(workload) {
		dataDir = filepath.Join(b.workDir, fmt.Sprintf("trace-%s-%d", workload, mode))
		defer os.RemoveAll(dataDir)
	}
	l := &launcher{fs: tfs, wrap: tr.middleware}
	if mode == untraced {
		tfs.tr = nil
		l.wrap = nil
	}
	dm, _, err := l.startInProcess(dataDir, hasHumans(workload))
	if err != nil {
		return nil, err
	}
	defer dm.Kill()
	d := dm.(*inProcess)
	sys := d.sys
	for _, id := range definitionsOf(workload) {
		p, err := model.DecodeJSON(b.defs[id])
		if err != nil {
			return nil, err
		}
		if err := sys.Engine.Deploy(p); err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	w := &worker{rec: rec, be: newHTTPBackend(d.Base())}
	workers := []*worker{w} // operation i goes to workers[i%len(workers)]
	switch mode {
	case direct:
		w.be = directBackend{sys}
		w.span = func(c opClass) func() {
			id := tr.beginServe(spanDirect, classNames[c])
			return func() { tr.endServe(id, 0) }
		}
		// The middleware around d.handler records this worker's spans.
		workers = append(workers, &worker{rec: rec, be: newHandlerBackend(d.handler)})
	case overHTTP:
		w.span = func(c opClass) func() {
			id := tr.beginClient(classNames[c])
			return func() { tr.endClient(id) }
		}
	}
	if workload == humanBacklog {
		pre := &worker{be: w.be, rec: newRecorder()}
		for _, v := range stream.Claims {
			pre.startClaim(b.ctx, v)
		}
		if pre.rec.failed > 0 {
			return nil, fmt.Errorf("traced preload: %s", strings.Join(pre.rec.notes, "; "))
		}
	}
	if err := sys.SyncJournals(); err != nil {
		return nil, err
	}

	fs0 := tfs.totals()
	syncs0 := len(tfs.stateSyncs(0))
	events0 := sys.History.Count()
	appends0, _ := sys.JournalIndexes()
	tr.paused.Store(false)
	switch workload {
	case scriptDurable, scriptMemory:
		for i, v := range stream.Script[:min(size.Traced, len(stream.Script))] {
			workers[i%len(workers)].startScript(b.ctx, v)
		}
	case crashRecovery:
		order := loadOrder(stream)
		for i, op := range order[:min(size.Traced, len(order))] {
			workers[i%len(workers)].load(b.ctx, stream, op)
		}
	case humanBacklog:
		// No waiting for due times: the traced replay measures where time
		// goes inside one request, not queueing.
		for i, t := range stream.Turns[:min(size.Traced, len(stream.Turns))] {
			workers[i%len(workers)].turn(b.ctx, t, time.Now())
		}
	}
	tr.paused.Store(true)
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	// Drain the asynchronous history pipeline and let a snapshot in flight
	// finish, so the counts are complete.
	tfs.quiesce()
	if err := sys.SyncJournals(); err != nil {
		return nil, err
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("traced replay failed its oracle: %s", strings.Join(rec.notes, "; "))
	}
	appends1, _ := sys.JournalIndexes()
	p := &pass{spans: tr.snapshot(), fs: map[string]fsCount{}, cases: rec.cases, rec: rec,
		events: sys.History.Count() - events0, appends: appends1 - appends0}
	for class, c1 := range tfs.totals() {
		c0 := fs0[class]
		p.fs[class] = fsCount{Writes: c1.Writes - c0.Writes, Bytes: c1.Bytes - c0.Bytes, Syncs: c1.Syncs - c0.Syncs,
			WriteNS: c1.WriteNS - c0.WriteNS, SyncNS: c1.SyncNS - c0.SyncNS, Renames: c1.Renames - c0.Renames}
	}
	p.syncNS = tfs.stateSyncs(syncs0)
	return p, nil
}

// byClass collects, per op class, the durations (µs) of the spans of one
// name, and their self times.
func byClass(spans []Span, selfNS map[int]int64, name string) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if s.Name == name {
			dur[s.Class] = append(dur[s.Class], float64(s.dur())/1e3)
			self[s.Class] = append(self[s.Class], float64(selfNS[s.ID])/1e3)
		}
	}
	return dur, self
}

// runTraced produces every per-layer metric of BENCHMARK.json for one
// workload: from the HTTP replay, the direct replay, the untraced run
// (client-side tails, the killed server's data dir) and the isolated probes
// of layers that have no seam.
func (b *bench) runTraced(res *e2eResult) ([]Metric, error) {
	workload := res.Workload
	size := res.size
	stream := generate(workload, b.seed, size)
	httpPass, err := b.replay(workload, stream, size, overHTTP)
	if err != nil {
		return nil, err
	}
	directPass, err := b.replay(workload, stream, size, direct)
	if err != nil {
		return nil, err
	}
	basePass, err := b.replay(workload, stream, size, untraced)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(b.outDir, "trace-"+workload+".json"), httpPass.spans); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(b.outDir, "trace-"+workload+"-direct.json"), directPass.spans); err != nil {
		return nil, err
	}

	var out []Metric
	add := func(name string, v float64, unit string, n int) { out = append(out, Metric{name, v, unit, n}) }

	// client and api: per op class, where a request's time goes.
	httpSelf := selfTimes(httpPass.spans)
	callDur, callSelf := byClass(httpPass.spans, httpSelf, spanClient)
	handlerDur, handlerSelf := byClass(httpPass.spans, httpSelf, spanHandler)
	directSelfNS := selfTimes(directPass.spans)
	directDur, directSelf := byClass(directPass.spans, directSelfNS, spanDirect)
	bareHandlerDur, _ := byClass(directPass.spans, directSelfNS, spanHandler)
	var handlerTotal, handlerFS float64
	for c := opClass(0); c < nClasses; c++ {
		name := classNames[c]
		clientP50 := median(callDur[name])
		transport := median(callSelf[name])
		apiSelf := median(bareHandlerDur[name]) - median(directDur[name])
		add("client.transport_self_us."+name, transport, "us", len(callSelf[name]))
		add("api."+name+"_self_us", apiSelf, "us", len(bareHandlerDur[name]))
		// What the per-class medians above do not explain of the client's
		// median: medians do not add up, and the direct pass is another run.
		unattributed := 0.0
		if clientP50 > 0 {
			unattributed = (clientP50 - transport - apiSelf - median(directDur[name])) / clientP50
		}
		add("trace.unattributed_share."+name, unattributed, "ratio", len(callDur[name]))
		handlerTotal += sum(handlerDur[name])
		handlerFS += sum(handlerDur[name]) - sum(handlerSelf[name])
	}
	respBytes := map[string][]float64{}
	for _, s := range httpPass.spans {
		if s.Name == spanHandler {
			respBytes[s.Class] = append(respBytes[s.Class], float64(s.Bytes))
		}
	}
	add("api.start_resp_bytes", median(respBytes[classNames[opStart]]), "B", 0)
	add("api.worklist_resp_bytes", median(respBytes[classNames[opWorklist]]), "B", 0)
	for _, m := range res.Extra {
		add(m.Name, m.Value, m.Unit, m.N)
	}

	// engine: the direct StartInstance call minus the storage time inside it.
	add("engine.start_self_us", median(directSelf[classNames[opStart]]), "us", len(directSelf[classNames[opStart]]))
	cases := float64(max(httpPass.cases, 1))
	add("engine.transitions_per_case", float64(httpPass.appends)/cases, "count", 0)

	// storage: work counted at the FS seam during the HTTP replay.
	state, hist, snap := httpPass.fs[pathState], httpPass.fs[pathHistory], httpPass.fs[pathSnapshot]
	syncUS := make([]float64, len(httpPass.syncNS))
	for i, ns := range httpPass.syncNS {
		syncUS[i] = float64(ns) / 1e3
	}
	add("storage.fsync_us", median(syncUS), "us", len(syncUS))
	add("storage.fsyncs_per_case", float64(state.Syncs)/cases, "count", 0)
	add("storage.state_bytes_per_case", float64(state.Bytes)/cases, "B", 0)
	add("storage.history_bytes_per_case", float64(hist.Bytes)/cases, "B", 0)
	add("storage.snapshot_bytes_per_case", float64(snap.Bytes)/cases, "B", 0)
	add("storage.snapshots", float64(snap.Renames), "count", 0)
	snapMS := 0.0
	if snap.Renames > 0 {
		snapMS = float64(snap.WriteNS+snap.SyncNS) / 1e6 / float64(snap.Renames)
	}
	add("storage.snapshot_write_ms", snapMS, "ms", snap.Renames)
	fsShare := 0.0
	if handlerTotal > 0 {
		fsShare = handlerFS / handlerTotal
	}
	add("storage.fs_share", fsShare, "ratio", 0)
	add("history.events_per_case", float64(httpPass.events)/cases, "count", 0)

	// trace: what the spans themselves cost, as the traced replay's median
	// start latency over the same replay's with no spans.
	overhead := 0.0
	if base := median(basePass.rec.lat[opStart]); base > 0 {
		overhead = median(httpPass.rec.lat[opStart]) / base
	}
	add("trace.overhead_ratio", overhead, "ratio", len(httpPass.rec.lat[opStart]))

	rec, err := recoveryProbe(res.dataDir, hasHumans(workload))
	if err != nil {
		return nil, err
	}
	out = append(out, rec...)
	probes, err := b.probes()
	if err != nil {
		return nil, err
	}
	return append(out, probes...), nil
}

// recoveryProbe reads the data dir the untraced run's server left behind
// when it was killed: how long the newest snapshot takes to read, and how
// long an in-process core.Open takes to recover from it. A memory workload
// has no data dir and reports zeros.
func recoveryProbe(dataDir string, withUsers bool) ([]Metric, error) {
	var snapRead, open float64
	recovered := 0
	if dataDir != "" {
		store, err := storage.OpenSnapshotStore(filepath.Join(dataDir, "snapshots"), 2)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sn, err := store.LatestSnapshot()
		if err != nil {
			return nil, err
		}
		if sn != nil {
			if err := sn.Iterate(func([]byte) error { return nil }); err != nil {
				return nil, err
			}
		}
		snapRead = time.Since(t0).Seconds()

		t0 = time.Now()
		sys, err := core.Open(serverOptions(dataDir, withUsers, nil))
		if err != nil {
			return nil, fmt.Errorf("core.Open on the recovery dir: %w", err)
		}
		open = time.Since(t0).Seconds()
		recovered = len(sys.Engine.Summaries())
		if err := sys.Close(); err != nil {
			return nil, err
		}
	}
	return []Metric{
		{"core.open_s", open, "s", 0},
		{"core.recovered_instances", float64(recovered), "count", 0},
		{"storage.snapshot_read_s", snapRead, "s", 0},
		{"engine.recover_apply_s", max(open-snapRead, 0), "s", 0},
	}, nil
}
