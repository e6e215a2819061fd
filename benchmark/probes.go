package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bpms/internal/core"
	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/rules"
	"bpms/internal/storage"
	"bpms/internal/task"
)

// The probes measure layers the replay has no seam into (expr, rules,
// task, history, model, shard lookup) by calling their public functions in
// isolation, at fixed sizes. They are the same on every workload.

// batchNS times fn in `batches` batches of `per` calls and returns the
// median of the batch means in nanoseconds: a clock read per call would
// dominate a 100 ns operation.
func batchNS(batches, per int, fn func(i int)) float64 {
	means := make([]float64, batches)
	i := 0
	for b := range means {
		t0 := time.Now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		means[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(means)
}

// eachUS times every call of fn and returns the median in microseconds.
func eachUS(n int, fn func(i int)) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn(i)
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// allocsPer returns heap allocations and bytes per call of fn over n calls.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

func (b *bench) probes() ([]Metric, error) {
	scale := 1
	if b.quick {
		scale = 10
	}
	var out []Metric
	for _, probe := range []func(scale int) ([]Metric, error){
		b.probeEngine, b.probeExpr, b.probeRules, b.probeStorage, b.probeHistory, b.probeTask, b.probeModel,
	} {
		ms, err := probe(scale)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// probeEngine starts pipeline cases directly on an in-memory system: the
// engine's own cost with no HTTP, JSON or disk, and the router's lookup.
func (b *bench) probeEngine(scale int) ([]Metric, error) {
	sys, err := core.Open(serverOptions("", false, nil))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	p, err := model.DecodeJSON(b.defs[pipelineID])
	if err != nil {
		return nil, err
	}
	if err := sys.Engine.Deploy(p); err != nil {
		return nil, err
	}
	n := 4000 / scale
	vars := generate(scriptMemory, b.seed, Size{Script: 2 * n}).Script
	var ids []string
	var startErr error
	start := func(i int) {
		v, err := sys.Engine.StartInstance(pipelineID, vars[i].Map())
		if err != nil {
			startErr = err
			return
		}
		ids = append(ids, v.ID)
	}
	startUS := eachUS(n, start)
	allocs, bytes := allocsPer(n, func(i int) { start(n + i) })
	if startErr != nil {
		return nil, startErr
	}
	lookup := batchNS(20, len(ids)/20, func(i int) {
		if _, err := sys.Engine.Instance(ids[i%len(ids)]); err != nil {
			startErr = err
		}
	})
	return []Metric{
		{"shard.lookup_ns", lookup, "ns", len(ids)},
		{"engine.start_us", startUS, "us", n},
		{"engine.allocs_per_case", allocs, "count", 0},
		{"engine.bytes_per_case", bytes, "B", 0},
	}, startErr
}

// pipelineExprs returns the pipeline's expressions: its one flow condition
// and its four output mappings.
func pipelineExprs(p *model.Process) []string {
	var srcs []string
	for _, f := range p.Flows {
		if f.Condition != "" {
			srcs = append(srcs, f.Condition)
		}
	}
	for _, e := range p.Elements {
		for _, name := range []string{"checked", "path", "recorded"} {
			if src, ok := e.Outputs[name]; ok {
				srcs = append(srcs, src)
			}
		}
	}
	return srcs
}

func (b *bench) probeExpr(scale int) ([]Metric, error) {
	p, err := model.DecodeJSON(b.defs[pipelineID])
	if err != nil {
		return nil, err
	}
	srcs := pipelineExprs(p)
	progs := make([]*expr.Program, len(srcs))
	for i, src := range srcs {
		if progs[i], err = expr.Compile(src); err != nil {
			return nil, err
		}
	}
	vars := generate(scriptMemory, b.seed, Size{Script: 256}).Script
	envs := make([]expr.MapEnv, len(vars))
	for i, v := range vars {
		envs[i] = expr.MapEnv{"amount": expr.Int(int64(v.Amount)), "customer": expr.String(v.Customer),
			"region": expr.String(v.Region), "checked": expr.Bool(true), "path": expr.String("fast")}
	}
	var evalErr error
	eval := func(i int) {
		if _, err := progs[i%len(progs)].Eval(envs[i%len(envs)]); err != nil {
			evalErr = err
		}
	}
	evalNS := batchNS(50, 10000/scale, eval)
	allocs, _ := allocsPer(10000, eval)
	compileUS := eachUS(2000/scale, func(i int) {
		if _, err := expr.Compile(srcs[i%len(srcs)]); err != nil {
			evalErr = err
		}
	})
	return []Metric{
		{"expr.eval_ns", evalNS, "ns", 50},
		{"expr.allocs_per_eval", allocs, "count", 0},
		{"expr.compile_us", compileUS, "us", 2000 / scale},
	}, evalErr
}

// probeRules evaluates an indexed 1000-rule equality table on random
// inputs. No API route reaches a decision table today; this guards the
// embedded path.
func (b *bench) probeRules(scale int) ([]Metric, error) {
	tbl := rules.Table{Name: "bench", HitPolicy: rules.First, Outputs: []string{"out"}}
	for i := 0; i < 1000; i++ {
		tbl.Rules = append(tbl.Rules, rules.Rule{
			Conditions: []string{fmt.Sprintf("v == %d", i)},
			Outputs:    map[string]string{"out": fmt.Sprint(i)},
		})
	}
	c, err := rules.Compile(tbl)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(b.seed))
	envs := make([]expr.MapEnv, 512)
	for i := range envs {
		envs[i] = expr.MapEnv{"v": expr.Int(int64(r.Intn(1000)))}
	}
	var evalErr error
	eval := func(i int) {
		if _, err := c.Eval(envs[i%len(envs)]); err != nil {
			evalErr = err
		}
	}
	ns := batchNS(50, 2000/scale, eval)
	allocs, _ := allocsPer(5000, eval)
	return []Metric{
		{"rules.eval_ns_1k", ns, "ns", 50},
		{"rules.allocs_per_eval", allocs, "count", 0},
	}, evalErr
}

// probeStorage measures one durable append (single writer, group-commit
// policy, 512 B) and replay speed over a 20 000-record journal with no
// snapshot.
func (b *bench) probeStorage(scale int) ([]Metric, error) {
	dir, err := os.MkdirTemp(b.workDir, "probe-storage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	var opErr error

	j, err := storage.OpenFileJournal(filepath.Join(dir, "durable"), storage.Options{Policy: storage.SyncBatch})
	if err != nil {
		return nil, err
	}
	appendUS := eachUS(1000/scale, func(int) {
		if _, err := j.AppendDurable(payload); err != nil {
			opErr = err
		}
	})
	if err := j.Close(); err != nil {
		return nil, err
	}

	records := 20000 / scale
	fixture := filepath.Join(dir, "replay")
	if j, err = storage.OpenFileJournal(fixture, storage.Options{}); err != nil {
		return nil, err
	}
	for i := 0; i < records; i++ {
		if _, err := j.Append(payload); err != nil {
			return nil, err
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	if j, err = storage.OpenFileJournal(fixture, storage.Options{}); err != nil {
		return nil, err
	}
	defer j.Close()
	perS := make([]float64, 5)
	for i := range perS {
		seen := 0
		t0 := time.Now()
		if err := j.Replay(1, func(uint64, []byte) error { seen++; return nil }); err != nil {
			return nil, err
		}
		perS[i] = float64(seen) / time.Since(t0).Seconds()
		if seen != records {
			return nil, fmt.Errorf("replay saw %d of %d records", seen, records)
		}
	}
	return []Metric{
		{"storage.append_durable_us", appendUS, "us", 1000 / scale},
		{"storage.replay_records_per_s", median(perS), "1/s", len(perS)},
	}, opErr
}

// probeHistory fills a store with 100 000 events (bpmsd's resident window)
// in bursts smaller than its queue, timing the caller's enqueue and the
// committer's flush apart, then reads single instances back.
func (b *bench) probeHistory(scale int) ([]Metric, error) {
	store, err := history.NewStriped([]storage.Journal{storage.NewMemJournal()}, history.StoreOptions{Window: 100000})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	const burst = 500
	bursts := 200 / scale
	now := time.Now()
	var enqNS, flushUS []float64
	n := 0
	for k := 0; k < bursts; k++ {
		events := make([]*history.Event, burst)
		for i := range events {
			events[i] = &history.Event{Type: history.ElementCompleted, Time: now, ProcessID: pipelineID,
				InstanceID: fmt.Sprintf("inst-%d", n/10), ElementID: "record", Data: map[string]any{"n": n}}
			n++
		}
		t0 := time.Now()
		for _, ev := range events {
			store.Enqueue(ev)
		}
		t1 := time.Now()
		if err := store.Flush(); err != nil {
			return nil, err
		}
		enqNS = append(enqNS, float64(t1.Sub(t0))/burst)
		flushUS = append(flushUS, float64(time.Since(t1))/1e3/burst)
	}
	instances := n / 10
	r := rand.New(rand.NewSource(b.seed))
	var opErr error
	eventsOf := eachUS(2000/scale, func(int) {
		if got := len(store.EventsOf(fmt.Sprintf("inst-%d", r.Intn(instances)))); got != 10 {
			opErr = fmt.Errorf("EventsOf returned %d events, want 10", got)
		}
	})
	return []Metric{
		{"history.enqueue_ns", median(enqNS), "ns", len(enqNS)},
		{"history.flush_us_per_event", median(flushUS), "us", len(flushUS)},
		{"history.events_of_us", eventsOf, "us", 2000 / scale},
	}, opErr
}

// probeTask drives the worklist service alone: item creation up to a
// 4000-item backlog, the offered-page query at two backlog depths (it scans
// the user's offers), then claim and complete.
func (b *bench) probeTask(scale int) ([]Metric, error) {
	dir := resource.NewDirectory()
	for _, u := range users {
		dir.AddUser(&resource.User{ID: u.ID, Roles: []string{u.Role}})
	}
	svc := task.NewService(task.Config{Directory: dir})
	defer svc.Close()
	var opErr error
	var ids []string
	create := func(int) {
		it, err := svc.Create(task.Spec{ProcessID: claimsID, InstanceID: "i", ElementID: "register", Role: roleClerk})
		if err != nil {
			opErr = err
			return
		}
		ids = append(ids, it.ID)
	}
	page := func(int) { svc.OfferedPage(users[0].ID, 0, pageLimit) }
	shallow, deep := 500/scale, 4000/scale
	createUS := eachUS(shallow, create)
	page500 := eachUS(200/scale, page)
	for len(ids) < deep {
		create(0)
	}
	page4000 := eachUS(200/scale, page)
	allocs, _ := allocsPer(50, page)
	n := 500 / scale
	claimUS := eachUS(n, func(i int) {
		if _, err := svc.Claim(ids[i], users[0].ID); err != nil {
			opErr = err
		}
	})
	for i := 0; i < n; i++ {
		if _, err := svc.Start(ids[i], users[0].ID); err != nil {
			return nil, err
		}
	}
	completeUS := eachUS(n, func(i int) {
		if _, err := svc.Complete(ids[i], users[0].ID, map[string]any{"severity": 1}); err != nil {
			opErr = err
		}
	})
	return []Metric{
		{"task.create_us", createUS, "us", shallow},
		{"task.claim_us", claimUS, "us", n},
		{"task.complete_us", completeUS, "us", n},
		{"task.offered_page_us_b500", page500, "us", 200 / scale},
		{"task.offered_page_us_b4000", page4000, "us", 200 / scale},
		{"task.allocs_per_page", allocs, "count", 0},
	}, opErr
}

// probeModel decodes and compiles the pipeline definition: what a deploy
// costs before the engine sees it.
func (b *bench) probeModel(scale int) ([]Metric, error) {
	var opErr error
	us := eachUS(500/scale, func(int) {
		p, err := model.DecodeJSON(b.defs[pipelineID])
		if err == nil {
			err = p.Compile()
		}
		if err != nil {
			opErr = err
		}
	})
	return []Metric{{"model.decode_compile_us", us, "us", 500 / scale}}, opErr
}
