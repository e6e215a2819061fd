// Micro-benchmarks of the experiment suite: one Benchmark function (or
// group) per table/figure T1–T16 and F1–F5, several with allocation
// gates that fail the run. The README describes what each experiment
// measures; end-to-end numbers against a live bpmsd come from
// benchmark/ (bash benchmark/run.sh). Run with:
//
//	go test -bench=. -benchmem
package bpms_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"bpms"
	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/mine"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/rules"
	"bpms/internal/sim"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
	"bpms/internal/verify"
)

func newBenchEngine(b *testing.B, procs ...*model.Process) *engine.Engine {
	b.Helper()
	e, err := engine.New(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	for _, p := range procs {
		if err := e.Deploy(p); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// T1: engine throughput by topology — one sub-benchmark per topology.

func benchCases(b *testing.B, proc *model.Process, vars map[string]any) {
	e := newBenchEngine(b, proc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := e.StartInstance(proc.ID, vars)
		if err != nil {
			b.Fatal(err)
		}
		if v.Status != engine.StatusCompleted {
			b.Fatalf("status %s", v.Status)
		}
	}
}

func BenchmarkT1_Sequence10(b *testing.B) { benchCases(b, model.Sequence(10), nil) }
func BenchmarkT1_Parallel5(b *testing.B)  { benchCases(b, model.Parallel(5), nil) }
func BenchmarkT1_Choice8(b *testing.B) {
	benchCases(b, model.Choice(8), map[string]any{"branch": 3})
}
func BenchmarkT1_Loop5(b *testing.B) {
	benchCases(b, model.Loop(), map[string]any{"limit": 5, "count": 0})
}
func BenchmarkT1_Mixed(b *testing.B) {
	benchCases(b, model.Mixed(), map[string]any{"amount": 80})
}

// T2: work-item lifecycle.

func BenchmarkT2_TaskLifecycle(b *testing.B) {
	dir := resource.NewDirectory()
	dir.AddUser(&resource.User{ID: "u1", Roles: []string{"r"}})
	svc := task.NewService(task.Config{Directory: dir})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := svc.Create(task.Spec{InstanceID: "i", ElementID: "e", Role: "r"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Claim(it.ID, "u1"); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Start(it.ID, "u1"); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Complete(it.ID, "u1", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// F1: concurrent clients.

func BenchmarkF1_ParallelClients(b *testing.B) {
	e := newBenchEngine(b, model.Mixed())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.StartInstance("mixed", map[string]any{"amount": 80}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// T3: soundness verification, with and without reduction.

func BenchmarkT3_VerifyReduced50(b *testing.B) {
	p := model.RandomStructured(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Check(p, verify.Options{UseReduction: true, MaxStates: 2000000})
		if err != nil || !res.Sound {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

func BenchmarkT3_VerifyDirect25(b *testing.B) {
	p := model.RandomStructured(25, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Check(p, verify.Options{UseReduction: false, MaxStates: 2000000})
		if err != nil || !res.Sound {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// T4: journal append and replay.

func BenchmarkT4_Append256B(b *testing.B) {
	j, err := storage.OpenFileJournal(b.TempDir(), storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT4_Replay(b *testing.B) {
	dir := b.TempDir()
	j, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	const records = 10000
	for i := 0; i < records; i++ {
		j.Append(payload)
	}
	j.Sync()
	b.SetBytes(256 * records)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := j.Replay(1, func(uint64, []byte) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != records {
			b.Fatalf("replayed %d", count)
		}
	}
	b.StopTimer()
	j.Close()
}

// BenchmarkMemJournalAppend appends 60 B records, the size of one v2
// history event, to the in-memory journal. Records are packed into
// shared chunks, so an append allocates nothing of its own: the gate
// fails at more than one allocation per 20 appends.
func BenchmarkMemJournalAppend(b *testing.B) {
	payload := make([]byte, 60)
	const appends = 100000
	j := storage.NewMemJournal()
	per := testing.AllocsPerRun(1, func() {
		for i := 0; i < appends; i++ {
			if _, err := j.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	}) / appends
	if per > 0.05 {
		b.Fatalf("MemJournal.Append allocates %.3f times per 60 B record, want at most 0.05", per)
	}
	j = storage.NewMemJournal()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// T10: group-commit durable appends. Durable throughput under
// parallelism is the group-commit win: batch coalesces concurrent
// AppendDurable calls behind one fsync, while always pays one fsync
// per append.

func benchAppend(b *testing.B, opts storage.Options, durable bool) {
	j, err := storage.OpenFileJournal(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	payload := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var err error
			if durable {
				_, err = j.AppendDurable(payload)
			} else {
				_, err = j.Append(payload)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkT10_AppendDurableBatch(b *testing.B) {
	benchAppend(b, storage.Options{Policy: storage.SyncBatch}, true)
}

func BenchmarkT10_AppendSyncAlways(b *testing.B) {
	benchAppend(b, storage.Options{Policy: storage.SyncAlways}, false)
}

func BenchmarkT10_AppendSyncEvery256(b *testing.B) {
	benchAppend(b, storage.Options{Policy: storage.SyncEvery, SyncInterval: 256}, false)
}

// T11: sharded runtime. Durable StartInstance throughput under
// parallel clients against the shard count: every start blocks on its
// owner shard's group-commit ack, so N shards commit through N
// independent WAL pipelines.

func benchShardedStart(b *testing.B, shards int) {
	sys, err := bpms.Open(bpms.Options{
		DataDir:    b.TempDir(),
		Shards:     shards,
		SyncPolicy: bpms.SyncBatch,
		Durable:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sys.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	proc := model.Sequence(3)
	if err := sys.Engine.Deploy(proc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.Engine.StartInstance(proc.ID, nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkT11_DurableStart1Shard(b *testing.B) { benchShardedStart(b, 1) }
func BenchmarkT11_DurableStart2Shard(b *testing.B) { benchShardedStart(b, 2) }
func BenchmarkT11_DurableStart4Shard(b *testing.B) { benchShardedStart(b, 4) }

// T12: audit/history pipeline. Transition cost with history recording
// on vs off: the async striped store turns the per-transition audit
// work (JSON encode + journal append under a global lock) into a
// channel hand-off drained by per-stripe committers, so AuditOn should
// approach AuditOff. History journals are real files; the state
// journal is in-memory so the audit path is the only difference.

func benchAudit(b *testing.B, mkHist func(b *testing.B) *history.Store) {
	var hist *history.Store
	if mkHist != nil {
		hist = mkHist(b)
		defer hist.Close()
	}
	e, err := engine.New(engine.Config{History: hist})
	if err != nil {
		b.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	proc := model.Sequence(10)
	if err := e.Deploy(proc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := e.StartInstance(proc.ID, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v.Status != engine.StatusCompleted {
			b.Fatalf("status %s", v.Status)
		}
	}
	if hist != nil {
		// Drain the pipeline inside the measured window so the async
		// variant cannot hide unfinished work.
		if err := hist.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

func histStore(b *testing.B, stripes int) *history.Store {
	b.Helper()
	dir := b.TempDir()
	js := make([]storage.Journal, stripes)
	for i := range js {
		j, err := storage.OpenFileJournal(fmt.Sprintf("%s/stripe-%04d", dir, i), storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		js[i] = j
	}
	// The bounded window is the production default (bpmsd ships with
	// -history-window 100000); it also keeps the benchmark's live set
	// flat so GC cost reflects steady state, not unbounded growth.
	s, err := history.NewStriped(js, history.StoreOptions{Window: 10000})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkT12_AuditOff(b *testing.B) { benchAudit(b, nil) }

func BenchmarkT12_AuditOn(b *testing.B) {
	benchAudit(b, func(b *testing.B) *history.Store { return histStore(b, 1) })
}

func BenchmarkT12_AuditOn4Stripes(b *testing.B) {
	benchAudit(b, func(b *testing.B) *history.Store { return histStore(b, 4) })
}

// BenchmarkT12_EventEncode isolates the audit-path encoding: the
// append-style encoder into a reused buffer vs json.Marshal per event.

func BenchmarkT12_EventEncode(b *testing.B) {
	e := &history.Event{
		Type: history.ElementCompleted, Time: time.Now(),
		ProcessID: "order", InstanceID: "order-12345", ElementID: "approve",
		Element: "Approve order", Actor: "alice",
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := history.AppendEncode(buf[:0], e)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

func BenchmarkT12_EventEncodeJSON(b *testing.B) {
	e := &history.Event{
		Type: history.ElementCompleted, Time: time.Now(),
		ProcessID: "order", InstanceID: "order-12345", ElementID: "approve",
		Element: "Approve order", Actor: "alice",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(e); err != nil {
			b.Fatal(err)
		}
	}
}

// T13: striped worklist. Mixed read/write throughput under parallel
// clients against the stripe count: every iteration runs a full
// auto-allocated work-item lifecycle (create → start → complete), and
// every eighth iteration additionally polls the read side (per-user
// Worklist plus the indexed deadline query Overdue against a standing
// pool of open overdue items). With one stripe all operations
// serialize on a single mutex — the seed behaviour — while N stripes
// admit parallel claims/completions and index-backed queries.

func benchWorklistMixed(b *testing.B, stripes int) {
	const users = 16
	dir := resource.NewDirectory()
	for i := 0; i < users; i++ {
		dir.AddUser(&resource.User{ID: fmt.Sprintf("u%02d", i), Roles: []string{"crew"}})
	}
	svc := task.NewService(task.Config{Directory: dir, AutoAllocate: true, Stripes: stripes})
	// Standing overdue pool: Overdue must walk the due-time index, not
	// the ever-growing item map.
	for i := 0; i < 200; i++ {
		if _, err := svc.Create(task.Spec{
			InstanceID: "seed", ElementID: "late",
			Assignee: fmt.Sprintf("late%02d", i%8), Due: time.Nanosecond,
		}); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			it, err := svc.Create(task.Spec{InstanceID: "i", ElementID: "e", Role: "crew"})
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := svc.Start(it.ID, it.Assignee); err != nil {
				b.Error(err)
				return
			}
			if _, err := svc.Complete(it.ID, it.Assignee, nil); err != nil {
				b.Error(err)
				return
			}
			if n%8 == 0 {
				user := fmt.Sprintf("u%02d", n%users)
				svc.Worklist(user)
				if len(svc.Overdue(time.Now())) < 200 {
					b.Error("overdue pool missing")
					return
				}
			}
		}
	})
}

func BenchmarkT13_WorklistMixed1Stripe(b *testing.B)  { benchWorklistMixed(b, 1) }
func BenchmarkT13_WorklistMixed4Stripes(b *testing.B) { benchWorklistMixed(b, 4) }
func BenchmarkT13_WorklistMixed8Stripes(b *testing.B) { benchWorklistMixed(b, 8) }

// BenchmarkT13_Overdue isolates the deadline query: 100k items ever
// created, 200 of them open and overdue. The due-time min-heap answers
// in O(overdue · log pending); the seed scanned all 100k.

func BenchmarkT13_Overdue(b *testing.B) {
	svc := task.NewService(task.Config{Stripes: 4})
	for i := 0; i < 100000; i++ {
		it, err := svc.Create(task.Spec{InstanceID: "i", ElementID: "e", Assignee: "u"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Start(it.ID, "u"); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Complete(it.ID, "u", nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := svc.Create(task.Spec{
			InstanceID: "i", ElementID: "late", Assignee: "u", Due: time.Nanosecond,
		}); err != nil {
			b.Fatal(err)
		}
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := svc.Overdue(now); len(got) != 200 {
			b.Fatalf("overdue = %d", len(got))
		}
	}
}

// T13 page/claim: the shape of the benchmark's human_backlog workload —
// six clerks each offered every item of a standing backlog, paging the
// top 20 and claiming from the top. Both must stay flat in the backlog
// depth: the ordered indexes read a page in place and remove near the
// head without moving the rest.

func newOfferedBacklog(b *testing.B, backlog int) (*task.Service, []string) {
	b.Helper()
	dir := resource.NewDirectory()
	for i := 0; i < 6; i++ {
		dir.AddUser(&resource.User{ID: fmt.Sprintf("clerk%d", i), Roles: []string{"clerk"}})
	}
	svc := task.NewService(task.Config{Directory: dir})
	return svc, growBacklog(b, svc, nil, backlog)
}

func growBacklog(b *testing.B, svc *task.Service, ids []string, n int) []string {
	b.Helper()
	for i := 0; i < n; i++ {
		it, err := svc.Create(task.Spec{InstanceID: "i", ElementID: "e", Role: "clerk"})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, it.ID)
	}
	return ids
}

func BenchmarkT13_OfferedPage(b *testing.B) {
	const limit = 20
	for _, backlog := range []int{500, 4000, 100000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			svc, _ := newOfferedBacklog(b, backlog)
			// The clones plus O(1): a copy of the user's whole offered
			// set shows here, whatever the iteration count.
			if allocs := testing.AllocsPerRun(10, func() { svc.OfferedPage("clerk0", 0, limit) }); allocs > limit+8 {
				b.Fatalf("OfferedPage allocates %.0f times per page of %d, want at most %d", allocs, limit, limit+8)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := svc.OfferedPage("clerk0", 0, limit); len(got) != limit {
					b.Fatalf("page = %d items", len(got))
				}
			}
		})
	}
}

func BenchmarkT13_ClaimHead(b *testing.B) {
	for _, backlog := range []int{4000, 100000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			const refill = 1000 // the depth stays within this of backlog
			svc, ids := newOfferedBacklog(b, backlog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%refill == 0 {
					b.StopTimer()
					ids = growBacklog(b, svc, ids, refill)
					b.StartTimer()
				}
				if _, err := svc.Claim(ids[i], "clerk0"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// F2: allocation-policy simulation (one 100-case run per iteration).

func benchPolicy(b *testing.B, pol resource.Policy) {
	proc := model.New("mmc").
		Start("s").UserTask("serve", model.Role("agent")).End("e").
		Seq("s", "serve", "e").MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Process:        proc,
			Cases:          100,
			Interarrival:   sim.Exp(25 * time.Second),
			DefaultService: sim.Exp(80 * time.Second),
			Resources:      map[string][]string{"agent": {"w1", "w2", "w3", "w4"}},
			Policy:         pol,
			Seed:           int64(i),
		})
		if err != nil || res.Completed != 100 {
			b.Fatalf("completed=%d err=%v", res.Completed, err)
		}
	}
}

func BenchmarkF2_SimRandomPolicy(b *testing.B)  { benchPolicy(b, resource.NewRandomPolicy(1)) }
func BenchmarkF2_SimShortestQueue(b *testing.B) { benchPolicy(b, resource.ShortestQueuePolicy{}) }

// T5: expression evaluation.

func BenchmarkT5_ExprComparison(b *testing.B) {
	p := expr.MustCompile(`amount > 1000 && region == "EU"`)
	env := expr.MapEnv{"amount": expr.Int(1500), "region": expr.String("EU")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT5_ExprAggregate(b *testing.B) {
	p := expr.MustCompile(`len(items) + sum(items)`)
	env := expr.MapEnv{"items": expr.List(expr.Int(1), expr.Int(2), expr.Int(3))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// T9: deploy-time expression compilation — compile-once vs the
// compile-per-evaluation pattern, micro and engine-level.

// conditionHeavy chains n exclusive choices whose guarded branches are
// script tasks with output mappings, so per-instance cost is dominated
// by expression evaluation.
func conditionHeavy(n int) *model.Process {
	b := model.New(fmt.Sprintf("cond-%d", n))
	b.Start("start")
	prev := "start"
	for i := 1; i <= n; i++ {
		x := fmt.Sprintf("x%d", i)
		hot := fmt.Sprintf("hot%d", i)
		cold := fmt.Sprintf("cold%d", i)
		dflt := fmt.Sprintf("d%d", i)
		join := fmt.Sprintf("j%d", i)
		b.XOR(x, model.Default(dflt))
		b.ScriptTask(hot,
			model.Output("acc", fmt.Sprintf("coalesce(acc, 0) + amount * %d", i)),
			model.Output("tier", `acc > 1000 ? "gold" : "base"`))
		b.ScriptTask(cold, model.Output("acc", "coalesce(acc, 0) + 1"))
		b.XOR(join)
		b.Flow(prev, x)
		b.FlowIf(x, hot, fmt.Sprintf(`amount %% %d == 0 || tier == "gold"`, i+1))
		b.FlowID(dflt, x, cold, "")
		b.Flow(hot, join)
		b.Flow(cold, join)
		prev = join
	}
	b.End("end")
	b.Flow(prev, "end")
	return b.MustBuild()
}

// BenchmarkT9_ConditionHeavy20 drives a 20-choice condition-heavy
// process (conditionHeavy) through the engine; with deploy-time
// compilation no expression is parsed after Deploy.
func BenchmarkT9_ConditionHeavy20(b *testing.B) {
	// amount 600 drives acc past 1000 by the second choice, so most
	// guards take the two-output "hot" branch: the workload is
	// dominated by condition and output-mapping evaluation.
	benchCases(b, conditionHeavy(20), map[string]any{"amount": 600})
}

// BenchmarkT9_ExprCompilePerEval is the seed engine's per-evaluation
// behavior (lex + parse + eval every time), kept as the baseline the
// compilation pipeline is measured against.
func BenchmarkT9_ExprCompilePerEval(b *testing.B) {
	env := expr.MapEnv{"amount": expr.Int(1500), "region": expr.String("EU")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := expr.Compile(`amount > 1000 && region == "EU"`)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// F3: discovery (mining a 100-trace log per iteration).

// discoveryGroundTruth is the process the F3 benchmarks rediscover.
func discoveryGroundTruth() *model.Process {
	return model.New("f3truth").
		Start("s").
		UserTask("A", model.Name("A"), model.Role("w")).
		XOR("x", model.Default("db")).
		UserTask("B", model.Name("B"), model.Role("w")).
		UserTask("C", model.Name("C"), model.Role("w")).
		XOR("m").
		AND("f").
		UserTask("D", model.Name("D"), model.Role("w")).
		UserTask("E", model.Name("E"), model.Role("w")).
		AND("j").
		UserTask("F", model.Name("F"), model.Role("w")).
		End("e").
		Flow("s", "A").
		Flow("A", "x").
		FlowIf("x", "B", "pick == 1").
		FlowID("db", "x", "C", "").
		Flow("B", "m").Flow("C", "m").
		Flow("m", "f").
		Flow("f", "D").Flow("f", "E").
		Flow("D", "j").Flow("E", "j").
		Flow("j", "F").
		Flow("F", "e").
		MustBuild()
}

// discoveryLog simulates the ground truth into a log of n traces.
func discoveryLog(tb testing.TB, n int, seed int64) *history.Log {
	tb.Helper()
	res, err := sim.Run(sim.Config{
		Process:        discoveryGroundTruth(),
		Cases:          n,
		Interarrival:   sim.Exp(time.Minute),
		DefaultService: sim.Exp(2 * time.Minute),
		Resources:      map[string][]string{"w": {"w1", "w2", "w3", "w4"}},
		Vars: func(i int, r *rand.Rand) map[string]any {
			return map[string]any{"pick": r.Intn(2)}
		},
		Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Log
}

func TestDiscoveryLogShape(t *testing.T) {
	log := discoveryLog(t, 20, 1)
	if len(log.Traces) != 20 {
		t.Fatalf("traces = %d", len(log.Traces))
	}
	// Ground truth has 6 activities; every trace covers A..F minus the
	// untaken XOR branch.
	for _, tr := range log.Traces {
		if len(tr.Entries) != 5 {
			t.Errorf("trace %s has %d events, want 5", tr.CaseID, len(tr.Entries))
		}
		if tr.Entries[0].Activity != "A" || tr.Entries[len(tr.Entries)-1].Activity != "F" {
			t.Errorf("trace %s order: %v", tr.CaseID, tr.Entries)
		}
	}
}

func BenchmarkF3_AlphaMiner(b *testing.B) {
	log := discoveryLog(b, 100, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mine.Alpha(log)
		if res.Net.Transitions() == 0 {
			b.Fatal("empty net")
		}
	}
}

func BenchmarkF3_TokenReplay(b *testing.B) {
	log := discoveryLog(b, 100, 3)
	res := mine.Alpha(log)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mine.TokenReplay(res, log)
		if c.Fitness() <= 0 {
			b.Fatal("zero fitness")
		}
	}
}

// T6: message correlation with 1000 parked instances.

func BenchmarkT6_Correlate(b *testing.B) {
	proc := model.New("waiter").
		Start("s").MessageCatch("w", "evt", model.CorrelationKey("k")).End("e").
		Seq("s", "w", "e").MustBuild()
	e := newBenchEngine(b, proc)
	// Keep a standing pool of 1000 waiting instances.
	for i := 0; i < 1000; i++ {
		if _, err := e.StartInstance("waiter", map[string]any{"k": fmt.Sprintf("pool%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench%d", i)
		if _, err := e.StartInstance("waiter", map[string]any{"k": key}); err != nil {
			b.Fatal(err)
		}
		n, _, err := e.Publish("evt", key, nil)
		if err != nil || n != 1 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// F4: timer services.

func benchTimers(b *testing.B, svc timer.Service) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := rand.New(rand.NewSource(1))
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Schedule(base.Add(time.Duration(r.Intn(10000))*time.Millisecond), func() { fired++ })
	}
	svc.AdvanceTo(base.Add(time.Hour))
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

func BenchmarkF4_TimingWheel(b *testing.B) {
	benchTimers(b, timer.NewWheelService(time.Millisecond, 512))
}

// T7: decision tables.

func benchRules(b *testing.B, n int) {
	tbl := rules.Table{Name: "bench", HitPolicy: rules.First, Outputs: []string{"out"}}
	for i := 0; i < n; i++ {
		tbl.Rules = append(tbl.Rules, rules.Rule{
			Conditions: []string{fmt.Sprintf("v == %d", i)},
			Outputs:    map[string]string{"out": fmt.Sprint(i)},
		})
	}
	c := rules.MustCompile(tbl)
	env := expr.MapEnv{"v": expr.Int(int64(n - 1))} // worst case: last rule
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT7_Rules10(b *testing.B)    { benchRules(b, 10) }
func BenchmarkT7_Rules100(b *testing.B)   { benchRules(b, 100) }
func BenchmarkT7_Rules1000(b *testing.B)  { benchRules(b, 1000) }
func BenchmarkT7_Rules10000(b *testing.B) { benchRules(b, 10000) }

// T15: indexed decision tables — column index vs the linear scan on
// the same compiled table, worst-case last-match equality workload.

func t15Table(n int) (*rules.Compiled, expr.MapEnv) {
	tbl := rules.Table{Name: "t15", HitPolicy: rules.First, Outputs: []string{"out"}}
	for i := 0; i < n; i++ {
		tbl.Rules = append(tbl.Rules, rules.Rule{
			Conditions: []string{fmt.Sprintf("v == %d", i)},
			Outputs:    map[string]string{"out": fmt.Sprint(i)},
		})
	}
	return rules.MustCompile(tbl), expr.MapEnv{"v": expr.Int(int64(n - 1))}
}

func benchT15Indexed(b *testing.B, n int) {
	c, env := t15Table(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func benchT15Linear(b *testing.B, n int) {
	c, env := t15Table(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvalLinear(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT15_Indexed100(b *testing.B)   { benchT15Indexed(b, 100) }
func BenchmarkT15_Indexed1000(b *testing.B)  { benchT15Indexed(b, 1000) }
func BenchmarkT15_Indexed10000(b *testing.B) { benchT15Indexed(b, 10000) }
func BenchmarkT15_Linear100(b *testing.B)    { benchT15Linear(b, 100) }
func BenchmarkT15_Linear1000(b *testing.B)   { benchT15Linear(b, 1000) }
func BenchmarkT15_Linear10000(b *testing.B)  { benchT15Linear(b, 10000) }

func BenchmarkT15_Batch10000(b *testing.B) {
	c, env := t15Table(10000)
	envs := make([]expr.Env, 64)
	for i := range envs {
		envs[i] = env
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(envs) {
		_, errs := c.EvalBatch(envs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// F5: recovery (rebuild an engine from a 500-instance journal).

func BenchmarkF5_Recovery(b *testing.B) {
	dir := b.TempDir()
	j, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{Journal: j})
	if err != nil {
		b.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) { return nil, nil })
	if err := e.Deploy(model.Sequence(5)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := e.StartInstance("seq-5", nil); err != nil {
			b.Fatal(err)
		}
	}
	j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j2, err := storage.OpenFileJournal(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		e2, err := engine.New(engine.Config{Journal: j2})
		if err != nil {
			b.Fatal(err)
		}
		if len(e2.Instances()) != 500 {
			b.Fatalf("recovered %d", len(e2.Instances()))
		}
		j2.Close()
	}
}

// T16: storage lifecycle — cold start from a streaming snapshot plus
// journal suffix, read serially, and the snapshot write itself (one
// bounded record per definition/instance).

func buildT16BenchFixture(b *testing.B, dir string) {
	b.Helper()
	j, err := storage.OpenFileJournal(dir+"/state", storage.Options{SegmentSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	sn, err := storage.OpenSnapshotStore(dir+"/snapshots", 2)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{Journal: j, Snapshots: sn})
	if err != nil {
		b.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) { return nil, nil })
	if err := e.Deploy(model.Sequence(3)); err != nil {
		b.Fatal(err)
	}
	const inSnapshot, suffix = 2000, 500
	for i := 0; i < inSnapshot; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < suffix; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			b.Fatal(err)
		}
	}
	j.Close()
}

func BenchmarkT16_ColdStartStreaming(b *testing.B) {
	dir := b.TempDir()
	buildT16BenchFixture(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := storage.OpenFileJournal(dir+"/state", storage.Options{SegmentSize: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
		sn, err := storage.OpenSnapshotStore(dir+"/snapshots", 2)
		if err != nil {
			b.Fatal(err)
		}
		e, err := engine.New(engine.Config{Journal: j, Snapshots: sn})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(e.Instances()); got != 2500 {
			b.Fatalf("recovered %d", got)
		}
		j.Close()
	}
}

func BenchmarkT16_SnapshotStreaming(b *testing.B) {
	dir := b.TempDir()
	j, err := storage.OpenFileJournal(dir+"/state", storage.Options{SegmentSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	sn, err := storage.OpenSnapshotStore(dir+"/snapshots", 2)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{Journal: j, Snapshots: sn})
	if err != nil {
		b.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) { return nil, nil })
	if err := e.Deploy(model.Sequence(3)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// T16, boot recovery decode: what a restart pays to parse the audit
// journal and the engine's instance records.

// scriptCaseEvents writes the audit trail of n scripted pipeline cases
// the way the engine emits it: 16 events per case, one case after the
// other, the four routing elements' completions carrying a data object.
func scriptCaseEvents(b *testing.B, j storage.Journal, n int) {
	b.Helper()
	elements := []struct {
		id      string
		routing bool
	}{{"ingest", true}, {"validate", false}, {"branch", true}, {"fastPath", false},
		{"merge", true}, {"record", false}, {"done", true}}
	at := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	var buf []byte
	put := func(e history.Event) {
		at = at.Add(1237 * time.Nanosecond)
		e.Time, e.ProcessID = at, "bench-pipeline"
		var err error
		if buf, err = history.AppendEncode(buf[:0], &e); err == nil {
			_, err = j.Append(buf)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		inst := fmt.Sprintf("bench-pipeline-%d", i)
		put(history.Event{Type: history.InstanceStarted, InstanceID: inst})
		for _, el := range elements {
			put(history.Event{Type: history.ElementActivated, InstanceID: inst, ElementID: el.id})
			done := history.Event{Type: history.ElementCompleted, InstanceID: inst, ElementID: el.id}
			if el.routing {
				done.Data = map[string]any{"routing": true}
			}
			put(done)
		}
		put(history.Event{Type: history.InstanceCompleted, InstanceID: inst})
	}
}

// keepOpen hides a journal's Close, so a store over it can be closed,
// stopping its committers, and the journal opened again.
type keepOpen struct{ storage.Journal }

func (keepOpen) Close() error { return nil }

func openHistory(b *testing.B, j storage.Journal, window, wantEvents int) {
	b.Helper()
	s, err := history.NewStriped([]storage.Journal{keepOpen{j}}, history.StoreOptions{Window: window})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close() // stops the committer; j stays open for the next run
	resident := wantEvents
	if window > 0 && window < resident {
		resident = window
	}
	if st := s.Stats(); st.Events != wantEvents || st.Resident != resident {
		b.Fatalf("opened %d events, %d resident; want %d, %d", st.Events, st.Resident, wantEvents, resident)
	}
}

func BenchmarkT16_HistoryOpen(b *testing.B) {
	const cases, perCase = 20000, 16
	// One case's trail in v2 records: about 2 550 B in the JSON records
	// before them.
	one := storage.NewMemJournal()
	scriptCaseEvents(b, one, 1)
	size := 0
	one.Replay(1, func(_ uint64, p []byte) error { size += len(p); return nil })
	if size > 1000 {
		b.Fatalf("one %d-event case encodes to %d payload bytes, want at most 1000", perCase, size)
	}
	j := storage.NewMemJournal()
	scriptCaseEvents(b, j, cases)
	// The same trail with its first half written twice: 160 000 more
	// records, all below any window and of instances already seen.
	longer := storage.NewMemJournal()
	scriptCaseEvents(b, longer, cases/2)
	scriptCaseEvents(b, longer, cases)
	for _, window := range []int{0, 100000} {
		b.Run(fmt.Sprintf("events=%d/window=%d", cases*perCase, window), func(b *testing.B) {
			if window > 0 {
				// A record below the window is counted where it lies:
				// a longer prefix allocates nothing more (the slack is
				// the journal's own replay and the counters' map growth).
				short := testing.AllocsPerRun(1, func() { openHistory(b, j, window, cases*perCase) })
				long := testing.AllocsPerRun(1, func() { openHistory(b, longer, window, cases*perCase*3/2) })
				if long-short > 64 {
					b.Fatalf("160000 more count-only records cost %.0f allocations, want none", long-short)
				}
				// The window's records are copied, not decoded: the
				// allocations are per instance and per 64 KiB chunk, not
				// per event (about 600 000 when it held decoded events).
				if short > 150000 {
					b.Fatalf("an open allocates %.0f times, want at most 150000", short)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				openHistory(b, j, window, cases*perCase)
			}
		})
	}
}

// The most DecodeEvent may allocate for a plain record (the event and
// its three strings), and for one with data (the map and its entries
// too).
const decodeAllocsPlain, decodeAllocsData = 4, 12

func BenchmarkDecodeEvent(b *testing.B) {
	at := time.Date(2026, 6, 1, 12, 0, 0, 123456789, time.UTC)
	plain := history.Event{Type: history.ElementCompleted, Time: at, ProcessID: "bench-pipeline",
		InstanceID: "bench-pipeline-1528", ElementID: "validate"}
	data := plain
	data.Data = map[string]any{"routing": true}
	for _, c := range []struct {
		name      string
		event     history.Event
		maxAllocs float64 // the event, its strings, and for data the map
	}{{"plain", plain, decodeAllocsPlain}, {"data", data, decodeAllocsData}} {
		b.Run(c.name, func(b *testing.B) {
			payload, err := history.AppendEncode(nil, &c.event)
			if err != nil {
				b.Fatal(err)
			}
			decode := func() {
				if e, err := history.DecodeEvent(payload); err != nil || e.ElementID != "validate" {
					b.Fatalf("decoded %+v, %v", e, err)
				}
			}
			if allocs := testing.AllocsPerRun(100, decode); allocs > c.maxAllocs {
				b.Fatalf("DecodeEvent allocates %.0f times, want at most %.0f", allocs, c.maxAllocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decode()
			}
		})
	}
}

// BenchmarkEventsOfResident is the price of keeping the window packed:
// a resident case's history is decoded on every read. One 16-event
// pipeline case, all of it resident; the read may allocate no more than
// decoding its 12 plain and 4 data-bearing records does, plus the
// result slice and one spare.
func BenchmarkEventsOfResident(b *testing.B) {
	j := storage.NewMemJournal()
	scriptCaseEvents(b, j, 1)
	s, err := history.NewStriped([]storage.Journal{j}, history.StoreOptions{Window: 100000})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	read := func() {
		if evs := s.EventsOf("bench-pipeline-1"); len(evs) != 16 {
			b.Fatalf("read %d events, want 16", len(evs))
		}
	}
	const maxAllocs = 12*decodeAllocsPlain + 4*decodeAllocsData + 2
	if allocs := testing.AllocsPerRun(100, read); allocs > maxAllocs {
		b.Fatalf("EventsOf allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

func BenchmarkT16_RecoverDecode(b *testing.B) {
	const instances = 20000
	b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
		j := storage.NewMemJournal()
		e, err := engine.New(engine.Config{Journal: j})
		if err != nil {
			b.Fatal(err)
		}
		e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) { return nil, nil })
		if err := e.Deploy(model.Sequence(3)); err != nil {
			b.Fatal(err)
		}
		regions := []string{"north", "south", "east", "west"}
		for i := 0; i < instances; i++ {
			vars := map[string]any{"amount": i % 10000, "customer": fmt.Sprintf("c-%06d", i), "region": regions[i%4], "checked": true}
			if _, err := e.StartInstance("seq-3", vars); err != nil {
				b.Fatal(err)
			}
		}
		recoverAll := func() {
			e2, err := engine.New(engine.Config{Journal: j})
			if err != nil {
				b.Fatal(err)
			}
			if got := e2.InstanceCount(); got != instances {
				b.Fatalf("recovered %d", got)
			}
		}
		// Every case is finished, so recovery archives each record
		// undecoded: a copy of its state, the record that carries it,
		// and its ID.
		if per := testing.AllocsPerRun(1, recoverAll) / instances; per > 4 {
			b.Fatalf("recovery allocates %.1f times per finished instance, want at most 4", per)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recoverAll()
		}
	})
}

// T8: end-to-end simulated loan process (100 cases per iteration).

func BenchmarkT8_LoanSimulation(b *testing.B) {
	proc := model.New("loan-bench").
		Start("s").
		UserTask("register", model.Role("clerk")).
		XOR("route", model.Default("small")).
		UserTask("assess", model.Role("assessor")).
		UserTask("fastTrack", model.Role("clerk")).
		XOR("m").
		UserTask("payout", model.Role("clerk")).
		End("e").
		Flow("s", "register").
		Flow("register", "route").
		FlowIf("route", "assess", "amount > 5000").
		FlowID("small", "route", "fastTrack", "").
		Flow("assess", "m").
		Flow("fastTrack", "m").
		Flow("m", "payout").
		Flow("payout", "e").
		MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Process:        proc,
			Cases:          100,
			Interarrival:   sim.Exp(10 * time.Minute),
			DefaultService: sim.Lognormal{M: 10 * time.Minute, Shape: 0.5},
			Resources: map[string][]string{
				"clerk":    {"c1", "c2", "c3"},
				"assessor": {"a1", "a2"},
			},
			Vars: func(n int, r *rand.Rand) map[string]any {
				return map[string]any{"amount": 1000 + r.Intn(9000)}
			},
			Seed: int64(i),
		})
		if err != nil || res.Completed != 100 {
			b.Fatalf("completed=%d err=%v", res.Completed, err)
		}
	}
}
