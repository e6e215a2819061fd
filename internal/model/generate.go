package model

import (
	"fmt"
	"math/rand"
)

// This file provides parametric process generators. They serve two
// purposes: workload definitions for the micro-benchmarks in
// bench_test.go (experiment T1: throughput by topology; T3:
// verification cost vs model size) and fixtures for tests. All generated service tasks use the "noop"
// handler, which the engine test harness registers as an immediate
// no-op.

// NoopHandler is the handler name used by generated service tasks.
const NoopHandler = "noop"

// Sequence generates start -> t1 -> ... -> tn -> end.
func Sequence(n int) *Process {
	b := New(fmt.Sprintf("seq-%d", n)).Name(fmt.Sprintf("Sequence of %d tasks", n))
	b.Start("start")
	prev := "start"
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("t%d", i)
		b.ServiceTask(id, NoopHandler)
		b.Flow(prev, id)
		prev = id
	}
	b.End("end")
	b.Flow(prev, "end")
	return b.MustBuild()
}

// Parallel generates start -> AND-split -> n tasks -> AND-join -> end.
func Parallel(n int) *Process {
	b := New(fmt.Sprintf("par-%d", n)).Name(fmt.Sprintf("Parallel %d branches", n))
	b.Start("start").AND("split").AND("join").End("end")
	b.Flow("start", "split")
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("t%d", i)
		b.ServiceTask(id, NoopHandler)
		b.Flow("split", id)
		b.Flow(id, "join")
	}
	b.Flow("join", "end")
	return b.MustBuild()
}

// Choice generates start -> XOR-split -> n guarded branches -> XOR-join
// -> end. Branch i is taken when case variable "branch" == i; branch 0
// is the default.
func Choice(n int) *Process {
	b := New(fmt.Sprintf("xor-%d", n)).Name(fmt.Sprintf("Choice of %d branches", n))
	b.Start("start").End("end")
	b.XOR("split", Default("db"))
	b.XOR("join")
	b.Flow("start", "split")
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("t%d", i)
		b.ServiceTask(id, NoopHandler)
		b.FlowIf("split", id, fmt.Sprintf("coalesce(branch, 0) == %d", i))
		b.Flow(id, "join")
	}
	b.ServiceTask("t0", NoopHandler)
	b.FlowID("db", "split", "t0", "")
	b.Flow("t0", "join")
	b.Flow("join", "end")
	return b.MustBuild()
}

// Loop generates a cycle executed while "count < limit": the body task
// increments "count" on each pass. Cases should start with count = 0
// and limit set to the desired iteration count.
func Loop() *Process {
	b := New("loop").Name("Counting loop")
	b.Start("start").End("end")
	b.ScriptTask("body", Output("count", "coalesce(count, 0) + 1"))
	b.XOR("check", Default("exit"))
	b.Flow("start", "body")
	b.Flow("body", "check")
	b.FlowIf("check", "body", "count < coalesce(limit, 3)")
	b.FlowID("exit", "check", "end", "")
	return b.MustBuild()
}

// Mixed generates a process combining sequence, parallel split/join,
// exclusive choice, and a script task — the "realistic mix" topology
// used by throughput experiments.
func Mixed() *Process {
	b := New("mixed").Name("Mixed topology")
	b.Start("start")
	b.ServiceTask("validate", NoopHandler)
	b.AND("fork").AND("sync")
	b.ServiceTask("credit", NoopHandler)
	b.ServiceTask("stock", NoopHandler)
	b.ScriptTask("price", Output("total", "coalesce(amount, 100) * 2"))
	b.XOR("decide", Default("reject"))
	b.ServiceTask("approve", NoopHandler)
	b.ServiceTask("deny", NoopHandler)
	b.XOR("merge")
	b.End("end")
	b.Seq("start", "validate", "fork")
	b.Flow("fork", "credit")
	b.Flow("fork", "stock")
	b.Flow("credit", "price")
	b.Flow("price", "sync")
	b.Flow("stock", "sync")
	b.Flow("sync", "decide")
	b.FlowIf("decide", "approve", "total >= 100")
	b.FlowID("reject", "decide", "deny", "")
	b.Flow("approve", "merge")
	b.Flow("deny", "merge")
	b.Flow("merge", "end")
	return b.MustBuild()
}

// RandomStructured generates a block-structured (hence sound) process
// with approximately targetTasks tasks, using seq/par/xor blocks chosen
// pseudo-randomly from seed. Block structure guarantees soundness, so
// these models are the positive fixtures for verification experiments.
func RandomStructured(seed int64, targetTasks int) *Process {
	r := rand.New(rand.NewSource(seed))
	g := &structGen{b: New(fmt.Sprintf("rand-%d-%d", seed, targetTasks)), r: r}
	g.b.Start("start").End("end")
	entry, exit := g.block(targetTasks)
	g.b.Flow("start", entry)
	g.b.Flow(exit, "end")
	return g.b.MustBuild()
}

type structGen struct {
	b    *Builder
	r    *rand.Rand
	next int
}

func (g *structGen) id(prefix string) string {
	g.next++
	return fmt.Sprintf("%s%d", prefix, g.next)
}

// block emits a block of roughly size tasks; returns (entry, exit) IDs.
func (g *structGen) block(size int) (string, string) {
	if size <= 1 {
		id := g.id("t")
		g.b.ServiceTask(id, NoopHandler)
		return id, id
	}
	switch g.r.Intn(3) {
	case 0: // sequence of two sub-blocks
		l := 1 + g.r.Intn(size-1)
		e1, x1 := g.block(l)
		e2, x2 := g.block(size - l)
		g.b.Flow(x1, e2)
		return e1, x2
	case 1: // parallel block
		branches := 2 + g.r.Intn(2)
		split, join := g.id("and"), g.id("and")
		g.b.AND(split)
		g.b.AND(join)
		per := size / branches
		if per < 1 {
			per = 1
		}
		for i := 0; i < branches; i++ {
			e, x := g.block(per)
			g.b.Flow(split, e)
			g.b.Flow(x, join)
		}
		return split, join
	default: // exclusive choice block
		branches := 2 + g.r.Intn(2)
		split, join := g.id("xor"), g.id("xor")
		join = "j" + join
		defFlow := g.id("df")
		g.b.XOR(split, Default(defFlow))
		g.b.XOR(join)
		per := size / branches
		if per < 1 {
			per = 1
		}
		for i := 0; i < branches; i++ {
			e, x := g.block(per)
			if i == 0 {
				g.b.FlowID(defFlow, split, e, "")
			} else {
				g.b.FlowIf(split, e, fmt.Sprintf("coalesce(rnd, 0) %% %d == %d", branches, i))
			}
			g.b.Flow(x, join)
		}
		return split, join
	}
}

// WithDeadlock generates an unsound process: an exclusive split feeds a
// parallel join, so the join waits forever for its second token. The
// definition passes structural validation (the flaw is behavioural) and
// is the negative fixture for soundness experiments.
func WithDeadlock(n int) *Process {
	b := New(fmt.Sprintf("deadlock-%d", n))
	b.Start("start").End("end")
	b.XOR("split", Default("d0"))
	b.AND("join") // BUG under test: XOR split paired with AND join
	b.Flow("start", "split")
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%d", i)
		b.ServiceTask(id, NoopHandler)
		if i == 0 {
			b.FlowID("d0", "split", id, "")
		} else {
			b.FlowIf("split", id, fmt.Sprintf("coalesce(branch,0) == %d", i))
		}
		b.Flow(id, "join")
	}
	b.Flow("join", "end")
	return b.MustBuild()
}

// WithLackOfSync generates an unsound process: a parallel split feeds
// an exclusive join, so the end event fires once per branch (no proper
// completion). Negative fixture for soundness experiments.
func WithLackOfSync(n int) *Process {
	b := New(fmt.Sprintf("lacksync-%d", n))
	b.Start("start").End("end")
	b.AND("split")
	b.XOR("join") // BUG under test: AND split paired with XOR join
	b.Flow("start", "split")
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%d", i)
		b.ServiceTask(id, NoopHandler)
		b.Flow("split", id)
		b.Flow(id, "join")
	}
	b.Flow("join", "end")
	return b.MustBuild()
}
