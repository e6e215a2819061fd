package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bpms/internal/history"
	"bpms/internal/history/historytest"
	"bpms/internal/model"
	"bpms/internal/resource"
)

// singleTask is the M/M/c fixture: one user task served by a role.
func singleTask() *model.Process {
	return model.New("mm1").
		Start("s").
		UserTask("serve", model.Role("agent")).
		End("e").
		Seq("s", "serve", "e").
		MustBuild()
}

func TestDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dists := map[string]Dist{
		"fixed":     Fixed(time.Minute),
		"exp":       Exp(time.Minute),
		"uniform":   Uniform{Lo: 30 * time.Second, Hi: 90 * time.Second},
		"normal":    Normal{Mu: time.Minute, Sigma: 10 * time.Second},
		"lognormal": Lognormal{M: time.Minute, Shape: 0.5},
	}
	for name, d := range dists {
		var sum time.Duration
		const n = 20000
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			if x < 0 {
				t.Fatalf("%s sampled negative duration", name)
			}
			sum += x
		}
		mean := float64(sum) / n
		want := float64(d.Mean())
		if math.Abs(mean-want)/want > 0.1 {
			t.Errorf("%s: empirical mean %.3gs, want ~%.3gs", name, mean/1e9, want/1e9)
		}
	}
	// Degenerate uniform.
	u := Uniform{Lo: time.Minute, Hi: time.Minute}
	if u.Sample(r) != time.Minute {
		t.Error("degenerate uniform wrong")
	}
}

func TestSimulationCompletesAllCases(t *testing.T) {
	res, err := Run(Config{
		Process:        singleTask(),
		Cases:          200,
		Interarrival:   Exp(2 * time.Minute),
		DefaultService: Exp(time.Minute),
		Resources:      map[string][]string{"agent": {"w1", "w2"}},
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Started != 200 || res.Completed != 200 || res.Faulted != 0 {
		t.Fatalf("started=%d completed=%d faulted=%d", res.Started, res.Completed, res.Faulted)
	}
	if res.CycleTime.Count() != 200 {
		t.Errorf("cycle samples = %d", res.CycleTime.Count())
	}
	if res.Log == nil || len(res.Log.Traces) != 200 {
		t.Errorf("log traces = %d", len(res.Log.Traces))
	}
	// Utilisation: λ=0.5/min, μ=1/min, c=2 → ρ≈0.25 per server.
	u := res.Utilization("w1") + res.Utilization("w2")
	if u <= 0.1 || u >= 1.2 {
		t.Errorf("total utilisation = %.3f, expected ~0.5", u)
	}
	checkGolden(t, res, golden{
		started: 200, completed: 200, makespan: 24988.519342305,
		busy:   map[string]float64{"w1": 8796.870854280993, "w2": 3766.954971567999},
		cycle:  [2]float64{50.833952721, 155.900458634},
		wait:   [2]float64{0, 0},
		traces: 200, entries: 200, events: 2401,
	})
}

// golden is a simulation's result for a fixed seed, as the simulator
// wired by hand (before it ran on core) produced it.
type golden struct {
	started, completed, faulted int
	makespan                    float64
	busy                        map[string]float64
	cycle, wait                 [2]float64 // p50, p90 in seconds
	traces, entries, events     int        // log traces, log entries, audit events
}

func checkGolden(t *testing.T, res *Result, want golden) {
	t.Helper()
	entries := 0
	for _, tr := range res.Log.Traces {
		entries += len(tr.Entries)
	}
	got := golden{
		started: res.Started, completed: res.Completed, faulted: res.Faulted,
		makespan: res.Makespan, busy: res.Busy,
		cycle:  [2]float64{res.CycleTime.Percentile(0.5), res.CycleTime.Percentile(0.9)},
		wait:   [2]float64{res.WaitTime.Percentile(0.5), res.WaitTime.Percentile(0.9)},
		traces: len(res.Log.Traces), entries: entries, events: res.History.Count(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result moved for a fixed seed:\n got %+v\nwant %+v", got, want)
	}
}

func TestSimulationReproducible(t *testing.T) {
	cfg := Config{
		Process:        singleTask(),
		Cases:          100,
		Interarrival:   Exp(time.Minute),
		DefaultService: Exp(time.Minute),
		Resources:      map[string][]string{"agent": {"w1"}},
		Seed:           42,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CycleTime.Percentile(0.5) != r2.CycleTime.Percentile(0.5) {
		t.Errorf("median cycle time differs: %g vs %g",
			r1.CycleTime.Percentile(0.5), r2.CycleTime.Percentile(0.5))
	}
	if r1.Makespan != r2.Makespan {
		t.Errorf("makespan differs: %g vs %g", r1.Makespan, r2.Makespan)
	}
}

func TestQueueingGrowsWithUtilisation(t *testing.T) {
	// Same service capacity, increasing arrival rate: waiting time
	// must grow (the fundamental queueing shape behind experiment F2).
	wait := func(interarrival time.Duration) float64 {
		res, err := Run(Config{
			Process:        singleTask(),
			Cases:          400,
			Interarrival:   Exp(interarrival),
			DefaultService: Exp(time.Minute),
			Resources:      map[string][]string{"agent": {"w1"}},
			Seed:           11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.WaitTime.Percentile(0.5)
	}
	low := wait(4 * time.Minute)   // ρ = 0.25
	high := wait(70 * time.Second) // ρ ≈ 0.86
	if high <= low {
		t.Errorf("median wait at high load (%.1fs) should exceed low load (%.1fs)", high, low)
	}
}

func TestPolicyComparison(t *testing.T) {
	// Shortest-queue must beat random on mean wait under load with
	// heterogeneous queues.
	run := func(p resource.Policy, seed int64, want golden) float64 {
		res, err := Run(Config{
			Process:        singleTask(),
			Cases:          500,
			Interarrival:   Exp(25 * time.Second),
			DefaultService: Exp(80 * time.Second),
			Resources:      map[string][]string{"agent": {"w1", "w2", "w3", "w4"}},
			Policy:         p,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, want)
		return res.WaitTime.Percentile(0.9)
	}
	sq := run(resource.ShortestQueuePolicy{}, 3, golden{
		started: 500, completed: 500, makespan: 13567.879357438,
		busy: map[string]float64{"w1": 11661.244886294005, "w2": 11392.888495285004,
			"w3": 10248.778465409001, "w4": 8631.377066909003},
		cycle:  [2]float64{112.784132273, 322.05041909},
		wait:   [2]float64{6.495883659, 196.871376822},
		traces: 500, entries: 500, events: 6001,
	})
	rnd := run(resource.NewRandomPolicy(99), 3, golden{
		started: 500, completed: 500, makespan: 14463.925242225,
		busy: map[string]float64{"w1": 9600.102530148999, "w2": 9546.933449385999,
			"w3": 12859.651172901002, "w4": 9927.601761461005},
		cycle:  [2]float64{202.714090734, 626.455439137},
		wait:   [2]float64{120.915123175, 563.982549122},
		traces: 500, entries: 500, events: 6001,
	})
	if sq > rnd {
		t.Errorf("p90 wait: shortest-queue %.1fs should not exceed random %.1fs", sq, rnd)
	}
}

func TestSimulationWithBranchingAndTimers(t *testing.T) {
	p := model.New("branchy").
		Start("s").
		XOR("route", model.Default("slow")).
		UserTask("fast", model.Role("agent")).
		TimerCatch("cooldown", "10m").
		UserTask("slowTask", model.Role("agent")).
		XOR("merge").
		End("e").
		Flow("s", "route").
		FlowIf("route", "fast", "vip == true").
		FlowID("slow", "route", "cooldown", "").
		Flow("cooldown", "slowTask").
		Flow("fast", "merge").
		Flow("slowTask", "merge").
		Flow("merge", "e").
		MustBuild()
	res, err := Run(Config{
		Process:        p,
		Cases:          100,
		Interarrival:   Exp(time.Minute),
		DefaultService: Fixed(30 * time.Second),
		Resources:      map[string][]string{"agent": {"w1", "w2"}},
		Vars: func(i int, r *rand.Rand) map[string]any {
			return map[string]any{"vip": r.Intn(2) == 0}
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed = %d (faulted %d)", res.Completed, res.Faulted)
	}
	// Non-VIP cases pay the 10m cooldown: the p90 must reflect it.
	if res.CycleTime.Percentile(0.9) < 600 {
		t.Errorf("p90 cycle %.0fs should include the 10m timer", res.CycleTime.Percentile(0.9))
	}
	// Both variants appear in the log.
	vs := res.Log.Variants()
	if len(vs) < 2 {
		t.Errorf("variants = %d, want >= 2", len(vs))
	}
}

func TestSimulationConfigDefaults(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("missing process should fail")
	}
	// Minimal config with defaults applied.
	res, err := Run(Config{
		Process:   singleTask(),
		Cases:     10,
		Resources: map[string][]string{"agent": {"w1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Errorf("completed = %d", res.Completed)
	}
}

// TestInjectedRandDeterminism: two runs over identically seeded
// injected sources produce identical results (the run never touches
// the global math/rand stream, so concurrent simulations with their
// own sources stay deterministic).
func TestInjectedRandDeterminism(t *testing.T) {
	run := func() *Result {
		proc := model.New("inj").
			Start("s").UserTask("work", model.Role("r")).End("e").
			Seq("s", "work", "e").MustBuild()
		res, err := Run(Config{
			Process:        proc,
			Cases:          40,
			Interarrival:   Exp(time.Minute),
			DefaultService: Exp(5 * time.Minute),
			Resources:      map[string][]string{"r": {"w1", "w2"}},
			Rand:           rand.New(rand.NewSource(1234)),
			Vars: func(i int, r *rand.Rand) map[string]any {
				return map[string]any{"x": r.Intn(100)}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Makespan != b.Makespan {
		t.Fatalf("runs diverged: %d/%f vs %d/%f", a.Completed, a.Makespan, b.Completed, b.Makespan)
	}
	if a.CycleTime.Percentile(0.5) != b.CycleTime.Percentile(0.5) {
		t.Fatalf("median cycle time diverged")
	}
}

// TestSimulationReportsLateWork: a simulated task that misses its
// deadline is reported as on a server, once per work item.
func TestSimulationReportsLateWork(t *testing.T) {
	p := model.New("late").
		Start("s").
		UserTask("inspect", model.Role("agent"), model.DueIn("1m")).
		End("e").
		Seq("s", "inspect", "e").
		MustBuild()
	res, err := Run(Config{
		Process:        p,
		Cases:          20,
		Interarrival:   Fixed(time.Hour),
		DefaultService: Fixed(5 * time.Minute),
		Resources:      map[string][]string{"agent": {"w1"}},
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if n := historytest.CountType(t, res.History, history.SLAViolation); n != 20 {
		t.Errorf("sla.violation events = %d, want 20", n)
	}
}

// TestSimulationUserInSeveralRoles: a worker listed under two roles
// serves both.
func TestSimulationUserInSeveralRoles(t *testing.T) {
	p := model.New("two-roles").
		Start("s").
		UserTask("enter", model.Role("clerk")).
		UserTask("check", model.Role("auditor")).
		End("e").
		Seq("s", "enter", "check", "e").
		MustBuild()
	res, err := Run(Config{
		Process:   p,
		Cases:     10,
		Resources: map[string][]string{"clerk": {"w1"}, "auditor": {"w1"}},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("completed = %d, want 10", res.Completed)
	}
}
