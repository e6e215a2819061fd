package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// Config describes one simulation run.
type Config struct {
	// Process is the definition under simulation.
	Process *model.Process
	// Extra definitions (call-activity targets) deployed alongside.
	Extra []*model.Process
	// Cases is the number of case arrivals to simulate.
	Cases int
	// Interarrival is the arrival process (default Exp(1m)).
	Interarrival Dist
	// ServiceTime samples user/manual task durations, by element ID;
	// DefaultService covers the rest (default Exp(5m)).
	ServiceTime    map[string]Dist
	DefaultService Dist
	// Resources declares the simulated workers per role.
	Resources map[string][]string // role -> user IDs
	// Policy allocates role-routed work (default shortest-queue).
	Policy resource.Policy
	// Vars samples the initial case variables (may be nil).
	Vars func(caseIdx int, r *rand.Rand) map[string]any
	// Seed makes the run reproducible.
	Seed int64
	// Rand, when set, is the injected random source for the run
	// (overrides Seed). Every simulation owns its source — nothing
	// draws from the global math/rand stream — so concurrent
	// simulations (one per shard, say) stay deterministic and
	// race-free as long as each gets its own *rand.Rand.
	Rand *rand.Rand
	// Start is the virtual wall-clock origin.
	Start time.Time
	// Handlers are extra service-task handlers (noop is built in).
	Handlers map[string]engine.Handler
	// Horizon caps simulated time as a safety valve (default 10y).
	Horizon time.Duration
}

// Result aggregates a simulation run.
type Result struct {
	// Started and Completed count case arrivals and case completions.
	Started, Completed, Faulted int
	// CycleTime is case duration (arrival to completion), seconds.
	CycleTime *Reservoir
	// WaitTime is work-item queueing delay (creation to service
	// start), seconds.
	WaitTime *Reservoir
	// ServiceTime is sampled work durations, seconds.
	ServiceTime *Reservoir
	// Busy accumulates per-resource busy seconds (utilisation =
	// busy / makespan).
	Busy map[string]float64
	// Makespan is the total simulated duration in seconds.
	Makespan float64
	// Log is the generated event log (for mining experiments).
	Log *history.Log
	// History exposes the raw audit store. Run closes the system; the
	// store keeps every event resident, so its queries still answer.
	History *history.Store
}

// event is one scheduled simulator action.
type event struct {
	at  time.Time
	seq int
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(a, b int) bool {
	if !q[a].at.Equal(q[b].at) {
		return q[a].at.Before(q[b].at)
	}
	return q[a].seq < q[b].seq
}
func (q eventQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// Simulator executes a Config against the server's own wiring: a
// core.BPMS in memory, on a virtual clock, with no timer runner.
type Simulator struct {
	cfg   Config
	rng   *rand.Rand
	clock *timer.VirtualClock
	b     *core.BPMS

	q         eventQueue
	seq       int
	busyUntil map[string]time.Time
	res       *Result
}

// New builds a simulator; Run executes it.
func New(cfg Config) (*Simulator, error) {
	if cfg.Process == nil {
		return nil, fmt.Errorf("sim: no process")
	}
	if cfg.Cases <= 0 {
		cfg.Cases = 100
	}
	if cfg.Interarrival == nil {
		cfg.Interarrival = Exp(time.Minute)
	}
	if cfg.DefaultService == nil {
		cfg.DefaultService = Exp(5 * time.Minute)
	}
	if cfg.Policy == nil {
		cfg.Policy = resource.ShortestQueuePolicy{}
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * 365 * 24 * time.Hour
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	s := &Simulator{
		cfg:       cfg,
		rng:       rng,
		clock:     timer.NewVirtualClock(cfg.Start),
		busyUntil: map[string]time.Time{},
	}
	b, err := core.Open(core.Options{
		Clock:        s.clock,
		TimerTick:    time.Second,
		Users:        users(cfg.Resources),
		Policy:       cfg.Policy,
		AutoAllocate: true,
	})
	if err != nil {
		return nil, err
	}
	s.b = b
	b.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	for name, h := range cfg.Handlers {
		b.Engine.RegisterHandler(name, h)
	}
	for _, p := range append([]*model.Process{cfg.Process}, cfg.Extra...) {
		if err := b.Deploy(p); err != nil {
			b.Close()
			return nil, err
		}
	}
	s.res = &Result{
		CycleTime:   NewReservoir(0, cfg.Seed+1),
		WaitTime:    NewReservoir(0, cfg.Seed+2),
		ServiceTime: NewReservoir(0, cfg.Seed+3),
		Busy:        map[string]float64{},
	}
	// Simulated workers: whenever an item lands on someone's queue,
	// schedule its service.
	b.Tasks.Subscribe(func(it *task.Item, from, to task.State) {
		if to == task.Allocated && from != task.Allocated {
			s.scheduleService(it)
		}
	})
	return s, nil
}

// users lists the simulated workers in role order, one entry per user
// with every role it is listed under.
func users(resources map[string][]string) []resource.User {
	roles := make([]string, 0, len(resources))
	for role := range resources {
		roles = append(roles, role)
	}
	sort.Strings(roles)
	var out []resource.User
	at := map[string]int{}
	for _, role := range roles {
		for _, u := range resources[role] {
			if i, ok := at[u]; ok {
				out[i].Roles = append(out[i].Roles, role)
				continue
			}
			at[u] = len(out)
			out = append(out, resource.User{ID: u, Roles: []string{role}})
		}
	}
	return out
}

func (s *Simulator) schedule(at time.Time, fn func()) {
	s.seq++
	heap.Push(&s.q, &event{at: at, seq: s.seq, fn: fn})
}

// scheduleService plays the simulated worker: start the item when the
// resource frees up, complete it a sampled service time later.
func (s *Simulator) scheduleService(it *task.Item) {
	user := it.Assignee
	now := s.clock.Now()
	dist := s.cfg.DefaultService
	if d, ok := s.cfg.ServiceTime[it.ElementID]; ok {
		dist = d
	}
	service := dist.Sample(s.rng)
	startAt := now
	if bu, ok := s.busyUntil[user]; ok && bu.After(startAt) {
		startAt = bu
	}
	finishAt := startAt.Add(service)
	s.busyUntil[user] = finishAt
	s.res.Busy[user] += service.Seconds()
	s.res.WaitTime.AddDuration(startAt.Sub(it.CreatedAt))
	s.res.ServiceTime.AddDuration(service)
	itemID := it.ID
	s.schedule(startAt, func() {
		_, _ = s.b.Tasks.Start(itemID, user)
	})
	s.schedule(finishAt, func() {
		_, _ = s.b.Tasks.Complete(itemID, user, nil)
	})
}

// Run executes the simulation to completion and returns the results.
func (s *Simulator) Run() (*Result, error) {
	// Schedule all arrivals up front.
	at := s.cfg.Start
	caseStart := map[string]time.Time{}
	for i := 0; i < s.cfg.Cases; i++ {
		at = at.Add(s.cfg.Interarrival.Sample(s.rng))
		arriveAt := at
		idx := i
		s.schedule(arriveAt, func() {
			var vars map[string]any
			if s.cfg.Vars != nil {
				vars = s.cfg.Vars(idx, s.rng)
			}
			v, err := s.b.Engine.StartInstance(s.cfg.Process.ID, vars)
			if err != nil {
				return
			}
			s.res.Started++
			caseStart[v.ID] = arriveAt
		})
	}
	deadline := s.cfg.Start.Add(s.cfg.Horizon)
	for s.q.Len() > 0 {
		ev := heap.Pop(&s.q).(*event)
		if ev.at.After(deadline) {
			break
		}
		s.clock.Set(ev.at)
		// Fire engine timers due up to this moment first.
		s.b.Timers.AdvanceTo(ev.at)
		ev.fn()
	}
	// Drain any remaining engine timers (timer catch events with no
	// queued worker events behind them).
	for guard := 0; guard < 1000; guard++ {
		end := s.clock.Now().Add(time.Hour)
		if s.b.Timers.AdvanceTo(end) == 0 && s.q.Len() == 0 {
			break
		}
		s.clock.Set(end)
		for s.q.Len() > 0 {
			ev := heap.Pop(&s.q).(*event)
			s.clock.Set(ev.at)
			s.b.Timers.AdvanceTo(ev.at)
			ev.fn()
		}
	}

	var lastEnd time.Time
	for _, id := range s.b.Engine.Instances() {
		v, err := s.b.Engine.Instance(id)
		if err != nil {
			continue
		}
		switch v.Status {
		case engine.StatusCompleted:
			s.res.Completed++
			start, ok := caseStart[id]
			if !ok {
				start = v.StartedAt
			}
			s.res.CycleTime.AddDuration(v.EndedAt.Sub(start))
			if v.EndedAt.After(lastEnd) {
				lastEnd = v.EndedAt
			}
		case engine.StatusFaulted:
			s.res.Faulted++
		}
	}
	if lastEnd.IsZero() {
		lastEnd = s.clock.Now()
	}
	s.res.Makespan = lastEnd.Sub(s.cfg.Start).Seconds()
	s.res.Log = s.b.Log()
	s.res.History = s.b.History
	if err := s.b.Close(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// Run is a convenience building and running a simulator in one call.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Utilization returns busy-time / makespan for a resource.
func (r *Result) Utilization(user string) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.Busy[user] / r.Makespan
}
