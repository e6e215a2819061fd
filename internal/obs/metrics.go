package obs

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Metric family names exported at /metrics. Kept in one place so the
// tests, the load-smoke gate, and the README stay in sync.
const (
	MetricEngineStart      = "bpms_engine_start_seconds"
	MetricEngineTransition = "bpms_engine_transition_seconds"
	MetricWALAppend        = "bpms_wal_append_seconds"
	MetricWALFsync         = "bpms_wal_fsync_seconds"
	MetricHistoryCommit    = "bpms_history_commit_seconds"
	MetricHistoryQueue     = "bpms_history_queue_depth"
	MetricHistoryFallback  = "bpms_history_decode_fallback_total"
	MetricRecovery         = "bpms_recovery_seconds"
	MetricTaskOp           = "bpms_task_op_seconds"
	MetricTaskItems        = "bpms_task_items"
	MetricTimerFireLag     = "bpms_timer_fire_lag_seconds"
	MetricTimerPending     = "bpms_timer_pending"
	MetricHTTPRequests     = "bpms_http_requests_total"
	MetricHTTPSeconds      = "bpms_http_request_seconds"
	MetricShardInstances   = "bpms_shard_instances"
	MetricShardDegraded    = "bpms_shard_degraded"
	MetricAuditSweeps      = "bpms_audit_sweeps_total"
	MetricAuditViolations  = "bpms_audit_violations_total"
	MetricAuditActive      = "bpms_audit_active_violations"
	MetricAuditSweepTime   = "bpms_audit_sweep_seconds"
	MetricRulesEval        = "bpms_rules_eval_seconds"
	MetricRulesDecisions   = "bpms_rules_decisions_total"
	MetricUptime           = "bpms_uptime_seconds"
	MetricStartTime        = "bpms_process_start_time_seconds"
)

// RulesBuckets are the latency bounds for decision-table evaluation:
// an indexed probe lands around a microsecond, a 10k-rule linear scan
// in the milliseconds, so the default 50µs floor would flatten the
// distribution this histogram exists to show.
var RulesBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 50e-3, 250e-3, 1,
}

// Metrics owns the registry and hands out pre-resolved instrument
// handles to the subsystems. A nil *Metrics is the disabled form:
// every accessor returns zero-value handle bundles whose nil
// instruments make each observation site a single branch.
type Metrics struct {
	registry *Registry
	start    time.Time
}

// New builds a registry pre-declaring the process-level families and
// the uptime sampler.
func New() *Metrics {
	m := &Metrics{registry: NewRegistry(), start: time.Now()}
	up := m.registry.Gauge(MetricUptime, "Seconds since the process started.")
	st := m.registry.Gauge(MetricStartTime, "Unix time the process started.")
	st.Set(m.start.Unix())
	m.registry.AddSampler(func() { up.Set(int64(time.Since(m.start).Seconds())) })
	return m
}

// Registry exposes the underlying registry (nil on disabled Metrics).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.registry
}

// StartTime is when New was called (process start for bpmsd).
func (m *Metrics) StartTime() time.Time {
	if m == nil {
		return time.Time{}
	}
	return m.start
}

// AddSampler forwards to the registry (no-op when disabled).
func (m *Metrics) AddSampler(fn func()) {
	if m != nil {
		m.registry.AddSampler(fn)
	}
}

// EngineMetrics instruments one engine shard's enactment hot paths.
type EngineMetrics struct {
	// Start observes StartInstance latency (instance creation through
	// the first quiescent state, including the WAL write).
	Start *Histogram
	// Transition observes externally driven instance transitions
	// (task completion resume, message delivery, variable set, cancel).
	Transition *Histogram
}

// EngineShard returns the handles for shard i.
func (m *Metrics) EngineShard(i int) EngineMetrics {
	if m == nil {
		return EngineMetrics{}
	}
	shard := strconv.Itoa(i)
	return EngineMetrics{
		Start: m.registry.Histogram(MetricEngineStart,
			"StartInstance latency by engine shard.", nil, "shard", shard),
		Transition: m.registry.Histogram(MetricEngineTransition,
			"Instance transition latency by engine shard.", nil, "shard", shard),
	}
}

// WALMetrics instruments one journal's append and fsync paths.
type WALMetrics struct {
	// Append observes the full append call, including any group-commit
	// durability wait for AppendDurable.
	Append *Histogram
	// Fsync observes each physical file sync.
	Fsync *Histogram
}

// WAL returns the handles for the named journal (state-0, history-1, …).
func (m *Metrics) WAL(name string) WALMetrics {
	if m == nil {
		return WALMetrics{}
	}
	return WALMetrics{
		Append: m.registry.Histogram(MetricWALAppend,
			"WAL append latency by journal (includes durability wait).", nil, "wal", name),
		Fsync: m.registry.Histogram(MetricWALFsync,
			"WAL fsync latency by journal.", nil, "wal", name),
	}
}

// HistoryStripeMetrics instruments one history pipeline stripe.
type HistoryStripeMetrics struct {
	// Commit observes enqueue-to-commit latency: the time an audit
	// event spends in the stripe queue plus encode+append.
	Commit *Histogram
	// Depth tracks the stripe queue depth (enqueued, not yet
	// committed).
	Depth *Gauge
	// Fallback counts journal records a replay (boot, or a query below
	// the resident window) decoded through encoding/json because they
	// were not in the encoder's canonical layout.
	Fallback *Counter
}

// HistoryStripe returns the handles for stripe i.
func (m *Metrics) HistoryStripe(i int) HistoryStripeMetrics {
	if m == nil {
		return HistoryStripeMetrics{}
	}
	stripe := strconv.Itoa(i)
	return HistoryStripeMetrics{
		Commit: m.registry.Histogram(MetricHistoryCommit,
			"History event enqueue-to-commit latency by stripe.", nil, "stripe", stripe),
		Depth: m.registry.Gauge(MetricHistoryQueue,
			"History pipeline queue depth by stripe.", "stripe", stripe),
		Fallback: m.registry.Counter(MetricHistoryFallback,
			"History journal records decoded by the encoding/json fallback, by stripe.", "stripe", stripe),
	}
}

// Recovery returns the gauge holding how long one phase of the boot
// recovery took ("history": audit journal replay; "engine": snapshot
// load, state journal replay and re-arming, all shards).
func (m *Metrics) Recovery(phase string) *Gauge {
	if m == nil {
		return nil
	}
	return m.registry.Gauge(MetricRecovery,
		"Boot recovery time by phase, in seconds.", "phase", phase)
}

// TaskMetrics instruments the worklist service.
type TaskMetrics struct {
	// Op returns the latency histogram for one worklist operation
	// (create, claim, start, complete, …). Resolved once per verb at
	// wiring time by the service.
	Op func(op string) *Histogram
	// Items returns the gauge for one work-item state; refreshed by a
	// scrape sampler, not on the hot path.
	Items func(state string) *Gauge
}

// Tasks returns the worklist handle factory.
func (m *Metrics) Tasks() TaskMetrics {
	if m == nil {
		return TaskMetrics{}
	}
	return TaskMetrics{
		Op: func(op string) *Histogram {
			return m.registry.Histogram(MetricTaskOp,
				"Worklist operation latency by operation.", nil, "op", op)
		},
		Items: func(state string) *Gauge {
			return m.registry.Gauge(MetricTaskItems,
				"Work items by state.", "state", state)
		},
	}
}

// RulesMetrics instruments decision-table evaluation.
type RulesMetrics struct {
	// Eval observes each table evaluation (per env for EvalBatch).
	Eval *Histogram
	// Decisions returns the per-table outcome counter; result is
	// "match", "no_match" (ErrNoMatch), or "error" (any other
	// evaluation failure). Resolved once per table at wiring time.
	Decisions func(table, result string) *Counter
}

// Rules returns the decision-table handles.
func (m *Metrics) Rules() RulesMetrics {
	if m == nil {
		return RulesMetrics{}
	}
	return RulesMetrics{
		Eval: m.registry.Histogram(MetricRulesEval,
			"Decision-table evaluation latency.", RulesBuckets),
		Decisions: func(table, result string) *Counter {
			return m.registry.Counter(MetricRulesDecisions,
				"Decision-table evaluations by table and result.",
				"table", table, "result", result)
		},
	}
}

// TimerMetrics instruments the deadline service.
type TimerMetrics struct {
	// FireLag observes fire-time minus deadline for every fired timer.
	FireLag *Histogram
	// Pending tracks scheduled-but-unfired timers (scrape sampler).
	Pending *Gauge
}

// Timers returns the deadline-service handles.
func (m *Metrics) Timers() TimerMetrics {
	if m == nil {
		return TimerMetrics{}
	}
	return TimerMetrics{
		FireLag: m.registry.Histogram(MetricTimerFireLag,
			"Timer fire lag: fire time minus scheduled deadline.", nil),
		Pending: m.registry.Gauge(MetricTimerPending,
			"Scheduled timers not yet fired."),
	}
}

// ShardInstances returns the per-shard live-instance gauge (refreshed
// by a scrape sampler).
func (m *Metrics) ShardInstances(i int) *Gauge {
	if m == nil {
		return nil
	}
	return m.registry.Gauge(MetricShardInstances,
		"Live process instances by engine shard.", "shard", strconv.Itoa(i))
}

// ShardDegraded returns the per-shard fail-stop gauge (1 when the
// shard has frozen into read-only degraded mode, 0 while healthy;
// refreshed by a scrape sampler).
func (m *Metrics) ShardDegraded(i int) *Gauge {
	if m == nil {
		return nil
	}
	return m.registry.Gauge(MetricShardDegraded,
		"Shard fail-stop state: 1 = degraded (read-only), 0 = healthy.", "shard", strconv.Itoa(i))
}

// AuditMetrics instruments the SLA-audit sweeper.
type AuditMetrics struct {
	// Sweeps counts completed audit sweeps.
	Sweeps *Counter
	// SweepSeconds observes sweep duration.
	SweepSeconds *Histogram
	// Violations returns the counter for newly detected violations of
	// one kind; Active the gauge of currently active violations.
	Violations func(kind string) *Counter
	Active     func(kind string) *Gauge
}

// Audit returns the sweeper handles.
func (m *Metrics) Audit() AuditMetrics {
	if m == nil {
		return AuditMetrics{}
	}
	return AuditMetrics{
		Sweeps: m.registry.Counter(MetricAuditSweeps,
			"Completed SLA-audit sweeps."),
		SweepSeconds: m.registry.Histogram(MetricAuditSweepTime,
			"SLA-audit sweep duration.", nil),
		Violations: func(kind string) *Counter {
			return m.registry.Counter(MetricAuditViolations,
				"SLA violations detected, by kind (counted once per violation).", "kind", kind)
		},
		Active: func(kind string) *Gauge {
			return m.registry.Gauge(MetricAuditActive,
				"Currently active SLA violations by kind.", "kind", kind)
		},
	}
}

// HTTPRouteMetrics instruments one registered HTTP route. The
// latency histogram is resolved at registration; status-code request
// counters are resolved lazily on first use of each code and cached.
type HTTPRouteMetrics struct {
	m       *Metrics
	route   string
	Seconds *Histogram
	codes   sync.Map // int status -> *Counter
}

// HTTPRoute returns (nil when disabled) the handles for one route
// pattern, e.g. "GET /api/v1/instances".
func (m *Metrics) HTTPRoute(route string) *HTTPRouteMetrics {
	if m == nil {
		return nil
	}
	return &HTTPRouteMetrics{
		m:     m,
		route: route,
		Seconds: m.registry.Histogram(MetricHTTPSeconds,
			"HTTP request latency by route.", nil, "route", route),
	}
}

// Done records one finished request with its status code.
func (h *HTTPRouteMetrics) Done(code int, d time.Duration) {
	if h == nil {
		return
	}
	h.Seconds.Observe(d)
	if c, ok := h.codes.Load(code); ok {
		c.(*Counter).Inc()
		return
	}
	c := h.m.registry.Counter(MetricHTTPRequests,
		"HTTP requests by route and status code.",
		"route", h.route, "code", strconv.Itoa(code))
	actual, _ := h.codes.LoadOrStore(code, c)
	actual.(*Counter).Inc()
}

// Handler returns the /metrics scrape handler.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if m == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.registry.WritePrometheus(w)
	})
}
