// Package bpms is a complete, embeddable Business Process Management
// System in pure Go (standard library only): a BPMN-subset process
// modelling language, a formally verifiable workflow engine with
// human-task management and message correlation, durable event-sourced
// persistence, a discrete-event simulator, and process mining — the
// full component stack of the classic BPMS reference architecture.
//
// Quick start:
//
//	sys, _ := bpms.Open(bpms.Options{})
//	defer sys.Close()
//	sys.AddUser("alice", "approver")
//
//	proc := bpms.NewProcess("order").
//		Start("received").
//		UserTask("approve", bpms.Role("approver")).
//		End("done").
//		Seq("received", "approve", "done").
//		MustBuild()
//
//	sys.Deploy(proc) // also verifies soundness once
//	inst, _ := sys.Engine.StartInstance("order", map[string]any{"amount": 420})
//
// The sub-systems are exposed as fields of BPMS: Engine (enactment),
// Tasks (worklists), Directory (organisational model), History
// (audit/XES export), Timers (deadlines). Verification, simulation and
// mining live in the Verify, Simulate, and mining helpers below.
package bpms

import (
	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/mine"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/rules"
	"bpms/internal/shard"
	"bpms/internal/sim"
	"bpms/internal/task"
	"bpms/internal/verify"
)

// System assembly.
type (
	// BPMS is the assembled system (engine + worklist + history + timers).
	BPMS = core.BPMS
	// Options configures Open. Options.Shards partitions instances
	// across independent engine shards (see the README's Scaling
	// section); the default is one shard.
	Options = core.Options
	// Router is the sharded enactment runtime behind BPMS.Engine: it
	// presents the single-engine surface while routing each instance
	// to the shard its ID hashes to.
	Router = shard.Router
	// ShardStat reports one shard's load (BPMS.ShardStats).
	ShardStat = core.ShardStat
)

// Open assembles (and, with a DataDir, recovers) a BPMS.
var Open = core.Open

// Process modelling.
type (
	// Process is a process definition.
	Process = model.Process
	// Element is one flow node.
	Element = model.Element
	// Flow is a sequence flow.
	Flow = model.Flow
	// Builder builds process definitions fluently.
	Builder = model.Builder
)

// NewProcess starts a process definition builder.
var NewProcess = model.New

// Builder options re-exported for model construction.
var (
	Name                = model.Name
	Role                = model.Role
	Assignee            = model.Assignee
	Capability          = model.Capability
	Priority            = model.Priority
	DueIn               = model.DueIn
	Output              = model.Output
	Message             = model.Message
	CorrelationKey      = model.CorrelationKey
	DefaultFlow         = model.Default
	Retries             = model.Retries
	MultiParallel       = model.MultiParallel
	MultiSequential     = model.MultiSequential
	CompletionCondition = model.CompletionCondition
)

// Serialisation codecs.
var (
	EncodeJSON = model.EncodeJSON
	DecodeJSON = model.DecodeJSON
	EncodeXML  = model.EncodeXML
	DecodeXML  = model.DecodeXML
)

// Execution.
type (
	// Engine is one enactment shard; BPMS.Engine is a Router over one
	// or more of these.
	Engine = engine.Engine
	// InstanceView is a snapshot of a process instance.
	InstanceView = engine.InstanceView
	// Handler implements a service task.
	Handler = engine.Handler
	// TaskContext is passed to Handlers.
	TaskContext = engine.TaskContext
	// BPMNError is a coded handler error caught by error boundaries.
	BPMNError = engine.BPMNError
)

// Instance statuses.
const (
	StatusActive    = engine.StatusActive
	StatusCompleted = engine.StatusCompleted
	StatusCancelled = engine.StatusCancelled
	StatusFaulted   = engine.StatusFaulted
)

// Expressions and values.
type (
	// Value is a dynamically typed expression value.
	Value = expr.Value
	// Env supplies variable bindings to expressions.
	Env = expr.Env
)

// Value constructors and evaluation helpers.
var (
	Null        = expr.Null
	BoolValue   = expr.Bool
	IntValue    = expr.Int
	FloatValue  = expr.Float
	StringValue = expr.String
	ListValue   = expr.List
	MapValue    = expr.Map
	EvalExpr    = expr.Eval
	CompileExpr = expr.Compile
	// CachedExpr compiles through the bounded shared program cache —
	// the compile-once entry point for ad-hoc expression sources.
	CachedExpr = expr.Cached
)

// Human tasks and resources.
type (
	// WorkItem is a human task on a worklist.
	WorkItem = task.Item
	// WorklistStats reports the task service's shape and load
	// (BPMS.Tasks.Stats).
	WorklistStats = task.Stats
	// User is one organisational resource.
	User = resource.User
	// Policy allocates work to resources.
	Policy = resource.Policy
)

// Verification.
type (
	// VerifyResult reports a soundness check.
	VerifyResult = verify.Result
	// VerifyOptions configures verification.
	VerifyOptions = verify.Options
)

// Verify checks classical soundness of a definition.
func Verify(p *Process) (*VerifyResult, error) {
	return verify.Check(p, verify.DefaultOptions())
}

// VerifyWith checks soundness with explicit options.
var VerifyWith = verify.Check

// Simulation.
type (
	// SimConfig configures a simulation run.
	SimConfig = sim.Config
	// SimResult aggregates a run.
	SimResult = sim.Result
	// Dist samples durations.
	Dist = sim.Dist
)

// Simulate runs a discrete-event simulation of a process on Open's wiring, in virtual time.
var Simulate = sim.Run

// Distributions for simulation workloads.
type (
	FixedDist     = sim.Fixed
	ExpDist       = sim.Exp
	UniformDist   = sim.Uniform
	NormalDist    = sim.Normal
	LognormalDist = sim.Lognormal
)

// Mining and logs.
type (
	// EventLog is the mining log model (one trace per case).
	EventLog = history.Log
	// Trace is one case's event sequence.
	Trace = history.Trace
	// DFG is a directly-follows graph.
	DFG = mine.DFG
)

// Mining entry points.
var (
	BuildDFG    = mine.BuildDFG
	AlphaMiner  = mine.Alpha
	TokenReplay = mine.TokenReplay
	Performance = mine.Performance
	EncodeXES   = history.EncodeXES
	// WriteXES streams a log as XES to an io.Writer, one trace at a
	// time (large exports never materialise in memory).
	WriteXES  = history.WriteXES
	DecodeXES = history.DecodeXES
)

// History store surface (BPMS.History).
type (
	// History is the audit-event store, one journal per shard.
	History = history.Store
	// HistoryStats reports the audit pipeline's shape and load.
	HistoryStats = history.StoreStats
)

// Business rules.
type (
	// DecisionTable is a rules table definition.
	DecisionTable = rules.Table
	// DecisionRule is one table row.
	DecisionRule = rules.Rule
	// CompiledTable is an evaluable decision table. Compilation also
	// builds a column index over the rules whose condition cells
	// decompose into `var == literal` / `var <op> literal` atoms, so
	// Eval on large tables probes candidate rule sets instead of
	// scanning every row; EvalBatch amortizes the probe buffers and
	// the per-call predicate memo across many cases, and EvalLinear
	// exposes the unindexed scan as a baseline and oracle.
	CompiledTable = rules.Compiled
	// TableDecision is the result of evaluating a decision table.
	TableDecision = rules.Decision
)

// Hit policies.
const (
	HitUnique    = rules.Unique
	HitFirst     = rules.First
	HitAny       = rules.Any
	HitPriority  = rules.Priority
	HitCollect   = rules.Collect
	HitRuleOrder = rules.RuleOrder
)

// CompileTable validates and compiles a decision table.
var CompileTable = rules.Compile
