// Package model defines the process definition model of the BPMS: a
// BPMN-subset graph of flow nodes connected by sequence flows, plus a
// fluent builder, JSON and XML codecs, structural validation, and
// parametric process generators used by tests and micro-benchmarks.
//
// A Process is a directed graph. Nodes (Element) are events, tasks,
// gateways, and sub-processes; edges (Flow) are sequence flows that may
// carry a guard expression. The model is purely declarative: execution
// semantics live in internal/engine, and formal verification against
// workflow-net semantics lives in internal/verify.
package model

import (
	"fmt"

	"bpms/internal/expr"
)

// ElementKind enumerates the supported BPMN flow-node types.
type ElementKind int

// Flow-node kinds.
const (
	KindInvalid ElementKind = iota

	// Events.
	KindStartEvent        // none start event
	KindEndEvent          // none end event
	KindTerminateEnd      // terminate end event: cancels the whole instance
	KindTimerCatchEvent   // intermediate timer catch
	KindMessageCatchEvent // intermediate message catch
	KindMessageThrowEvent // intermediate message throw
	KindBoundaryEvent     // boundary event attached to an activity

	// Tasks.
	KindUserTask    // human work item routed via the worklist
	KindServiceTask // automated task bound to a registered handler
	KindScriptTask  // evaluates expression mappings over case data
	KindManualTask  // human task outside system control (auto-complete)
	KindReceiveTask // waits for a message (like message catch)
	KindSendTask    // emits a message (like message throw)

	// Gateways.
	KindExclusiveGateway // XOR split/join
	KindParallelGateway  // AND split/join
	KindInclusiveGateway // OR split/join
	KindEventGateway     // event-based gateway: race between catch events

	// Composition.
	KindSubProcess   // embedded sub-process
	KindCallActivity // invokes another deployed process definition
)

var kindNames = map[ElementKind]string{
	KindStartEvent:        "startEvent",
	KindEndEvent:          "endEvent",
	KindTerminateEnd:      "terminateEndEvent",
	KindTimerCatchEvent:   "timerCatchEvent",
	KindMessageCatchEvent: "messageCatchEvent",
	KindMessageThrowEvent: "messageThrowEvent",
	KindBoundaryEvent:     "boundaryEvent",
	KindUserTask:          "userTask",
	KindServiceTask:       "serviceTask",
	KindScriptTask:        "scriptTask",
	KindManualTask:        "manualTask",
	KindReceiveTask:       "receiveTask",
	KindSendTask:          "sendTask",
	KindExclusiveGateway:  "exclusiveGateway",
	KindParallelGateway:   "parallelGateway",
	KindInclusiveGateway:  "inclusiveGateway",
	KindEventGateway:      "eventBasedGateway",
	KindSubProcess:        "subProcess",
	KindCallActivity:      "callActivity",
}

var kindByName = func() map[string]ElementKind {
	m := make(map[string]ElementKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns the BPMN-style element name (e.g. "exclusiveGateway").
func (k ElementKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("elementKind(%d)", int(k))
}

// KindFromName resolves a BPMN-style element name back to its kind.
func KindFromName(name string) (ElementKind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// IsEvent reports whether the kind is an event node.
func (k ElementKind) IsEvent() bool {
	switch k {
	case KindStartEvent, KindEndEvent, KindTerminateEnd, KindTimerCatchEvent,
		KindMessageCatchEvent, KindMessageThrowEvent, KindBoundaryEvent:
		return true
	}
	return false
}

// IsTask reports whether the kind is a task (atomic activity).
func (k ElementKind) IsTask() bool {
	switch k {
	case KindUserTask, KindServiceTask, KindScriptTask, KindManualTask,
		KindReceiveTask, KindSendTask:
		return true
	}
	return false
}

// IsGateway reports whether the kind is a gateway.
func (k ElementKind) IsGateway() bool {
	switch k {
	case KindExclusiveGateway, KindParallelGateway, KindInclusiveGateway, KindEventGateway:
		return true
	}
	return false
}

// IsActivity reports whether the kind may carry a boundary event and a
// multi-instance marker (tasks, sub-processes, call activities).
func (k ElementKind) IsActivity() bool {
	return k.IsTask() || k == KindSubProcess || k == KindCallActivity
}

// IsWait reports whether a token entering the node parks until an
// external stimulus (human completion, message, timer) rather than
// passing through synchronously.
func (k ElementKind) IsWait() bool {
	switch k {
	case KindUserTask, KindManualTask, KindReceiveTask,
		KindTimerCatchEvent, KindMessageCatchEvent, KindEventGateway:
		return true
	}
	return false
}

// BoundaryKind enumerates what a boundary event reacts to.
type BoundaryKind int

// Boundary event trigger types.
const (
	BoundaryNone    BoundaryKind = iota
	BoundaryTimer                // deadline/escalation timer
	BoundaryError                // error thrown by the activity
	BoundaryMessage              // message arrival
)

// String returns the trigger name.
func (b BoundaryKind) String() string {
	switch b {
	case BoundaryTimer:
		return "timer"
	case BoundaryError:
		return "error"
	case BoundaryMessage:
		return "message"
	default:
		return "none"
	}
}

// MultiInstance configures a multi-instance activity: the activity is
// instantiated once per element of the collection expression.
type MultiInstance struct {
	// Collection is an expression over case data yielding a list.
	Collection string `json:"collection"`
	// ElementVar is the variable name each element is bound to inside
	// the activity instance scope.
	ElementVar string `json:"elementVar"`
	// Parallel selects parallel (true) or sequential (false) execution.
	Parallel bool `json:"parallel"`
	// CompletionCondition, when non-empty, is evaluated after each
	// instance completes; when it yields true the remaining instances
	// are cancelled ("completion condition" in BPMN).
	CompletionCondition string `json:"completionCondition,omitempty"`
}

// Element is one flow node in a process graph.
type Element struct {
	ID   string      `json:"id"`
	Name string      `json:"name,omitempty"`
	Kind ElementKind `json:"kind"`

	// Task configuration.
	Assignee   string            `json:"assignee,omitempty"`   // user task: direct user assignment
	Role       string            `json:"role,omitempty"`       // user task: offer to role members
	Handler    string            `json:"handler,omitempty"`    // service task: registered handler name
	Outputs    map[string]string `json:"outputs,omitempty"`    // script task / mappings: var := expr
	Priority   int               `json:"priority,omitempty"`   // user task: worklist priority
	DueIn      string            `json:"dueIn,omitempty"`      // user task: deadline duration (e.g. "4h")
	Capability string            `json:"capability,omitempty"` // user task: required resource capability

	// Event configuration.
	Timer          string `json:"timer,omitempty"`          // timer events: duration (e.g. "30m")
	Message        string `json:"message,omitempty"`        // message events: message name
	CorrelationKey string `json:"correlationKey,omitempty"` // message events: expression yielding the key
	ErrorCode      string `json:"errorCode,omitempty"`      // error boundary / error end

	// Boundary configuration.
	AttachedTo     string       `json:"attachedTo,omitempty"` // boundary: host activity ID
	Boundary       BoundaryKind `json:"boundary,omitempty"`
	CancelActivity bool         `json:"cancelActivity,omitempty"` // interrupting boundary event

	// Gateway configuration.
	DefaultFlow string `json:"defaultFlow,omitempty"` // XOR/OR: flow taken when no condition holds

	// Composition.
	SubProcess    *Process       `json:"subProcess,omitempty"`    // embedded sub-process body
	CalledProcess string         `json:"calledProcess,omitempty"` // call activity: target definition ID
	Multi         *MultiInstance `json:"multiInstance,omitempty"`

	// Retry policy for service tasks (0 = no retries).
	Retries int `json:"retries,omitempty"`

	// compiled holds the element's deploy-time compiled expression
	// programs (built by Process.Compile; nil until then). Readers go
	// through the accessor methods in compile.go, which fail until then.
	compiled *compiledElement
}

// Flow is a sequence flow (directed edge) between two elements.
type Flow struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	From      string `json:"from"`
	To        string `json:"to"`
	Condition string `json:"condition,omitempty"` // guard expression; empty = unconditional

	// program is the deploy-time compiled Condition (see Element.compiled).
	program *expr.Program
}
