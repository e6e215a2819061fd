// Package history implements the audit-trail subsystem of the BPMS:
// typed events describing everything that happens during process
// execution, an event store layered on the storage journal with
// in-memory query indexes, and an XES-style codec so logs can be
// exchanged with process-mining tooling (internal/mine consumes the
// same trace model).
package history

import (
	"fmt"
	"time"
)

// EventType classifies audit events.
type EventType string

// Audit event types, grouped by subsystem.
const (
	// Definition lifecycle.
	ProcessDeployed EventType = "process.deployed"

	// Instance lifecycle.
	InstanceStarted   EventType = "instance.started"
	InstanceCompleted EventType = "instance.completed"
	InstanceCancelled EventType = "instance.cancelled"
	InstanceFaulted   EventType = "instance.faulted"

	// Element (flow-node) lifecycle.
	ElementActivated EventType = "element.activated"
	ElementCompleted EventType = "element.completed"
	ElementFaulted   EventType = "element.faulted"

	// Human-task lifecycle (mirrors the work-item state machine).
	TaskCreated   EventType = "task.created"
	TaskOffered   EventType = "task.offered"
	TaskAllocated EventType = "task.allocated"
	TaskStarted   EventType = "task.started"
	TaskCompleted EventType = "task.completed"
	TaskFailed    EventType = "task.failed"
	TaskSkipped   EventType = "task.skipped"
	TaskDelegated EventType = "task.delegated"
	TaskEscalated EventType = "task.escalated"

	// Timers and messages.
	TimerScheduled    EventType = "timer.scheduled"
	TimerFired        EventType = "timer.fired"
	TimerCancelled    EventType = "timer.cancelled"
	MessagePublished  EventType = "message.published"
	MessageCorrelated EventType = "message.correlated"
	MessageBuffered   EventType = "message.buffered"

	// Data and incidents.
	VariableSet    EventType = "variable.set"
	IncidentRaised EventType = "incident.raised"

	// SLA audit: emitted once by the audit sweeper when it first
	// detects a violation (overdue work item, lagging timer, or a
	// deployed definition failing soundness re-verification).
	SLAViolation EventType = "sla.violation"
)

// Event is one audit record. Index is assigned by the store on append.
type Event struct {
	Index      uint64         `json:"index,omitempty"`
	Type       EventType      `json:"type"`
	Time       time.Time      `json:"time"`
	ProcessID  string         `json:"processId,omitempty"`
	InstanceID string         `json:"instanceId,omitempty"`
	ElementID  string         `json:"elementId,omitempty"`
	Element    string         `json:"element,omitempty"` // display name
	TaskID     string         `json:"taskId,omitempty"`
	Actor      string         `json:"actor,omitempty"` // user or handler
	Data       map[string]any `json:"data,omitempty"`
}

// Encode serialises the event for journal storage (the append-style
// encoder the store's committers use, starting from a fresh buffer).
func (e *Event) Encode() ([]byte, error) {
	return AppendEncode(nil, e)
}

// String renders a compact human-readable form for logs and CLIs.
func (e *Event) String() string {
	s := fmt.Sprintf("[%s] %s", e.Time.Format(time.RFC3339), e.Type)
	if e.InstanceID != "" {
		s += " instance=" + e.InstanceID
	}
	if e.ElementID != "" {
		s += " element=" + e.ElementID
	}
	if e.TaskID != "" {
		s += " task=" + e.TaskID
	}
	if e.Actor != "" {
		s += " actor=" + e.Actor
	}
	return s
}
