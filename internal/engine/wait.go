package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// A parked token's persisted fields describe what it waits for: its own
// timer (TimerAt) or message (Message, CorrKey), the arms of an
// event-gateway race and the boundary events of a busy activity. Three
// functions turn those fields into hooks and back, for every wait kind:
//
//   - armToken registers the hooks. Parking fills in the fields, then
//     calls it; recovery calls it for every restored token.
//   - wake is the one entry through which a fired timer or a delivered
//     message resumes a token.
//   - disarmToken revokes the hooks once the token moves on.
//
// A work item is the remaining wait. issueWorkItem creates it, at the
// first park and again at recovery (the worklist is in memory), and
// resumeWorkItem resumes its token when it closes.

// armToken registers every hook tok's wait fields describe: its own
// timer or message subscription, its race arms and its boundary arms
// that have not fired.
func (e *Engine) armToken(inst *Instance, tok *Token) {
	w := waiter{inst.ID, tok.ID, tok.Elem}
	switch tok.Wait {
	case WaitTimer:
		tok.timerID = e.wakeAt(tok.TimerAt, w)
	case WaitMessage:
		e.subs.add(subPoint{tok.Message, tok.CorrKey}, w)
	}
	for i := range tok.Race {
		arm := &tok.Race[i]
		w.elem = arm.Elem
		if arm.Message != "" {
			e.subs.add(subPoint{arm.Message, arm.CorrKey}, w)
		} else {
			arm.timerID = e.wakeAt(arm.TimerAt, w)
		}
	}
	for i := range tok.Boundaries {
		arm := &tok.Boundaries[i]
		w.elem = arm.Elem
		switch {
		case arm.Fired:
		case arm.Message != "":
			e.subs.add(subPoint{arm.Message, arm.CorrKey}, w)
		default:
			arm.timerID = e.wakeAt(arm.TimerAt, w)
		}
	}
}

// wakeAt schedules a wake of w at time at.
func (e *Engine) wakeAt(at time.Time, w waiter) timer.ID {
	return e.timers.Schedule(at, func() { e.wake(w, nil) })
}

// disarmToken revokes every hook armToken registered for tok and drops
// its race and boundary arms.
func (e *Engine) disarmToken(inst *Instance, tok *Token) {
	disarm := func(id timer.ID, subscribed bool, elem string) {
		if id != 0 {
			e.timers.Cancel(id)
		}
		if subscribed {
			e.subs.remove(waiter{inst.ID, tok.ID, elem})
		}
	}
	disarm(tok.timerID, tok.Wait == WaitMessage, tok.Elem)
	tok.timerID = 0
	for _, arm := range tok.Race {
		disarm(arm.timerID, arm.Message != "", arm.Elem)
	}
	tok.Race = nil
	for _, arm := range tok.Boundaries {
		disarm(arm.timerID, arm.Message != "", arm.Elem)
	}
	tok.Boundaries = nil
}

// lockActive returns live case id locked, or nil when the engine is
// degraded or the case is gone or no longer active. Every wake path
// starts here and ends its step with finishStep.
func (e *Engine) lockActive(id string) *Instance {
	if e.degraded.Load() {
		return nil // frozen: waits re-arm from the journal after repair
	}
	e.mu.RLock()
	inst := e.instances[id]
	e.mu.RUnlock()
	if inst == nil {
		return nil
	}
	inst.mu.Lock()
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return nil
	}
	return inst
}

// resumeFunc resumes tok's wait at elem, which resolved to el in proc.
type resumeFunc func(inst *Instance, tok *Token, elem string, proc *model.Process, el *model.Element)

// wake resumes waiter w where a timer fired or a message arrived (vars
// is nil for a timer). It reports whether a wait was resumed; a hook
// whose token has moved on resumes nothing.
func (e *Engine) wake(w waiter, vars map[string]expr.Value) bool {
	inst := e.lockActive(w.inst)
	if inst == nil {
		return false
	}
	tok, elem := inst.Tokens[w.tok], w.elem
	var resume resumeFunc
	switch {
	case tok == nil:
	case elem == tok.Elem:
		if tok.Wait == WaitTimer || tok.Wait == WaitMessage {
			resume = e.resumeCatch
		}
	case tok.Wait == WaitEventGate:
		if slices.ContainsFunc(tok.Race, func(a raceArm) bool { return a.Elem == elem }) {
			resume = e.resumeRace
		}
	case tok.boundary(elem) != nil:
		resume = e.fireBoundary
	}
	if resume == nil {
		inst.mu.Unlock()
		return false
	}
	for k, v := range vars {
		inst.Vars[k] = v
	}
	if proc, el, err := e.resolve(inst, elem); err != nil {
		e.incident(inst, elem, err.Error())
	} else {
		resume(inst, tok, elem, proc, el)
	}
	e.finishStep(inst)
	return true
}

// resumeCatch resumes a token parked on its own timer or message.
func (e *Engine) resumeCatch(inst *Instance, tok *Token, elem string, proc *model.Process, el *model.Element) {
	if tok.Wait == WaitTimer {
		e.auditAt(inst, history.TimerFired, elem, nil)
		tok.timerID = 0
	} else {
		e.auditAt(inst, history.MessageCorrelated, elem, map[string]any{"message": tok.Message, "key": tok.CorrKey})
		e.disarmToken(inst, tok)
		tok.Message, tok.CorrKey = "", ""
	}
	tok.Wait = WaitNone
	e.completeCatch(inst, tok, proc, el)
}

// resumeRace settles an event-gateway race in favour of the arm at elem.
func (e *Engine) resumeRace(inst *Instance, tok *Token, elem string, proc *model.Process, el *model.Element) {
	e.disarmToken(inst, tok)
	tok.Wait = WaitNone
	tok.Elem = elem
	if el.Kind == model.KindTimerCatchEvent {
		e.auditAt(inst, history.TimerFired, elem, nil)
	} else {
		e.auditAt(inst, history.MessageCorrelated, elem, nil)
	}
	e.completeCatch(inst, tok, proc, el)
}

// completeCatch applies a resumed catch element's outputs and moves its
// token on.
func (e *Engine) completeCatch(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	if err := e.applyOutputs(inst, el, nil); err != nil {
		e.handleTaskError(inst, tok, proc, el, err)
		return
	}
	e.elementCompleted(inst, el, tok.Elem, "")
	e.continueOutgoing(inst, tok, proc, el)
}

// boundary returns tok's armed boundary at elem that has not fired.
func (tok *Token) boundary(elem string) *boundaryArm {
	for i := range tok.Boundaries {
		if tok.Boundaries[i].Elem == elem && !tok.Boundaries[i].Fired {
			return &tok.Boundaries[i]
		}
	}
	return nil
}

// fireBoundary triggers the armed boundary event at elem on a busy
// activity. An interrupting one ends the activity and its token becomes
// the boundary's; a non-interrupting one fires once, on a new token.
// The boundary's outputs then apply; one that fails raises an incident.
func (e *Engine) fireBoundary(inst *Instance, tok *Token, elem string, proc *model.Process, el *model.Element) {
	arm := tok.boundary(elem)
	if arm.Kind == model.BoundaryTimer {
		e.auditAt(inst, history.TimerFired, elem, nil)
		if tok.WorkItemID != "" && arm.Interrupt {
			e.audit(&history.Event{Type: history.TaskEscalated, Time: e.clock.Now(),
				ProcessID: inst.ProcessID, InstanceID: inst.ID,
				ElementID: tok.Elem, TaskID: tok.WorkItemID})
		}
	} else {
		e.auditAt(inst, history.MessageCorrelated, elem, nil)
	}
	if arm.Interrupt {
		e.cancelActivity(inst, tok, "interrupted by boundary event")
		tok.Elem = elem
	} else {
		arm.Fired = true
		arm.timerID = 0
		tok = inst.newToken(e, elem)
	}
	if err := e.applyOutputs(inst, el, nil); err != nil {
		e.incident(inst, elem, err.Error())
		return
	}
	e.elementCompleted(inst, el, elem, "")
	e.continueOutgoing(inst, tok, proc, el)
}

// issueWorkItem creates the work item of user or manual task el for
// tok and records its ID on the token. idx >= 0 creates the item for
// index idx of tok's multi-instance collection.
func (e *Engine) issueWorkItem(inst *Instance, tok *Token, el *model.Element, idx int) error {
	data := make(map[string]any, len(inst.Vars)+2)
	for k, v := range inst.Vars {
		data[k] = v.ToGo()
	}
	name := el.Name
	if name == "" {
		name = el.ID
	}
	if idx >= 0 {
		data[tok.MI.ElemVar] = tok.MI.Items[idx].ToGo()
		data["loopCounter"] = int64(idx)
		name = fmt.Sprintf("%s [%d/%d]", name, idx+1, tok.MI.Total)
	}
	var due time.Duration
	if el.DueIn != "" {
		due, _ = time.ParseDuration(el.DueIn) // validated at deploy
	}
	it, err := e.tasks.Create(task.Spec{
		ProcessID:  inst.ProcessID,
		InstanceID: inst.ID,
		ElementID:  tok.Elem,
		Name:       name,
		Role:       el.Role,
		Assignee:   el.Assignee,
		Capability: el.Capability,
		Priority:   el.Priority,
		Due:        due,
		Data:       data,
	})
	if err != nil {
		return err
	}
	if idx >= 0 {
		tok.MI.OpenItems = append(tok.MI.OpenItems, it.ID)
		tok.MI.ItemIdx[it.ID] = idx
	} else {
		tok.WorkItemID = it.ID
	}
	return nil
}

// reissueWorkItems issues again the open work items of a recovered
// token. An item that cannot be issued is counted in reissueFailures,
// and its token stays parked.
func (e *Engine) reissueWorkItems(inst *Instance, tok *Token) {
	var idxs []int
	switch tok.Wait {
	case WaitUserTask:
		idxs = []int{-1}
	case WaitMulti:
		for _, id := range tok.MI.OpenItems {
			idxs = append(idxs, tok.MI.ItemIdx[id])
		}
		tok.MI.OpenItems, tok.MI.ItemIdx = nil, map[string]int{}
	}
	if len(idxs) == 0 {
		return
	}
	_, el, err := e.resolve(inst, tok.Elem)
	for _, idx := range idxs {
		if err != nil || e.issueWorkItem(inst, tok, el, idx) != nil {
			e.reissueFailures.Add(1)
		}
	}
}

// resumeWorkItem continues the instance whose token waits on the
// closed work item. success=false routes through error boundaries.
func (e *Engine) resumeWorkItem(it *task.Item, success bool) {
	t0 := e.metrics.Transition.Start()
	defer e.metrics.Transition.Since(t0)
	inst := e.lockActive(it.InstanceID)
	if inst == nil {
		return
	}
	tok := inst.tokenForWorkItem(it.ID)
	if tok == nil {
		inst.mu.Unlock()
		return
	}
	e.completeWorkItem(inst, tok, it, success)
	e.finishStep(inst)
}

// completeWorkItem merges a closed item's outcome into the case data
// and moves its token on.
func (e *Engine) completeWorkItem(inst *Instance, tok *Token, it *task.Item, success bool) {
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		return
	}
	for k, raw := range it.Outcome {
		v, convErr := expr.FromGo(raw)
		if convErr != nil {
			e.incident(inst, tok.Elem, fmt.Sprintf("outcome %q: %v", k, convErr))
			return
		}
		inst.Vars[k] = v
		inst.dirty = true
	}
	switch {
	case !success && it.State == task.Failed:
		e.handleTaskError(inst, tok, proc, el, &BPMNError{Code: "task-failed", Msg: it.Reason})
	case tok.MI != nil:
		e.multiInstanceItemDone(inst, tok, proc, el, it)
	default:
		if err := e.applyOutputs(inst, el, nil); err != nil {
			e.handleTaskError(inst, tok, proc, el, err)
			return
		}
		e.disarmToken(inst, tok)
		tok.Wait = WaitNone
		tok.WorkItemID = ""
		e.elementCompleted(inst, el, tok.Elem, it.Assignee)
		e.continueOutgoing(inst, tok, proc, el)
	}
}

func (inst *Instance) tokenForWorkItem(itemID string) *Token {
	for _, t := range inst.Tokens {
		if t.WorkItemID == itemID || t.MI != nil && slices.Contains(t.MI.OpenItems, itemID) {
			return t
		}
	}
	return nil
}

// cancelActivity ends the busy activity under tok: it disarms the token
// and cancels its work items and, for a sub-process, the tokens and
// joins of its scope. The token stays, parked nowhere.
func (e *Engine) cancelActivity(inst *Instance, tok *Token, reason string) {
	e.disarmToken(inst, tok)
	if tok.WorkItemID != "" {
		_, _ = e.tasks.Cancel(tok.WorkItemID, reason)
		tok.WorkItemID = ""
	}
	if tok.MI != nil {
		for _, id := range tok.MI.OpenItems {
			_, _ = e.tasks.Cancel(id, reason)
		}
		tok.MI = nil
	}
	if tok.Wait == WaitSubProc {
		prefix := tok.Elem + "/"
		for _, t := range inst.Tokens {
			if strings.HasPrefix(t.Elem, prefix) {
				e.cancelToken(inst, t, reason)
			}
		}
		for path := range inst.Joins {
			if strings.HasPrefix(path, prefix) {
				delete(inst.Joins, path)
			}
		}
	}
	tok.Wait = WaitNone
	inst.dirty = true
}

// cancelToken ends the activity under tok and removes the token.
func (e *Engine) cancelToken(inst *Instance, tok *Token, reason string) {
	e.cancelActivity(inst, tok, reason)
	inst.dropToken(tok)
}
