package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/task"
)

// BPMNError is a coded error a service-task handler can return to be
// caught by error boundary events (an empty boundary code catches any
// BPMNError).
type BPMNError struct {
	Code string
	Msg  string
}

// Error implements the error interface.
func (e *BPMNError) Error() string {
	return fmt.Sprintf("bpmn error %q: %s", e.Code, e.Msg)
}

// outMsg is a message thrown during a step, dispatched after the
// instance lock is released (throwing to yourself must not deadlock).
type outMsg struct {
	Name string
	Key  string
	Vars map[string]expr.Value
}

// env builds the expression environment of an instance with optional
// extra bindings.
func (inst *Instance) env(extra map[string]expr.Value) expr.Env {
	return lenientEnv{vars: inst.Vars, extra: extra}
}

// finishStep completes an externally triggered step: re-evaluates
// inclusive joins (their enablement is non-local), detects instance
// completion, persists dirty state, releases the instance lock, and
// dispatches thrown messages. The error is the persistence/durability
// failure, if any; asynchronous callers (task listener, timers,
// message delivery) ignore it — persistence stays write-behind there —
// while synchronous API entry points propagate it so a failed durable
// acknowledgement is never reported as success.
func (e *Engine) finishStep(inst *Instance) error {
	err := e.finishChecks(inst)
	e.releaseStep(inst)
	return err
}

// finishChecks runs the end-of-step bookkeeping under the instance
// lock. A case that finished in this step is retired once its final
// state is journaled.
func (e *Engine) finishChecks(inst *Instance) error {
	e.checkInclusiveJoins(inst)
	e.checkCompletion(inst)
	if !inst.dirty {
		return nil
	}
	inst.dirty = false
	state, err := e.persistInstance(inst)
	if err == nil && inst.Status != StatusActive {
		if e.retireHook != nil {
			e.retireHook(func() { e.retire(inst, state) })
		} else {
			e.retire(inst, state)
		}
	}
	return err
}

// retire moves a finished case from the live map to the archive,
// keeping only the state record persistInstance just journaled. Lock
// order instance → engine, as in maybeSnapshot.
func (e *Engine) retire(inst *Instance, state []byte) {
	e.mu.Lock()
	delete(e.instances, inst.ID)
	e.archive[inst.ID] = archived{processID: inst.ProcessID, status: inst.Status, state: state}
	e.mu.Unlock()
}

// releaseStep unlocks the instance and dispatches messages thrown
// during the step.
func (e *Engine) releaseStep(inst *Instance) {
	out := inst.outbox
	inst.outbox = nil
	inst.mu.Unlock()
	for _, m := range out {
		vars := make(map[string]any, len(m.Vars))
		for k, v := range m.Vars {
			vars[k] = v.ToGo()
		}
		// Self-correlation re-enters via the public API, which takes
		// the instance lock afresh.
		e.Publish(m.Name, m.Key, vars)
	}
}

func (e *Engine) checkCompletion(inst *Instance) {
	if inst.Status == StatusActive && len(inst.Tokens) == 0 {
		inst.Status = StatusCompleted
		inst.EndedAt = e.clock.Now()
		inst.dirty = true
		e.audit(&history.Event{Type: history.InstanceCompleted, Time: inst.EndedAt,
			ProcessID: inst.ProcessID, InstanceID: inst.ID})
	}
}

// incident faults the instance, leaving tokens in place for forensics.
func (e *Engine) incident(inst *Instance, elemPath, msg string) {
	inst.Status = StatusFaulted
	inst.EndedAt = e.clock.Now()
	inst.dirty = true
	e.audit(&history.Event{Type: history.IncidentRaised, Time: inst.EndedAt,
		ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: elemPath,
		Data: map[string]any{"message": msg}})
	e.audit(&history.Event{Type: history.InstanceFaulted, Time: inst.EndedAt,
		ProcessID: inst.ProcessID, InstanceID: inst.ID})
}

// elementCompleted audits a completed node, marking pure routing nodes
// so mining can exclude them.
func (e *Engine) elementCompleted(inst *Instance, el *model.Element, path, actor string) {
	var data map[string]any
	if el.Kind.IsGateway() || el.Kind.IsEvent() {
		data = map[string]any{"routing": true}
	}
	e.audit(&history.Event{Type: history.ElementCompleted, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID,
		ElementID: path, Element: el.Name, Actor: actor, Data: data})
	inst.dirty = true
}

// advance executes the element under tok until it parks or is
// consumed. viaFlow is the sequence-flow ID the token arrived by
// (empty for start events and resumptions).
func (e *Engine) advance(inst *Instance, tok *Token, viaFlow ...string) {
	if inst.Status != StatusActive {
		return
	}
	via := ""
	if len(viaFlow) > 0 {
		via = viaFlow[0]
	}
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		return
	}
	e.audit(&history.Event{Type: history.ElementActivated, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem, Element: el.Name})

	// Multi-instance wrapper intercepts activity entry.
	if el.Multi != nil && tok.MI == nil {
		e.enterMultiInstance(inst, tok, proc, el)
		return
	}

	switch el.Kind {
	case model.KindStartEvent:
		if inst.StartedAt.IsZero() {
			inst.StartedAt = e.clock.Now()
		}
		e.elementCompleted(inst, el, tok.Elem, "")
		e.continueOutgoing(inst, tok, proc, el)

	case model.KindEndEvent:
		e.elementCompleted(inst, el, tok.Elem, "")
		scope := scopeOf(tok.Elem)
		inst.dropToken(tok)
		e.completeScopeIfDrained(inst, scope)

	case model.KindTerminateEnd:
		e.elementCompleted(inst, el, tok.Elem, "")
		scope := scopeOf(tok.Elem)
		inst.dropToken(tok)
		e.terminateScope(inst, scope)

	case model.KindServiceTask:
		e.runServiceTask(inst, tok, proc, el, nil)

	case model.KindScriptTask:
		if err := e.applyOutputs(inst, el, nil); err != nil {
			e.handleTaskError(inst, tok, proc, el, err)
			return
		}
		e.elementCompleted(inst, el, tok.Elem, "")
		e.continueOutgoing(inst, tok, proc, el)

	case model.KindUserTask, model.KindManualTask:
		e.createWorkItem(inst, tok, proc, el, nil)

	case model.KindSendTask, model.KindMessageThrowEvent:
		key, err := e.corrKey(inst, el, nil)
		if err != nil {
			e.incident(inst, tok.Elem, err.Error())
			return
		}
		vars := make(map[string]expr.Value, len(inst.Vars))
		for k, v := range inst.Vars {
			vars[k] = v
		}
		inst.outbox = append(inst.outbox, outMsg{Name: el.Message, Key: key, Vars: vars})
		e.audit(&history.Event{Type: history.MessagePublished, Time: e.clock.Now(),
			ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem,
			Data: map[string]any{"message": el.Message, "key": key}})
		e.elementCompleted(inst, el, tok.Elem, "")
		e.continueOutgoing(inst, tok, proc, el)

	case model.KindReceiveTask, model.KindMessageCatchEvent:
		e.parkForMessage(inst, tok, proc, el)

	case model.KindTimerCatchEvent:
		d, _ := time.ParseDuration(el.Timer) // validated at deploy
		tok.Wait = WaitTimer
		tok.TimerAt = e.clock.Now().Add(d)
		e.armTokenTimer(inst, tok)
		inst.dirty = true

	case model.KindExclusiveGateway:
		e.elementCompleted(inst, el, tok.Elem, "")
		e.exclusiveSplit(inst, tok, proc, el)

	case model.KindParallelGateway:
		if len(proc.Incoming(el.ID)) > 1 {
			e.parallelJoin(inst, tok, proc, el, via)
			return
		}
		e.elementCompleted(inst, el, tok.Elem, "")
		e.continueOutgoing(inst, tok, proc, el)

	case model.KindInclusiveGateway:
		if len(proc.Incoming(el.ID)) > 1 {
			e.inclusiveJoinArrive(inst, tok, via)
			return
		}
		e.elementCompleted(inst, el, tok.Elem, "")
		e.inclusiveSplit(inst, tok, proc, el)

	case model.KindEventGateway:
		e.armEventGateway(inst, tok, proc, el)

	case model.KindSubProcess:
		e.enterScope(inst, tok, el.SubProcess)

	case model.KindCallActivity:
		e.mu.RLock()
		called := e.definitions[el.CalledProcess]
		e.mu.RUnlock()
		if called == nil {
			e.incident(inst, tok.Elem, fmt.Sprintf("call activity %q: no definition %q", el.ID, el.CalledProcess))
			return
		}
		e.enterScope(inst, tok, called)

	case model.KindBoundaryEvent:
		// Boundary events are never entered via sequence flow; they
		// fire through their host's arms.
		e.incident(inst, tok.Elem, "token entered a boundary event")

	default:
		e.incident(inst, tok.Elem, fmt.Sprintf("unsupported element kind %s", el.Kind))
	}
}

// continueOutgoing emits tokens on the activity's outgoing flows:
// unconditional flows always fire; conditional flows fire when true.
// Multiple flows fork in parallel (BPMN implicit split). A stuck token
// (no flow firing) raises an incident.
func (e *Engine) continueOutgoing(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	flows := proc.Outgoing(el.ID)
	scope := scopeOf(tok.Elem)
	var taken []*model.Flow
	for _, f := range flows {
		if f.Condition == "" {
			taken = append(taken, f)
			continue
		}
		ok, err := e.evalFlowCond(inst, f, nil)
		if err != nil {
			e.incident(inst, tok.Elem, fmt.Sprintf("flow %q condition: %v", f.ID, err))
			return
		}
		if ok {
			taken = append(taken, f)
		}
	}
	if len(taken) == 0 {
		if len(flows) == 0 {
			// Implicit end: consume the token.
			inst.dropToken(tok)
			e.completeScopeIfDrained(inst, scope)
			return
		}
		e.incident(inst, tok.Elem, "no outgoing flow enabled")
		return
	}
	// Reuse the current token for the first flow; fork the rest. Fork
	// positions are assigned before anything advances so that a
	// terminate end (or interrupting boundary) firing during the first
	// branch's cascade can see and cancel them.
	first := taken[0]
	rest := taken[1:]
	forks := make([]*Token, 0, len(rest))
	for _, f := range rest {
		forks = append(forks, inst.newToken(e, scope+f.To))
	}
	tok.Wait = WaitNone
	tok.Elem = scope + first.To
	e.advance(inst, tok, first.ID)
	for i, f := range rest {
		if _, live := inst.Tokens[forks[i].ID]; !live {
			continue // cancelled by a terminate/boundary during the cascade
		}
		e.advance(inst, forks[i], f.ID)
	}
}

// evalFlowCond evaluates a sequence flow's guard using its precompiled
// program (deployed definitions compile all expressions once, at
// deploy time; see model.Process.Compile).
func (e *Engine) evalFlowCond(inst *Instance, f *model.Flow, extra map[string]expr.Value) (bool, error) {
	p, err := f.Program()
	if err != nil {
		return false, err
	}
	if p == nil {
		return true, nil // unconditional
	}
	return p.EvalBool(inst.env(extra))
}

// applyOutputs evaluates an element's precompiled output mappings
// (sorted by variable name for determinism) into the case data.
func (e *Engine) applyOutputs(inst *Instance, el *model.Element, extra map[string]expr.Value) error {
	mappings, err := el.OutputMappings()
	if err != nil {
		return err
	}
	if len(mappings) == 0 {
		return nil
	}
	env := inst.env(extra)
	for _, m := range mappings {
		v, err := m.Program.Eval(env)
		if err != nil {
			return fmt.Errorf("output %q: %w", m.Name, err)
		}
		inst.Vars[m.Name] = v
	}
	inst.dirty = true
	return nil
}

// runServiceTask executes a handler synchronously with retries, error
// boundaries, and incidents.
func (e *Engine) runServiceTask(inst *Instance, tok *Token, proc *model.Process, el *model.Element, extra map[string]expr.Value) {
	h, ok := e.handler(el.Handler)
	if !ok {
		e.incident(inst, tok.Elem, fmt.Sprintf("%v: %q", ErrUnknownHandler, el.Handler))
		return
	}
	snapshot := make(map[string]expr.Value, len(inst.Vars)+len(extra))
	for k, v := range inst.Vars {
		snapshot[k] = v
	}
	for k, v := range extra {
		snapshot[k] = v
	}
	tc := TaskContext{InstanceID: inst.ID, ProcessID: inst.ProcessID, ElementID: tok.Elem, Vars: snapshot}
	var updates map[string]expr.Value
	var err error
	for attempt := 0; ; attempt++ {
		updates, err = h(tc)
		if err == nil {
			break
		}
		if attempt >= el.Retries {
			e.handleTaskError(inst, tok, proc, el, err)
			return
		}
		inst.Retries[tok.ID] = attempt + 1
	}
	for k, v := range updates {
		inst.Vars[k] = v
	}
	if err := e.applyOutputs(inst, el, extra); err != nil {
		e.handleTaskError(inst, tok, proc, el, err)
		return
	}
	if tok.MI != nil {
		return // multi-instance controller handles continuation
	}
	e.elementCompleted(inst, el, tok.Elem, el.Handler)
	e.continueOutgoing(inst, tok, proc, el)
}

// handleTaskError routes a failed activity to a matching error
// boundary event, or faults the instance.
func (e *Engine) handleTaskError(inst *Instance, tok *Token, proc *model.Process, el *model.Element, err error) {
	var code string
	var berr *BPMNError
	if errors.As(err, &berr) {
		code = berr.Code
	}
	scope := scopeOf(tok.Elem)
	for _, bd := range proc.BoundaryEvents(el.ID) {
		if bd.Boundary != model.BoundaryError {
			continue
		}
		if bd.ErrorCode != "" && bd.ErrorCode != code {
			continue
		}
		e.audit(&history.Event{Type: history.ElementFaulted, Time: e.clock.Now(),
			ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem,
			Data: map[string]any{"error": err.Error()}})
		e.disarmToken(inst, tok)
		tok.Wait = WaitNone
		tok.MI = nil
		tok.Boundaries = nil
		tok.Elem = scope + bd.ID
		bproc, bel, rerr := e.resolve(inst, tok.Elem)
		if rerr != nil {
			e.incident(inst, tok.Elem, rerr.Error())
			return
		}
		e.elementCompleted(inst, bel, tok.Elem, "")
		e.continueOutgoing(inst, tok, bproc, bel)
		return
	}
	e.incident(inst, tok.Elem, fmt.Sprintf("activity %q failed: %v", el.ID, err))
}

// createWorkItem parks the token on a new user/manual work item and
// arms boundary events.
func (e *Engine) createWorkItem(inst *Instance, tok *Token, proc *model.Process, el *model.Element, extra map[string]expr.Value) {
	data := map[string]any{}
	for k, v := range inst.Vars {
		data[k] = v.ToGo()
	}
	for k, v := range extra {
		data[k] = v.ToGo()
	}
	var due time.Duration
	if el.DueIn != "" {
		due, _ = time.ParseDuration(el.DueIn) // validated at deploy
	}
	name := el.Name
	if name == "" {
		name = el.ID
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
		e.incident(inst, tok.Elem, fmt.Sprintf("create work item: %v", err))
		return
	}
	tok.Wait = WaitUserTask
	if tok.MI != nil {
		tok.Wait = WaitMulti
		tok.MI.OpenItems = append(tok.MI.OpenItems, it.ID)
	} else {
		tok.WorkItemID = it.ID
	}
	e.armBoundaries(inst, tok, proc, el)
	inst.dirty = true
}

// resumeWorkItem continues the instance whose token waits on the
// closed work item. success=false routes through error boundaries.
func (e *Engine) resumeWorkItem(it *task.Item, success bool) {
	t0 := e.metrics.Transition.Start()
	defer e.metrics.Transition.Since(t0)
	e.mu.RLock()
	inst, ok := e.instances[it.InstanceID]
	e.mu.RUnlock()
	if !ok {
		return
	}
	inst.mu.Lock()
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return
	}
	tok := inst.tokenForWorkItem(it.ID)
	if tok == nil {
		inst.mu.Unlock()
		return
	}
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		e.finishStep(inst)
		return
	}
	// Merge the outcome payload into case data.
	for k, raw := range it.Outcome {
		v, convErr := expr.FromGo(raw)
		if convErr != nil {
			e.incident(inst, tok.Elem, fmt.Sprintf("outcome %q: %v", k, convErr))
			e.finishStep(inst)
			return
		}
		inst.Vars[k] = v
		inst.dirty = true
	}
	if !success && it.State == task.Failed {
		e.handleTaskError(inst, tok, proc, el, &BPMNError{Code: "task-failed", Msg: it.Reason})
		e.finishStep(inst)
		return
	}
	if tok.MI != nil {
		e.multiInstanceItemDone(inst, tok, proc, el, it)
		e.finishStep(inst)
		return
	}
	if err := e.applyOutputs(inst, el, nil); err != nil {
		e.handleTaskError(inst, tok, proc, el, err)
		e.finishStep(inst)
		return
	}
	e.disarmToken(inst, tok)
	tok.Wait = WaitNone
	tok.WorkItemID = ""
	e.elementCompleted(inst, el, tok.Elem, it.Assignee)
	e.continueOutgoing(inst, tok, proc, el)
	e.finishStep(inst)
}

func (inst *Instance) tokenForWorkItem(itemID string) *Token {
	for _, t := range inst.Tokens {
		if t.WorkItemID == itemID {
			return t
		}
		if t.MI != nil {
			for _, id := range t.MI.OpenItems {
				if id == itemID {
					return t
				}
			}
		}
	}
	return nil
}

// enterScope starts a sub-process or called process body under the
// activity token.
func (e *Engine) enterScope(inst *Instance, tok *Token, body *model.Process) {
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		return
	}
	tok.Wait = WaitSubProc
	e.armBoundaries(inst, tok, proc, el)
	inst.dirty = true
	prefix := tok.Elem + "/"
	starts := body.StartEvents()
	children := make([]*Token, 0, len(starts))
	for _, s := range starts {
		children = append(children, inst.newToken(e, prefix+s.ID))
	}
	for _, child := range children {
		if _, live := inst.Tokens[child.ID]; !live {
			continue
		}
		e.advance(inst, child)
	}
}

// completeScopeIfDrained resumes a parent sub-process token once its
// scope has no remaining tokens. scope is "" at the root (instance
// completion is handled by checkCompletion).
func (e *Engine) completeScopeIfDrained(inst *Instance, scope string) {
	if scope == "" {
		return
	}
	for _, t := range inst.Tokens {
		if strings.HasPrefix(t.Elem, scope) {
			return // scope still live
		}
	}
	parentPath := strings.TrimSuffix(scope, "/")
	var parent *Token
	for _, t := range inst.Tokens {
		if t.Elem == parentPath && t.Wait == WaitSubProc {
			parent = t
			break
		}
	}
	if parent == nil {
		return
	}
	proc, el, err := e.resolve(inst, parentPath)
	if err != nil {
		e.incident(inst, parentPath, err.Error())
		return
	}
	e.disarmToken(inst, parent)
	parent.Wait = WaitNone
	if err := e.applyOutputs(inst, el, nil); err != nil {
		e.handleTaskError(inst, parent, proc, el, err)
		return
	}
	e.elementCompleted(inst, el, parentPath, "")
	e.continueOutgoing(inst, parent, proc, el)
}

// terminateScope drops every token in the scope; at the root the whole
// instance completes immediately (terminate end event semantics).
func (e *Engine) terminateScope(inst *Instance, scope string) {
	for _, t := range inst.Tokens {
		if scope == "" || strings.HasPrefix(t.Elem, scope) {
			e.cancelToken(inst, t, "terminated")
		}
	}
	// Clear join state inside the scope.
	for path := range inst.Joins {
		if scope == "" || strings.HasPrefix(path, scope) {
			delete(inst.Joins, path)
		}
	}
	inst.dirty = true
	if scope == "" {
		return // checkCompletion completes the instance
	}
	e.completeScopeIfDrained(inst, scope)
}

// cancelToken disarms and removes a token, cancelling any open work
// items and nested scope tokens.
func (e *Engine) cancelToken(inst *Instance, tok *Token, reason string) {
	e.disarmToken(inst, tok)
	if tok.WorkItemID != "" {
		_, _ = e.tasks.Cancel(tok.WorkItemID, reason)
	}
	if tok.MI != nil {
		for _, id := range tok.MI.OpenItems {
			_, _ = e.tasks.Cancel(id, reason)
		}
	}
	if tok.Wait == WaitSubProc {
		prefix := tok.Elem + "/"
		for _, t := range inst.Tokens {
			if strings.HasPrefix(t.Elem, prefix) {
				e.cancelToken(inst, t, reason)
			}
		}
	}
	inst.dropToken(tok)
	inst.dirty = true
}

func (e *Engine) cancelAllTokens(inst *Instance, reason string) {
	for _, t := range inst.Tokens {
		e.cancelToken(inst, t, reason)
	}
	inst.Joins = map[string]map[string][]uint64{}
}
