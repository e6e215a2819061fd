package engine

import (
	"fmt"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/task"
)

// Multi-instance semantics: the activity's token becomes a controller
// holding the evaluated collection. Synchronous activities (service
// and script tasks) iterate in place; user/manual tasks fan work items
// out (all at once when parallel, one at a time when sequential). The
// completion condition is evaluated after each finished item and, when
// true, cancels the remaining ones. Multi-instance markers on
// sub-processes, call activities, and message-waiting tasks are not
// supported and raise an incident (the state of several concurrent
// interior scopes under one path namespace would be ambiguous).

// enterMultiInstance evaluates the collection and dispatches per the
// activity kind.
func (e *Engine) enterMultiInstance(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	p, err := el.CollectionProgram()
	if err != nil {
		e.incident(inst, tok.Elem, fmt.Sprintf("multi-instance collection: %v", err))
		return
	}
	if p == nil {
		// Deploy validates the collection non-empty, but recovery
		// compiles without validating; fault rather than crash.
		e.incident(inst, tok.Elem, "multi-instance collection: empty expression")
		return
	}
	v, err := p.Eval(inst.env(nil))
	if err != nil {
		e.incident(inst, tok.Elem, fmt.Sprintf("multi-instance collection: %v", err))
		return
	}
	items, ok := v.AsList()
	if !ok {
		e.incident(inst, tok.Elem, fmt.Sprintf("multi-instance collection is %s, want list", v.Kind()))
		return
	}
	if len(items) == 0 {
		// Empty collection: the activity completes immediately.
		e.elementCompleted(inst, el, tok.Elem, "")
		e.continueOutgoing(inst, tok, proc, el)
		return
	}
	mi := &miState{
		Total:    len(items),
		Parallel: el.Multi.Parallel,
		Items:    items,
		ElemVar:  el.Multi.ElementVar,
		ItemIdx:  map[string]int{},
	}
	tok.MI = mi

	switch el.Kind {
	case model.KindServiceTask, model.KindScriptTask:
		e.runSyncMulti(inst, tok, proc, el)
	case model.KindUserTask, model.KindManualTask:
		tok.Wait = WaitMulti
		spawn := len(items)
		if !mi.Parallel {
			mi.NextIdx, spawn = 1, 1
		}
		for idx := range spawn {
			e.spawnMultiItem(inst, tok, el, idx)
			if inst.Status != StatusActive {
				return
			}
		}
		e.parkActivity(inst, tok, proc, el)
	default:
		e.incident(inst, tok.Elem, fmt.Sprintf("multi-instance not supported on %s", el.Kind))
	}
}

// runSyncMulti iterates a synchronous activity over the collection.
func (e *Engine) runSyncMulti(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	mi := tok.MI
	for idx, item := range mi.Items {
		extra := map[string]expr.Value{
			mi.ElemVar:    item,
			"loopCounter": expr.Int(int64(idx)),
		}
		switch el.Kind {
		case model.KindServiceTask:
			e.runServiceTask(inst, tok, proc, el, extra)
		case model.KindScriptTask:
			if err := e.applyOutputs(inst, el, extra); err != nil {
				e.handleTaskError(inst, tok, proc, el, err)
			}
		}
		if inst.Status != StatusActive || tok.MI == nil {
			// An error boundary consumed the MI wrapper or the
			// instance faulted.
			return
		}
		mi.Done++
		if done, err := e.miCompletionConditionMet(inst, el, extra); err != nil {
			e.incident(inst, tok.Elem, err.Error())
			return
		} else if done {
			mi.Stopped = true
			break
		}
	}
	tok.MI = nil
	e.elementCompleted(inst, el, tok.Elem, el.Handler)
	e.continueOutgoing(inst, tok, proc, el)
}

// spawnMultiItem opens the work item for collection index idx.
func (e *Engine) spawnMultiItem(inst *Instance, tok *Token, el *model.Element, idx int) {
	if err := e.issueWorkItem(inst, tok, el, idx); err != nil {
		e.incident(inst, tok.Elem, fmt.Sprintf("create multi-instance work item: %v", err))
	}
}

// multiInstanceItemDone handles one completed/skipped work item of a
// user-task multi-instance controller.
func (e *Engine) multiInstanceItemDone(inst *Instance, tok *Token, proc *model.Process, el *model.Element, it *task.Item) {
	mi := tok.MI
	idx, tracked := mi.ItemIdx[it.ID]
	if !tracked {
		return
	}
	delete(mi.ItemIdx, it.ID)
	kept := mi.OpenItems[:0]
	for _, id := range mi.OpenItems {
		if id != it.ID {
			kept = append(kept, id)
		}
	}
	mi.OpenItems = kept
	mi.Done++
	inst.dirty = true

	extra := map[string]expr.Value{
		mi.ElemVar:    mi.Items[idx],
		"loopCounter": expr.Int(int64(idx)),
	}
	if err := e.applyOutputs(inst, el, extra); err != nil {
		e.handleTaskError(inst, tok, proc, el, err)
		return
	}
	if !mi.Stopped {
		if done, err := e.miCompletionConditionMet(inst, el, extra); err != nil {
			e.incident(inst, tok.Elem, err.Error())
			return
		} else if done {
			mi.Stopped = true
			for _, id := range mi.OpenItems {
				_, _ = e.tasks.Cancel(id, "multi-instance completion condition met")
			}
			mi.OpenItems = nil
			mi.ItemIdx = map[string]int{}
		}
	}
	finished := mi.Stopped || (mi.Done >= mi.Total && len(mi.OpenItems) == 0)
	if !finished {
		if !mi.Parallel && mi.NextIdx < mi.Total {
			next := mi.NextIdx
			mi.NextIdx++
			e.spawnMultiItem(inst, tok, el, next)
		}
		return
	}
	e.disarmToken(inst, tok)
	tok.MI = nil
	tok.Wait = WaitNone
	e.elementCompleted(inst, el, tok.Elem, it.Assignee)
	e.continueOutgoing(inst, tok, proc, el)
}

func (e *Engine) miCompletionConditionMet(inst *Instance, el *model.Element, extra map[string]expr.Value) (bool, error) {
	if el.Multi == nil || el.Multi.CompletionCondition == "" {
		return false, nil
	}
	p, err := el.CompletionProgram()
	if err != nil {
		return false, fmt.Errorf("multi-instance completion condition: %w", err)
	}
	ok, err := p.EvalBool(inst.env(extra))
	if err != nil {
		return false, fmt.Errorf("multi-instance completion condition: %w", err)
	}
	return ok, nil
}
