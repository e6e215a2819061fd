package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bpms/internal/model"
)

// exclusiveSplit routes the token along the first condition-true
// outgoing flow (in definition order), falling back to the default
// flow, and raising an incident when nothing is enabled.
func (e *Engine) exclusiveSplit(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	flows := proc.Outgoing(el.ID)
	scope := scopeOf(tok.Elem)
	var defaultFlow *model.Flow
	for _, f := range flows {
		if f.ID == el.DefaultFlow {
			defaultFlow = f
			continue
		}
		enabled := true
		if f.Condition != "" {
			ok, err := e.evalFlowCond(inst, f, nil)
			if err != nil {
				e.incident(inst, tok.Elem, fmt.Sprintf("flow %q condition: %v", f.ID, err))
				return
			}
			enabled = ok
		}
		if enabled {
			tok.Elem = scope + f.To
			e.advance(inst, tok, f.ID)
			return
		}
	}
	if defaultFlow != nil {
		tok.Elem = scope + defaultFlow.To
		e.advance(inst, tok, defaultFlow.ID)
		return
	}
	e.incident(inst, tok.Elem, "exclusive gateway: no flow enabled and no default")
}

// inclusiveSplit fires every condition-true outgoing flow (plus the
// default when none is true).
func (e *Engine) inclusiveSplit(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	flows := proc.Outgoing(el.ID)
	scope := scopeOf(tok.Elem)
	var taken []*model.Flow
	var defaultFlow *model.Flow
	for _, f := range flows {
		if f.ID == el.DefaultFlow {
			defaultFlow = f
			continue
		}
		enabled := true
		if f.Condition != "" {
			ok, err := e.evalFlowCond(inst, f, nil)
			if err != nil {
				e.incident(inst, tok.Elem, fmt.Sprintf("flow %q condition: %v", f.ID, err))
				return
			}
			enabled = ok
		}
		if enabled {
			taken = append(taken, f)
		}
	}
	if len(taken) == 0 {
		if defaultFlow == nil {
			e.incident(inst, tok.Elem, "inclusive gateway: no flow enabled and no default")
			return
		}
		taken = []*model.Flow{defaultFlow}
	}
	first := taken[0]
	rest := taken[1:]
	forks := make([]*Token, 0, len(rest))
	for _, f := range rest {
		forks = append(forks, inst.newToken(e, scope+f.To))
	}
	tok.Elem = scope + first.To
	e.advance(inst, tok, first.ID)
	for i, f := range rest {
		if _, live := inst.Tokens[forks[i].ID]; !live {
			continue // cancelled during the first branch's cascade
		}
		e.advance(inst, forks[i], f.ID)
	}
}

// parallelJoin records the arrival and fires the join as soon as every
// incoming flow has delivered a token.
func (e *Engine) parallelJoin(inst *Instance, tok *Token, proc *model.Process, el *model.Element, via string) {
	path := tok.Elem
	arr := inst.Joins[path]
	if arr == nil {
		arr = map[string][]uint64{}
		inst.Joins[path] = arr
	}
	arr[via] = append(arr[via], tok.ID)
	tok.Wait = WaitJoin
	inst.dirty = true
	for _, f := range proc.Incoming(el.ID) {
		if len(arr[f.ID]) == 0 {
			return // still waiting
		}
	}
	e.fireJoin(inst, path, proc, el, allIncoming(proc, el))
}

func allIncoming(proc *model.Process, el *model.Element) []string {
	flows := proc.Incoming(el.ID)
	out := make([]string, len(flows))
	for i, f := range flows {
		out[i] = f.ID
	}
	return out
}

// fireJoin consumes one queued token per listed flow and continues a
// single merged token.
func (e *Engine) fireJoin(inst *Instance, path string, proc *model.Process, el *model.Element, flows []string) {
	arr := inst.Joins[path]
	var survivor *Token
	for _, fid := range flows {
		ids := arr[fid]
		if len(ids) == 0 {
			continue
		}
		id := ids[0]
		arr[fid] = ids[1:]
		if len(arr[fid]) == 0 {
			delete(arr, fid)
		}
		t := inst.Tokens[id]
		if t == nil {
			continue
		}
		if survivor == nil {
			survivor = t
		} else {
			inst.dropToken(t)
		}
	}
	if len(arr) == 0 {
		delete(inst.Joins, path)
	}
	if survivor == nil {
		return
	}
	survivor.Wait = WaitNone
	e.elementCompleted(inst, el, path, "")
	e.continueOutgoing(inst, survivor, proc, el)
}

// inclusiveJoinArrive parks the token; enablement is decided globally
// in checkInclusiveJoins after each step.
func (e *Engine) inclusiveJoinArrive(inst *Instance, tok *Token, via string) {
	path := tok.Elem
	arr := inst.Joins[path]
	if arr == nil {
		arr = map[string][]uint64{}
		inst.Joins[path] = arr
	}
	arr[via] = append(arr[via], tok.ID)
	tok.Wait = WaitJoin
	inst.dirty = true
}

// checkInclusiveJoins implements the non-local OR-join rule: a join
// fires when at least one token has arrived and no other token in the
// instance can still reach the join. Firing one join can unblock
// another, so the check loops to a fixpoint.
func (e *Engine) checkInclusiveJoins(inst *Instance) {
	if inst.Status != StatusActive {
		return
	}
	for changed := true; changed; {
		changed = false
		paths := make([]string, 0, len(inst.Joins))
		for p := range inst.Joins {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, path := range paths {
			proc, el, err := e.resolve(inst, path)
			if err != nil || el.Kind != model.KindInclusiveGateway {
				continue
			}
			arr := inst.Joins[path]
			arrived := map[uint64]bool{}
			hasArrival := false
			for _, ids := range arr {
				for _, id := range ids {
					arrived[id] = true
					hasArrival = true
				}
			}
			if !hasArrival {
				delete(inst.Joins, path)
				continue
			}
			if e.orJoinBlocked(inst, path, proc, arrived) {
				continue
			}
			// Fire with the flows that have tokens queued.
			var flows []string
			for fid, ids := range arr {
				if len(ids) > 0 {
					flows = append(flows, fid)
				}
			}
			sort.Strings(flows)
			e.fireJoin(inst, path, proc, el, flows)
			changed = true
		}
	}
}

// orJoinBlocked reports whether some token other than the arrived ones
// can still reach the join.
func (e *Engine) orJoinBlocked(inst *Instance, path string, proc *model.Process, arrived map[uint64]bool) bool {
	scope := scopeOf(path)
	joinID := lastSegment(path)
	upstream := e.upstreamSet(proc, joinID)
	for _, t := range inst.Tokens {
		if arrived[t.ID] {
			continue
		}
		if !strings.HasPrefix(t.Elem, scope) {
			continue // outside the join's scope
		}
		rest := t.Elem[len(scope):]
		// The token's element at the join's scope level.
		local := rest
		if i := strings.Index(rest, "/"); i >= 0 {
			local = rest[:i]
		}
		if local == joinID {
			// Another arrival queue entry not in `arrived` (e.g. a
			// token at the same element of a different path) — treat
			// as upstream to stay safe.
			return true
		}
		if upstream[local] {
			return true
		}
	}
	return false
}

// upstreamSet computes (and caches) the set of element IDs from which
// the given element is reachable within one process body, following
// sequence flows and boundary attachments.
func (e *Engine) upstreamSet(proc *model.Process, target string) map[string]bool {
	key := upstreamKey{proc: proc, target: target}
	if v, ok := e.upstreamCache.Load(key); ok {
		return v.(map[string]bool)
	}
	set := map[string]bool{}
	stack := []string{target}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range proc.Incoming(id) {
			if !set[f.From] {
				set[f.From] = true
				stack = append(stack, f.From)
			}
		}
		// A boundary event's upstream includes its host activity.
		if el := proc.ElementByID(id); el != nil && el.Kind == model.KindBoundaryEvent {
			if !set[el.AttachedTo] {
				set[el.AttachedTo] = true
				stack = append(stack, el.AttachedTo)
			}
		}
	}
	e.upstreamCache.Store(key, set)
	return set
}

type upstreamKey struct {
	proc   *model.Process
	target string
}

// armEventGateway parks the token and arms a race between the
// gateway's successor catch events.
func (e *Engine) armEventGateway(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	scope := scopeOf(tok.Elem)
	tok.Wait = WaitEventGate
	for _, f := range proc.Outgoing(el.ID) {
		succ := proc.ElementByID(f.To)
		arm := raceArm{Elem: scope + succ.ID}
		switch succ.Kind {
		case model.KindTimerCatchEvent:
			d, _ := time.ParseDuration(succ.Timer) // validated at deploy
			arm.TimerAt = e.clock.Now().Add(d)
		case model.KindMessageCatchEvent, model.KindReceiveTask:
			key, err := e.corrKey(inst, succ, nil)
			if err != nil {
				e.incident(inst, tok.Elem, err.Error())
				return
			}
			arm.Message = succ.Message
			arm.CorrKey = key
		default:
			e.incident(inst, tok.Elem, fmt.Sprintf("event gateway successor %q is %s", succ.ID, succ.Kind))
			return
		}
		tok.Race = append(tok.Race, arm)
	}
	e.armToken(inst, tok)
	inst.dirty = true
}
