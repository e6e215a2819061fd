package engine

import (
	"fmt"
	"sync"
	"time"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
)

// subKind distinguishes what a message subscription resumes.
type subKind int

const (
	subMessage  subKind = iota // receive task / message catch event
	subRace                    // event-gateway arm
	subBoundary                // message boundary event
)

// subscription is one waiting consumer of a named, correlated message.
type subscription struct {
	Name       string
	Key        string
	InstanceID string
	TokenID    uint64
	Elem       string // element path resumed on delivery
	Kind       subKind
}

type subPoint struct {
	name, key string
}

// ownerKey indexes subscriptions by their waiting token so removal is
// O(points owned) instead of a scan over the whole registry.
type ownerKey struct {
	inst string
	tok  uint64
	elem string
}

// subscriptions is the engine's correlation registry plus a bounded
// buffer for early messages (published before a consumer subscribes).
type subscriptions struct {
	mu       sync.Mutex
	waiting  map[subPoint][]subscription
	owners   map[ownerKey][]subPoint
	buffered map[subPoint][]map[string]expr.Value
	maxBuf   int
}

func newSubscriptions() *subscriptions {
	return &subscriptions{
		waiting:  map[subPoint][]subscription{},
		owners:   map[ownerKey][]subPoint{},
		buffered: map[subPoint][]map[string]expr.Value{},
		maxBuf:   10000,
	}
}

func (s *subscriptions) add(sub subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := subPoint{sub.Name, sub.Key}
	s.waiting[p] = append(s.waiting[p], sub)
	ok := ownerKey{sub.InstanceID, sub.TokenID, sub.Elem}
	s.owners[ok] = append(s.owners[ok], p)
}

func (s *subscriptions) remove(instanceID string, tokenID uint64, elem string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := ownerKey{instanceID, tokenID, elem}
	points := s.owners[ok]
	delete(s.owners, ok)
	for _, p := range points {
		subs := s.waiting[p]
		kept := subs[:0]
		for _, sub := range subs {
			if sub.InstanceID == instanceID && sub.TokenID == tokenID && sub.Elem == elem {
				continue
			}
			kept = append(kept, sub)
		}
		if len(kept) == 0 {
			delete(s.waiting, p)
		} else {
			s.waiting[p] = kept
		}
	}
}

// take pops all subscriptions for a point.
func (s *subscriptions) take(name, key string) []subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := subPoint{name, key}
	subs := s.waiting[p]
	delete(s.waiting, p)
	for _, sub := range subs {
		ok := ownerKey{sub.InstanceID, sub.TokenID, sub.Elem}
		points := s.owners[ok]
		kept := points[:0]
		removed := false
		for _, q := range points {
			if !removed && q == p {
				removed = true
				continue
			}
			kept = append(kept, q)
		}
		if len(kept) == 0 {
			delete(s.owners, ok)
		} else {
			s.owners[ok] = kept
		}
	}
	return subs
}

// buffer stores an undeliverable message; reports false when full.
func (s *subscriptions) buffer(name, key string, vars map[string]expr.Value) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, b := range s.buffered {
		total += len(b)
	}
	if total >= s.maxBuf {
		return false
	}
	p := subPoint{name, key}
	s.buffered[p] = append(s.buffered[p], vars)
	return true
}

// takeBuffered pops one buffered message for a point, if any.
func (s *subscriptions) takeBuffered(name, key string) (map[string]expr.Value, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := subPoint{name, key}
	b := s.buffered[p]
	if len(b) == 0 {
		return nil, false
	}
	msg := b[0]
	if len(b) == 1 {
		delete(s.buffered, p)
	} else {
		s.buffered[p] = b[1:]
	}
	return msg, true
}

// corrKey evaluates an element's correlation-key expression ("" when
// the element declares none).
func (e *Engine) corrKey(inst *Instance, el *model.Element, extra map[string]expr.Value) (string, error) {
	if el.CorrelationKey == "" {
		return "", nil
	}
	p, err := el.CorrelationProgram()
	if err != nil {
		return "", fmt.Errorf("correlation key of %q: %w", el.ID, err)
	}
	v, err := p.Eval(inst.env(extra))
	if err != nil {
		return "", fmt.Errorf("correlation key of %q: %w", el.ID, err)
	}
	if s, ok := v.AsString(); ok {
		return s, nil
	}
	return v.String(), nil
}

// parkForMessage parks a token at a receive task / message catch
// event, consuming a buffered message immediately when one matches.
func (e *Engine) parkForMessage(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	key, err := e.corrKey(inst, el, nil)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		return
	}
	if msg, ok := e.buffered(el.Message, key); ok {
		for k, v := range msg {
			inst.Vars[k] = v
		}
		e.audit(&history.Event{Type: history.MessageCorrelated, Time: e.clock.Now(),
			ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem,
			Data: map[string]any{"message": el.Message, "key": key, "buffered": true}})
		if err := e.applyOutputs(inst, el, nil); err != nil {
			e.handleTaskError(inst, tok, proc, el, err)
			return
		}
		e.elementCompleted(inst, el, tok.Elem, "")
		e.continueOutgoing(inst, tok, proc, el)
		return
	}
	tok.Wait = WaitMessage
	tok.Message = el.Message
	tok.CorrKey = key
	e.subs.add(subscription{
		Name: el.Message, Key: key, InstanceID: inst.ID,
		TokenID: tok.ID, Elem: tok.Elem, Kind: subMessage,
	})
	e.armBoundaries(inst, tok, proc, el)
	inst.dirty = true
}

// ConvertVars converts Go message payloads to expression values (the
// conversion the shard router applies on Publish).
func ConvertVars(vars map[string]any) (map[string]expr.Value, error) {
	converted := make(map[string]expr.Value, len(vars))
	for k, v := range vars {
		ev, err := expr.FromGo(v)
		if err != nil {
			return nil, fmt.Errorf("engine: message variable %q: %w", k, err)
		}
		converted[k] = ev
	}
	return converted, nil
}

// PublishLocal delivers a correlated message to this engine's waiting
// subscriptions only — no buffering and no publish audit. The shard
// router fans a publish out across all shards with it (a subscriber
// lives on the shard its instance ID hashes to, which is unrelated to
// the message key). It returns the number of resumed waits.
func (e *Engine) PublishLocal(name, key string, vars map[string]expr.Value) int {
	if e.degraded.Load() {
		return 0 // frozen: subscriptions stay parked for post-repair replay
	}
	t0 := e.metrics.Transition.Start()
	defer e.metrics.Transition.Since(t0)
	subs := e.subs.take(name, key)
	delivered := 0
	for _, sub := range subs {
		switch sub.Kind {
		case subMessage:
			if e.deliverToToken(sub, vars) {
				delivered++
			}
		case subRace:
			e.fireRace(sub.InstanceID, sub.TokenID, sub.Elem, vars)
			delivered++
		case subBoundary:
			e.fireBoundary(sub.InstanceID, sub.TokenID, sub.Elem, vars)
			delivered++
		}
	}
	return delivered
}

// BufferMessage stores an early message in this engine's buffer for a
// future subscriber. The shard router buffers each undelivered message
// on the shard its correlation key hashes to. A degraded engine refuses
// the message with ErrDegraded, and a full buffer drops it; either way
// nothing is stored.
func (e *Engine) BufferMessage(name, key string, vars map[string]expr.Value) error {
	if err := e.checkWritable(); err != nil {
		return err
	}
	if !e.subs.buffer(name, key, vars) {
		return fmt.Errorf("engine: message buffer full, %q dropped", name)
	}
	return nil
}

// TakeBuffered pops one buffered message for a correlation point from
// this engine's buffer, if any.
func (e *Engine) TakeBuffered(name, key string) (map[string]expr.Value, bool) {
	return e.subs.takeBuffered(name, key)
}

// deliverToToken resumes a token parked at a receive/catch element.
func (e *Engine) deliverToToken(sub subscription, vars map[string]expr.Value) bool {
	e.mu.RLock()
	inst, ok := e.instances[sub.InstanceID]
	e.mu.RUnlock()
	if !ok {
		return false
	}
	inst.mu.Lock()
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return false
	}
	tok := inst.Tokens[sub.TokenID]
	if tok == nil || tok.Wait != WaitMessage || tok.Elem != sub.Elem {
		inst.mu.Unlock()
		return false
	}
	for k, v := range vars {
		inst.Vars[k] = v
	}
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		e.finishStep(inst)
		return false
	}
	e.audit(&history.Event{Type: history.MessageCorrelated, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem,
		Data: map[string]any{"message": sub.Name, "key": sub.Key}})
	e.disarmToken(inst, tok)
	tok.Wait = WaitNone
	tok.Message = ""
	tok.CorrKey = ""
	if err := e.applyOutputs(inst, el, nil); err != nil {
		e.handleTaskError(inst, tok, proc, el, err)
		e.finishStep(inst)
		return true
	}
	e.elementCompleted(inst, el, tok.Elem, "")
	e.continueOutgoing(inst, tok, proc, el)
	e.finishStep(inst)
	return true
}

// armTokenTimer schedules the wake-up for a token parked at a timer
// catch event (TimerAt must be set).
func (e *Engine) armTokenTimer(inst *Instance, tok *Token) {
	instID, tokID := inst.ID, tok.ID
	tok.timerID = e.timers.Schedule(tok.TimerAt, func() {
		e.fireTokenTimer(instID, tokID)
	})
	e.audit(&history.Event{Type: history.TimerScheduled, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem,
		Data: map[string]any{"at": tok.TimerAt}})
}

// fireTokenTimer resumes a token parked at a timer catch event.
func (e *Engine) fireTokenTimer(instID string, tokID uint64) {
	if e.degraded.Load() {
		return // frozen: the timer re-arms from the journal after repair
	}
	e.mu.RLock()
	inst, ok := e.instances[instID]
	e.mu.RUnlock()
	if !ok {
		return
	}
	inst.mu.Lock()
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return
	}
	tok := inst.Tokens[tokID]
	if tok == nil || tok.Wait != WaitTimer {
		inst.mu.Unlock()
		return
	}
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.incident(inst, tok.Elem, err.Error())
		e.finishStep(inst)
		return
	}
	e.audit(&history.Event{Type: history.TimerFired, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: tok.Elem})
	tok.Wait = WaitNone
	tok.timerID = 0
	e.elementCompleted(inst, el, tok.Elem, "")
	e.continueOutgoing(inst, tok, proc, el)
	e.finishStep(inst)
}

// armBoundaries arms the boundary events of a busy activity on its
// token (timers scheduled, message subscriptions registered; error
// boundaries are matched synchronously in handleTaskError).
func (e *Engine) armBoundaries(inst *Instance, tok *Token, proc *model.Process, el *model.Element) {
	scope := scopeOf(tok.Elem)
	for _, bd := range proc.BoundaryEvents(el.ID) {
		arm := boundaryArm{
			Elem:      scope + bd.ID,
			Kind:      bd.Boundary,
			Interrupt: bd.CancelActivity,
			ErrorCode: bd.ErrorCode,
		}
		switch bd.Boundary {
		case model.BoundaryTimer:
			d, _ := time.ParseDuration(bd.Timer)
			arm.TimerAt = e.clock.Now().Add(d)
			instID, tokID, armElem := inst.ID, tok.ID, arm.Elem
			arm.timerID = e.timers.Schedule(arm.TimerAt, func() {
				e.fireBoundary(instID, tokID, armElem, nil)
			})
		case model.BoundaryMessage:
			key, err := e.corrKey(inst, bd, nil)
			if err != nil {
				e.incident(inst, tok.Elem, err.Error())
				return
			}
			arm.Message = bd.Message
			arm.CorrKey = key
			e.subs.add(subscription{
				Name: bd.Message, Key: key, InstanceID: inst.ID,
				TokenID: tok.ID, Elem: arm.Elem, Kind: subBoundary,
			})
		case model.BoundaryError:
			// Synchronous: nothing to arm.
			continue
		}
		tok.Boundaries = append(tok.Boundaries, arm)
	}
}

// fireBoundary triggers an armed boundary event on a busy activity.
func (e *Engine) fireBoundary(instID string, tokID uint64, armElem string, msgVars map[string]expr.Value) {
	if e.degraded.Load() {
		return // frozen: boundaries re-arm from the journal after repair
	}
	e.mu.RLock()
	inst, ok := e.instances[instID]
	e.mu.RUnlock()
	if !ok {
		return
	}
	inst.mu.Lock()
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return
	}
	tok := inst.Tokens[tokID]
	if tok == nil {
		inst.mu.Unlock()
		return
	}
	var arm *boundaryArm
	for i := range tok.Boundaries {
		if tok.Boundaries[i].Elem == armElem && !tok.Boundaries[i].Fired {
			arm = &tok.Boundaries[i]
			break
		}
	}
	if arm == nil {
		inst.mu.Unlock()
		return
	}
	for k, v := range msgVars {
		inst.Vars[k] = v
	}
	bproc, bel, err := e.resolve(inst, armElem)
	if err != nil {
		e.incident(inst, armElem, err.Error())
		e.finishStep(inst)
		return
	}
	if arm.Kind == model.BoundaryTimer {
		e.audit(&history.Event{Type: history.TimerFired, Time: e.clock.Now(),
			ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: armElem})
		if tok.WorkItemID != "" && arm.Interrupt {
			e.audit(&history.Event{Type: history.TaskEscalated, Time: e.clock.Now(),
				ProcessID: inst.ProcessID, InstanceID: inst.ID,
				ElementID: tok.Elem, TaskID: tok.WorkItemID})
		}
	} else {
		e.audit(&history.Event{Type: history.MessageCorrelated, Time: e.clock.Now(),
			ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: armElem})
	}
	if arm.Interrupt {
		// Cancel the host activity: work items, nested scope, MI
		// items, remaining arms — the token becomes the boundary
		// token.
		if tok.WorkItemID != "" {
			_, _ = e.tasks.Cancel(tok.WorkItemID, "interrupted by boundary event")
			tok.WorkItemID = ""
		}
		if tok.MI != nil {
			for _, id := range tok.MI.OpenItems {
				_, _ = e.tasks.Cancel(id, "interrupted by boundary event")
			}
			tok.MI = nil
		}
		if tok.Wait == WaitSubProc {
			prefix := tok.Elem + "/"
			for _, t := range inst.Tokens {
				if len(t.Elem) > len(prefix) && t.Elem[:len(prefix)] == prefix {
					e.cancelToken(inst, t, "interrupted by boundary event")
				}
			}
			for path := range inst.Joins {
				if len(path) > len(prefix) && path[:len(prefix)] == prefix {
					delete(inst.Joins, path)
				}
			}
		}
		e.disarmToken(inst, tok)
		tok.Wait = WaitNone
		tok.Elem = armElem
		e.elementCompleted(inst, bel, armElem, "")
		e.continueOutgoing(inst, tok, bproc, bel)
	} else {
		arm.Fired = true
		arm.timerID = 0
		spawn := inst.newToken(e, armElem)
		e.elementCompleted(inst, bel, armElem, "")
		e.continueOutgoing(inst, spawn, bproc, bel)
	}
	inst.dirty = true
	e.finishStep(inst)
}

// disarmToken cancels all volatile wait-state machinery of a token:
// its own timer, race arms, boundary arms, and message subscriptions.
func (e *Engine) disarmToken(inst *Instance, tok *Token) {
	if tok.timerID != 0 {
		e.timers.Cancel(tok.timerID)
		tok.timerID = 0
	}
	if tok.Wait == WaitMessage {
		e.subs.remove(inst.ID, tok.ID, tok.Elem)
	}
	for i := range tok.Race {
		if tok.Race[i].timerID != 0 {
			e.timers.Cancel(tok.Race[i].timerID)
		}
		if tok.Race[i].Message != "" {
			e.subs.remove(inst.ID, tok.ID, tok.Race[i].Elem)
		}
	}
	tok.Race = nil
	for i := range tok.Boundaries {
		if tok.Boundaries[i].timerID != 0 {
			e.timers.Cancel(tok.Boundaries[i].timerID)
		}
		if tok.Boundaries[i].Message != "" {
			e.subs.remove(inst.ID, tok.ID, tok.Boundaries[i].Elem)
		}
	}
	tok.Boundaries = nil
}
