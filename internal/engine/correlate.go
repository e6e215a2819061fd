package engine

import (
	"fmt"
	"slices"
	"sync"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
)

// subPoint is a correlation point: a message name and key.
type subPoint struct {
	name, key string
}

// waiter is a token waiting at a correlation point: its own message wait
// when elem is the token's element, else one of its race or boundary
// arms (see wake).
type waiter struct {
	inst string
	tok  uint64
	elem string
}

// subscriptions is the engine's correlation registry plus a bounded
// buffer for early messages (published before a consumer subscribes).
type subscriptions struct {
	mu       sync.Mutex
	waiting  map[subPoint][]waiter
	owners   map[waiter][]subPoint // indexes waiting by waiter for remove
	buffered map[subPoint][]map[string]expr.Value
	maxBuf   int
}

func newSubscriptions() *subscriptions {
	return &subscriptions{
		waiting:  map[subPoint][]waiter{},
		owners:   map[waiter][]subPoint{},
		buffered: map[subPoint][]map[string]expr.Value{},
		maxBuf:   10000,
	}
}

func (s *subscriptions) add(p subPoint, w waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waiting[p] = append(s.waiting[p], w)
	s.owners[w] = append(s.owners[w], p)
}

func (s *subscriptions) remove(w waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	points := s.owners[w]
	delete(s.owners, w)
	for _, p := range points {
		kept := slices.DeleteFunc(s.waiting[p], func(x waiter) bool { return x == w })
		if len(kept) == 0 {
			delete(s.waiting, p)
		} else {
			s.waiting[p] = kept
		}
	}
}

// take pops all waiters at a point.
func (s *subscriptions) take(name, key string) []waiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := subPoint{name, key}
	ws := s.waiting[p]
	delete(s.waiting, p)
	for _, w := range ws {
		points := s.owners[w]
		if i := slices.Index(points, p); i >= 0 {
			points = slices.Delete(points, i, i+1)
		}
		if len(points) == 0 {
			delete(s.owners, w)
		} else {
			s.owners[w] = points
		}
	}
	return ws
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
		e.auditAt(inst, history.MessageCorrelated, tok.Elem,
			map[string]any{"message": el.Message, "key": key, "buffered": true})
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
	e.parkActivity(inst, tok, proc, el)
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
	delivered := 0
	for _, w := range e.subs.take(name, key) {
		if e.wake(w, vars) {
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
