package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bpms/internal/expr"
	"bpms/internal/history"
)

// DeferRetirement makes e hand each retirement to hook instead of
// running it, so a test can read finished cases before they retire.
func DeferRetirement(e *Engine, hook func(retire func())) { e.retireHook = hook }

// DecodeRecord decodes a state journal or snapshot record as recovery
// does and, for a finished case, as a read of it does.
func DecodeRecord(p []byte) error {
	v, err := decodeRecoveryRecord(p)
	if f, ok := v.(*finishedRec); ok {
		_, err = parseState(f.state)
	}
	return err
}

// testSeqs holds each test engine's instance sequence (*Engine →
// *atomic.Uint64), standing in for the shard router's.
var testSeqs sync.Map

// newTestEngine builds and starts an engine over hist (nil for no
// audit trail) as the shard router builds a one-shard one. Its
// publisher delivers to the engine alone and buffers on it, and
// StartInstance numbers IDs past the recovered ones.
func newTestEngine(cfg Config, hist *history.Store) (*Engine, error) {
	var e *Engine
	cfg.Publisher = func(name, key string, vars map[string]expr.Value) (int, bool, error) {
		e.audit(&history.Event{Type: history.MessagePublished, Time: e.clock.Now(),
			Data: map[string]any{"message": name, "key": key}})
		if n := e.PublishLocal(name, key, vars); n > 0 {
			return n, false, nil
		}
		if err := e.BufferMessage(name, key, vars); err != nil {
			return 0, false, err
		}
		e.audit(&history.Event{Type: history.MessageBuffered, Time: e.clock.Now(),
			Data: map[string]any{"message": name, "key": key}})
		return 0, true, nil
	}
	cfg.BufferedMessages = func(name, key string) (map[string]expr.Value, bool) {
		return e.TakeBuffered(name, key)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.Start(hist)
	seq := new(atomic.Uint64)
	for _, id := range e.Instances() {
		if i := strings.LastIndex(id, "-"); i >= 0 {
			if n, err := strconv.ParseUint(id[i+1:], 10, 64); err == nil {
				seq.Store(max(seq.Load(), n))
			}
		}
	}
	testSeqs.Store(e, seq)
	return e, nil
}

// StartInstance starts an instance of processID under the engine's
// next test ID ("<processID>-<n>"), as the router's StartInstance does.
func (e *Engine) StartInstance(processID string, vars map[string]any) (*InstanceView, error) {
	seq, _ := testSeqs.Load(e)
	id := fmt.Sprintf("%s-%d", processID, seq.(*atomic.Uint64).Add(1))
	return e.StartInstanceID(processID, id, vars)
}

// Publish converts vars and publishes through the engine's publisher,
// as the router's Publish does.
func (e *Engine) Publish(name, key string, vars map[string]any) (int, bool, error) {
	converted, err := ConvertVars(vars)
	if err != nil {
		return 0, false, err
	}
	return e.publisher(name, key, converted)
}
