package engine

import (
	"fmt"
	"sync"
	"testing"

	"bpms/internal/expr"
	"bpms/internal/model"
)

// condHeavyWaiter is a condition-heavy definition whose every hot path
// exercises precompiled expressions: gateway conditions, script-task
// output mappings, a correlated message wait, and a multi-instance
// service task with a completion condition. All concurrent instances
// share the one deployed (compiled) definition.
func condHeavyWaiter() *model.Process {
	return model.New("cond-heavy").
		Start("s").
		ScriptTask("prep",
			model.Output("score", "amount * 2 + len(tags)"),
			model.Output("tier", `amount > 500 ? "gold" : "base"`)).
		XOR("route", model.Default("dflt")).
		ServiceTask("fan", model.NoopHandler,
			model.MultiParallel("tags", "tag"),
			model.CompletionCondition("loopCounter >= 2")).
		MessageCatch("wait", "go", model.CorrelationKey("key")).
		XOR("merge").
		End("e").
		Flow("s", "prep").
		Flow("prep", "route").
		FlowIf("route", "fan", `score > 100 && tier == "gold"`).
		FlowID("dflt", "route", "wait", "").
		Flow("fan", "merge").
		Flow("wait", "merge").
		Flow("merge", "e").
		MustBuild()
}

// TestConcurrentStartAndPublish runs StartInstance and Publish
// concurrently against one deployed definition so the race detector
// sees the shared precompiled programs being evaluated from many
// goroutines at once.
func TestConcurrentStartAndPublish(t *testing.T) {
	e, err := newTestEngine(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	if err := e.Deploy(condHeavyWaiter()); err != nil {
		t.Fatal(err)
	}

	const (
		workers       = 8
		perWorker     = 25
		goldPerWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)

	// Half the load: instances that take the default branch and park on
	// the correlated message, resumed by a concurrent Publish.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				v, err := e.StartInstance("cond-heavy", map[string]any{
					"amount": 10, "tags": []any{"a"}, "key": key,
				})
				if err != nil {
					errs <- err
					return
				}
				if v.Status != StatusActive {
					errs <- fmt.Errorf("waiter %s: status %s", key, v.Status)
					return
				}
				if _, _, err := e.Publish("go", key, map[string]any{"resumed": true}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// The other half: instances that satisfy the gateway condition and
	// run the multi-instance branch to completion synchronously.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < goldPerWorker; i++ {
				v, err := e.StartInstance("cond-heavy", map[string]any{
					"amount": 900, "tags": []any{"x", "y", "z", "q"},
				})
				if err != nil {
					errs <- err
					return
				}
				if v.Status != StatusCompleted {
					errs <- fmt.Errorf("gold instance status %s", v.Status)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every waiter must have completed after its Publish.
	for _, id := range e.Instances() {
		v, err := e.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusCompleted {
			t.Fatalf("instance %s ended %s", id, v.Status)
		}
	}
}

// TestDeployCompilesDefinition pins the deploy-time compilation
// contract: after Deploy the engine's copy of the definition holds
// precompiled programs for every expression it carries.
func TestDeployCompilesDefinition(t *testing.T) {
	e, err := newTestEngine(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	src := condHeavyWaiter()
	if src.Compiled() {
		t.Fatal("definition compiled before Deploy")
	}
	if err := e.Deploy(src); err != nil {
		t.Fatal(err)
	}
	def, ok := e.Definition("cond-heavy")
	if !ok {
		t.Fatal("definition not registered")
	}
	if !def.Compiled() {
		t.Fatal("deployed definition not compiled")
	}
	// The caller's copy stays untouched (Deploy clones).
	if src.Compiled() {
		t.Fatal("Deploy compiled the caller's copy in place")
	}
}
