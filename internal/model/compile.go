package model

import (
	"fmt"
	"sort"

	"bpms/internal/expr"
)

// Deploy-time expression compilation. A deployed process is immutable,
// so every expression it carries — flow conditions, output mappings,
// multi-instance collection/completion conditions, correlation keys —
// can be compiled exactly once and evaluated arbitrarily often. The
// engine calls Process.Compile from Deploy and journal recovery;
// runtime evaluation then goes through the accessors below, which serve
// the retained programs and return an error for an element or flow
// that was never compiled.

// OutputMapping is one compiled output assignment of an element, in
// deterministic (name-sorted) evaluation order.
type OutputMapping struct {
	Name    string
	Program *expr.Program
}

// compiledElement caches an element's compiled expression programs.
type compiledElement struct {
	outputs    []OutputMapping // sorted by Name
	collection *expr.Program   // Multi.Collection
	completion *expr.Program   // Multi.CompletionCondition
	corrKey    *expr.Program   // CorrelationKey
}

// Compile builds and retains the compiled programs for every
// expression in the process, recursing into sub-process bodies. It is
// idempotent and must be called again after structural mutation (like
// Index, which it implies for expression state). Definitions that
// passed Validate always compile cleanly.
func (p *Process) Compile() error {
	for _, f := range p.Flows {
		if f.Condition == "" {
			f.program = nil
			continue
		}
		prog, err := expr.Compile(f.Condition)
		if err != nil {
			return fmt.Errorf("model: flow %q condition: %w", f.ID, err)
		}
		f.program = prog
	}
	for _, e := range p.Elements {
		ce := &compiledElement{}
		if len(e.Outputs) > 0 {
			names := make([]string, 0, len(e.Outputs))
			for name := range e.Outputs {
				names = append(names, name)
			}
			sort.Strings(names)
			ce.outputs = make([]OutputMapping, 0, len(names))
			for _, name := range names {
				prog, err := expr.Compile(e.Outputs[name])
				if err != nil {
					return fmt.Errorf("model: element %q output %q: %w", e.ID, name, err)
				}
				ce.outputs = append(ce.outputs, OutputMapping{Name: name, Program: prog})
			}
		}
		if e.Multi != nil {
			if e.Multi.Collection != "" {
				prog, err := expr.Compile(e.Multi.Collection)
				if err != nil {
					return fmt.Errorf("model: element %q collection: %w", e.ID, err)
				}
				ce.collection = prog
			}
			if e.Multi.CompletionCondition != "" {
				prog, err := expr.Compile(e.Multi.CompletionCondition)
				if err != nil {
					return fmt.Errorf("model: element %q completion condition: %w", e.ID, err)
				}
				ce.completion = prog
			}
		}
		if e.CorrelationKey != "" {
			prog, err := expr.Compile(e.CorrelationKey)
			if err != nil {
				return fmt.Errorf("model: element %q correlation key: %w", e.ID, err)
			}
			ce.corrKey = prog
		}
		e.compiled = ce
		if e.SubProcess != nil {
			if err := e.SubProcess.Compile(); err != nil {
				return fmt.Errorf("model: sub-process %q: %w", e.ID, err)
			}
		}
	}
	return nil
}

// Compiled reports whether Compile has run on this process.
func (p *Process) Compiled() bool {
	for _, e := range p.Elements {
		return e.compiled != nil
	}
	return true // empty process: vacuously compiled
}

// Program returns the flow's compiled condition (nil when the flow is
// unconditional). A condition that was never compiled is an error, so
// it can never be skipped silently.
func (f *Flow) Program() (*expr.Program, error) {
	if f.Condition != "" && f.program == nil {
		return nil, fmt.Errorf("model: flow %q (%s -> %s) is not compiled", f.ID, f.From, f.To)
	}
	return f.program, nil
}

// notCompiled is the error of an accessor on an element Compile has not
// reached.
func (e *Element) notCompiled() error {
	return fmt.Errorf("model: element %q is not compiled", e.ID)
}

// OutputMappings returns the element's compiled output mappings in
// deterministic name order (nil when the element has none).
func (e *Element) OutputMappings() ([]OutputMapping, error) {
	if e.compiled == nil {
		return nil, e.notCompiled()
	}
	return e.compiled.outputs, nil
}

// CollectionProgram returns the compiled multi-instance collection
// expression (nil when the element has no multi-instance marker).
func (e *Element) CollectionProgram() (*expr.Program, error) {
	if e.compiled == nil {
		return nil, e.notCompiled()
	}
	return e.compiled.collection, nil
}

// CompletionProgram returns the compiled multi-instance completion
// condition (nil when none is declared).
func (e *Element) CompletionProgram() (*expr.Program, error) {
	if e.compiled == nil {
		return nil, e.notCompiled()
	}
	return e.compiled.completion, nil
}

// CorrelationProgram returns the compiled correlation-key expression
// (nil when the element declares none).
func (e *Element) CorrelationProgram() (*expr.Program, error) {
	if e.compiled == nil {
		return nil, e.notCompiled()
	}
	return e.compiled.corrKey, nil
}
