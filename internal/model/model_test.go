package model

import (
	"strings"
	"testing"
	"testing/quick"
)

func simpleProcess(t *testing.T) *Process {
	t.Helper()
	p, err := New("order").
		Name("Order handling").
		Start("start").
		UserTask("approve", Name("Approve order"), Role("manager"), DueIn("4h"), Priority(2)).
		ServiceTask("charge", "payments.charge", Retries(3)).
		XOR("decide", Default("toReject")).
		ServiceTask("ship", NoopHandler).
		ServiceTask("notify", NoopHandler).
		XOR("merge").
		End("end").
		Flow("start", "approve").
		Flow("approve", "charge").
		Flow("charge", "decide").
		FlowIf("decide", "ship", "amount > 100").
		FlowID("toReject", "decide", "notify", "").
		Flow("ship", "merge").
		Flow("notify", "merge").
		Flow("merge", "end").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderBuildsValidProcess(t *testing.T) {
	p := simpleProcess(t)
	if p.ID != "order" || p.Name != "Order handling" {
		t.Errorf("identity: %q %q", p.ID, p.Name)
	}
	if got := len(p.Elements); got != 8 {
		t.Errorf("elements = %d, want 8", got)
	}
	if got := len(p.Flows); got != 8 {
		t.Errorf("flows = %d, want 8", got)
	}
	if e := p.ElementByID("approve"); e == nil || e.Kind != KindUserTask || e.Role != "manager" {
		t.Errorf("approve element wrong: %+v", e)
	}
	if fs := p.Outgoing("decide"); len(fs) != 2 {
		t.Errorf("decide outgoing = %d, want 2", len(fs))
	}
	if fs := p.Incoming("merge"); len(fs) != 2 {
		t.Errorf("merge incoming = %d, want 2", len(fs))
	}
	st := p.Stats()
	if st.Tasks != 4 || st.Gateways != 2 || st.Events != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Process
		wantSub string
	}{
		{"no start", func() *Process {
			p := &Process{ID: "p", Elements: []*Element{{ID: "e", Kind: KindEndEvent}}}
			return p
		}, "no start event"},
		{"no end", func() *Process {
			return &Process{ID: "p", Elements: []*Element{{ID: "s", Kind: KindStartEvent}}}
		}, "no end event"},
		{"duplicate ids", func() *Process {
			return &Process{ID: "p", Elements: []*Element{
				{ID: "x", Kind: KindStartEvent}, {ID: "x", Kind: KindEndEvent},
			}}
		}, "duplicate element id"},
		{"dangling flow", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{{ID: "s", Kind: KindStartEvent}, {ID: "e", Kind: KindEndEvent}},
				Flows:    []*Flow{{ID: "f1", From: "s", To: "nowhere"}},
			}
		}, "unknown target"},
		{"bad condition", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{{ID: "s", Kind: KindStartEvent}, {ID: "e", Kind: KindEndEvent}},
				Flows:    []*Flow{{ID: "f1", From: "s", To: "e", Condition: "1 +"}},
			}
		}, "does not compile"},
		{"service task without handler", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{
					{ID: "s", Kind: KindStartEvent},
					{ID: "t", Kind: KindServiceTask},
					{ID: "e", Kind: KindEndEvent},
				},
				Flows: []*Flow{{ID: "f1", From: "s", To: "t"}, {ID: "f2", From: "t", To: "e"}},
			}
		}, "no handler"},
		{"bad timer", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{
					{ID: "s", Kind: KindStartEvent},
					{ID: "t", Kind: KindTimerCatchEvent, Timer: "soon"},
					{ID: "e", Kind: KindEndEvent},
				},
				Flows: []*Flow{{ID: "f1", From: "s", To: "t"}, {ID: "f2", From: "t", To: "e"}},
			}
		}, "bad duration"},
		{"unreachable element", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{
					{ID: "s", Kind: KindStartEvent},
					{ID: "island", Kind: KindServiceTask, Handler: "h"},
					{ID: "e", Kind: KindEndEvent},
				},
				Flows: []*Flow{{ID: "f1", From: "s", To: "e"}, {ID: "f2", From: "island", To: "e"}},
			}
		}, "unreachable from start"},
		{"boundary on unknown host", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{
					{ID: "s", Kind: KindStartEvent},
					{ID: "b", Kind: KindBoundaryEvent, AttachedTo: "ghost", Boundary: BoundaryTimer, Timer: "1h"},
					{ID: "e", Kind: KindEndEvent},
				},
				Flows: []*Flow{{ID: "f1", From: "s", To: "e"}, {ID: "f2", From: "b", To: "e"}},
			}
		}, "unknown activity"},
		{"default flow not outgoing", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{
					{ID: "s", Kind: KindStartEvent},
					{ID: "g", Kind: KindExclusiveGateway, DefaultFlow: "zzz"},
					{ID: "e", Kind: KindEndEvent},
				},
				Flows: []*Flow{{ID: "f1", From: "s", To: "g"}, {ID: "f2", From: "g", To: "e"}},
			}
		}, "default flow"},
		{"multi-instance without collection", func() *Process {
			return &Process{ID: "p",
				Elements: []*Element{
					{ID: "s", Kind: KindStartEvent},
					{ID: "t", Kind: KindServiceTask, Handler: "h", Multi: &MultiInstance{ElementVar: "x"}},
					{ID: "e", Kind: KindEndEvent},
				},
				Flows: []*Flow{{ID: "f1", From: "s", To: "t"}, {ID: "f2", From: "t", To: "e"}},
			}
		}, "no collection"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.build().Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tt.wantSub)
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error = %q, want substring %q", err, tt.wantSub)
			}
		})
	}
}

func TestValidateAcceptsGenerated(t *testing.T) {
	for _, p := range []*Process{
		Sequence(1), Sequence(10), Parallel(2), Parallel(8),
		Choice(3), Loop(), Mixed(),
		RandomStructured(1, 10), RandomStructured(7, 50), RandomStructured(42, 200),
		WithDeadlock(3), WithLackOfSync(3),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.ID, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := simpleProcess(t)
	data, err := EncodeJSON(orig)
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	got, err := DecodeJSON(data)
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	assertSameProcess(t, orig, got)
}

func TestXMLRoundTrip(t *testing.T) {
	orig := simpleProcess(t)
	data, err := EncodeXML(orig)
	if err != nil {
		t.Fatalf("EncodeXML: %v", err)
	}
	if !strings.Contains(string(data), "<userTask") || !strings.Contains(string(data), "sequenceFlow") {
		t.Errorf("XML does not look like BPMN:\n%s", data)
	}
	got, err := DecodeXML(data)
	if err != nil {
		t.Fatalf("DecodeXML: %v\n%s", err, data)
	}
	assertSameProcess(t, orig, got)
}

func TestXMLRoundTripComplexFeatures(t *testing.T) {
	sub, err := New("sub").
		Start("s").ScriptTask("calc", Output("y", "x * 2")).End("e").
		Seq("s", "calc", "e").Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New("complex").
		Start("start").
		SubProcess("inner", sub, Name("Inner")).
		UserTask("review", Role("qa"), MultiParallel("items", "item"), CompletionCondition("done == true")).
		BoundaryTimer("esc", "review", "2h", true).
		ServiceTask("fix", NoopHandler).
		MessageCatch("wait", "payment.received", CorrelationKey("orderId")).
		End("end").End("end2").
		Seq("start", "inner", "review", "wait", "end").
		Flow("esc", "fix").
		Flow("fix", "end2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, codec := range map[string]struct {
		enc func(*Process) ([]byte, error)
		dec func([]byte) (*Process, error)
	}{
		"json": {EncodeJSON, DecodeJSON},
		"xml":  {EncodeXML, DecodeXML},
	} {
		data, err := codec.enc(p)
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		got, err := codec.dec(data)
		if err != nil {
			t.Fatalf("%s decode: %v\n%s", name, err, data)
		}
		assertSameProcess(t, p, got)
		inner := got.ElementByID("inner")
		if inner.SubProcess == nil || inner.SubProcess.ElementByID("calc") == nil {
			t.Errorf("%s: sub-process lost", name)
		}
		review := got.ElementByID("review")
		if review.Multi == nil || !review.Multi.Parallel || review.Multi.CompletionCondition == "" {
			t.Errorf("%s: multi-instance lost: %+v", name, review.Multi)
		}
		esc := got.ElementByID("esc")
		if esc.Boundary != BoundaryTimer || !esc.CancelActivity || esc.AttachedTo != "review" {
			t.Errorf("%s: boundary lost: %+v", name, esc)
		}
	}
}

func assertSameProcess(t *testing.T, a, b *Process) {
	t.Helper()
	if a.ID != b.ID || a.Name != b.Name || a.Version != b.Version {
		t.Errorf("identity mismatch: %q/%q/%d vs %q/%q/%d", a.ID, a.Name, a.Version, b.ID, b.Name, b.Version)
	}
	if len(a.Elements) != len(b.Elements) {
		t.Fatalf("elements %d vs %d", len(a.Elements), len(b.Elements))
	}
	for i, ea := range a.Elements {
		eb := b.Elements[i]
		if ea.ID != eb.ID || ea.Kind != eb.Kind || ea.Role != eb.Role ||
			ea.Handler != eb.Handler || ea.Timer != eb.Timer || ea.Message != eb.Message {
			t.Errorf("element %d mismatch: %+v vs %+v", i, ea, eb)
		}
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("flows %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i, fa := range a.Flows {
		fb := b.Flows[i]
		if fa.ID != fb.ID || fa.From != fb.From || fa.To != fb.To || fa.Condition != fb.Condition {
			t.Errorf("flow %d mismatch: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestDecodeJSONRejectsBadKind(t *testing.T) {
	_, err := DecodeJSON([]byte(`{"id":"p","elements":[{"id":"x","kind":"warpDrive"}],"flows":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown element kind") {
		t.Errorf("err = %v, want unknown element kind", err)
	}
}

func TestDecodeXMLRejectsBadElement(t *testing.T) {
	_, err := DecodeXML([]byte(`<process id="p"><warpDrive id="x"/></process>`))
	if err == nil || !strings.Contains(err.Error(), "unknown element") {
		t.Errorf("err = %v, want unknown element", err)
	}
}

func TestClone(t *testing.T) {
	p := simpleProcess(t)
	c := p.Clone()
	assertSameProcess(t, p, c)
	// Mutating the clone must not affect the original.
	c.Elements[1].Role = "changed"
	c.Flows[0].To = "elsewhere"
	if p.Elements[1].Role == "changed" || p.Flows[0].To == "elsewhere" {
		t.Error("Clone shares state with original")
	}
}

func TestGeneratedTopologyShapes(t *testing.T) {
	seq := Sequence(5)
	if st := seq.Stats(); st.Tasks != 5 || st.Gateways != 0 {
		t.Errorf("Sequence(5) stats = %+v", st)
	}
	par := Parallel(4)
	if st := par.Stats(); st.Tasks != 4 || st.Gateways != 2 || st.MaxFanOut != 4 {
		t.Errorf("Parallel(4) stats = %+v", st)
	}
	ch := Choice(3)
	// Choice(3) has 3 guarded branches plus the default branch task t0.
	if st := ch.Stats(); st.Tasks != 4 || st.Conditions != 3 {
		t.Errorf("Choice(3) stats = %+v", st)
	}
}

// Property: RandomStructured always builds a valid process whose task
// count grows with the requested size.
func TestQuickRandomStructuredValid(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		size := int(sz%60) + 1
		p := RandomStructured(seed, size)
		if err := p.Validate(); err != nil {
			return false
		}
		return p.Stats().Tasks >= 1
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: JSON round-trips preserve generated processes.
func TestQuickJSONRoundTripGenerated(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		p := RandomStructured(seed, int(sz%40)+1)
		data, err := EncodeJSON(p)
		if err != nil {
			return false
		}
		q, err := DecodeJSON(data)
		if err != nil {
			return false
		}
		return len(q.Elements) == len(p.Elements) && len(q.Flows) == len(p.Flows)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindUserTask.IsTask() || !KindUserTask.IsActivity() || !KindUserTask.IsWait() {
		t.Error("user task predicates wrong")
	}
	if !KindParallelGateway.IsGateway() || KindParallelGateway.IsTask() {
		t.Error("gateway predicates wrong")
	}
	if !KindStartEvent.IsEvent() || KindStartEvent.IsActivity() {
		t.Error("event predicates wrong")
	}
	if !KindSubProcess.IsActivity() || KindSubProcess.IsTask() {
		t.Error("subprocess predicates wrong")
	}
	if KindServiceTask.IsWait() || !KindReceiveTask.IsWait() {
		t.Error("wait predicates wrong")
	}
	for k := KindStartEvent; k <= KindCallActivity; k++ {
		name := k.String()
		back, ok := KindFromName(name)
		if !ok || back != k {
			t.Errorf("KindFromName(%q) = %v, %v", name, back, ok)
		}
	}
}

// TestAccessorsNeedCompile: every expression accessor fails, naming its
// element or flow, until Compile has run, so an uncompiled condition or
// output is never skipped; afterwards each serves its program.
func TestAccessorsNeedCompile(t *testing.T) {
	p := New("compiled").
		Start("s").
		UserTask("review", MultiParallel("xs", "x"), CompletionCondition("done"), Output("seen", "true")).
		MessageCatch("paid", "payment", CorrelationKey("orderId")).
		End("e").
		Seq("s", "review").
		FlowIf("review", "paid", "amount > 1").
		Flow("paid", "e").
		MustBuild()
	review, paid := p.ElementByID("review"), p.ElementByID("paid")
	var guarded *Flow
	for _, f := range p.Flows {
		if f.Condition != "" {
			guarded = f
		}
	}
	type result struct {
		names string // what the error must name
		err   error
	}
	accessors := func() []result {
		_, outErr := review.OutputMappings()
		_, collErr := review.CollectionProgram()
		_, complErr := review.CompletionProgram()
		_, corrErr := paid.CorrelationProgram()
		_, flowErr := guarded.Program()
		return []result{{"review", outErr}, {"review", collErr}, {"review", complErr}, {"paid", corrErr}, {"review -> paid", flowErr}}
	}
	for i, r := range accessors() {
		if r.err == nil || !strings.Contains(r.err.Error(), r.names) {
			t.Errorf("uncompiled accessor %d: error %v, want one naming %s", i, r.err, r.names)
		}
	}
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	for i, r := range accessors() {
		if r.err != nil {
			t.Errorf("compiled accessor %d: %v", i, r.err)
		}
	}
	if outs, _ := review.OutputMappings(); len(outs) != 1 || outs[0].Name != "seen" {
		t.Errorf("compiled outputs = %+v", outs)
	}
	if prog, _ := guarded.Program(); prog == nil {
		t.Error("compiled condition is nil")
	}
}
