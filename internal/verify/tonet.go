// Package verify implements formal verification of process definitions
// against workflow-net semantics: the classic soundness property
// (option to complete, proper completion, no dead transitions) of
// van der Aalst, checked on the Petri-net translation of the model,
// with a liveness/boundedness-preserving reduction pre-pass as a fast
// path.
//
// The translation follows the standard BPMN→WF-net mapping. Constructs
// whose semantics are not expressible in place/transition nets are
// over-approximated and reported as warnings:
//
//   - inclusive (OR) gateways use non-empty-subset split/merge semantics;
//   - interrupting boundary events on sub-processes cancel only the busy
//     token, not interior tokens;
//   - multi-instance activities verify as a single instance;
//   - call activities verify as atomic tasks;
//   - terminate end events verify as plain end events.
package verify

import (
	"fmt"

	"bpms/internal/model"
	"bpms/internal/petri"
)

// SourcePlace and SinkPlace are the names of the WF-net's unique
// source (i) and sink (o) places in the translated net.
const (
	SourcePlace = "i"
	SinkPlace   = "o"
)

// NetMap relates the translated net back to the process model for
// diagnostics: each transition belongs to exactly one element.
type NetMap struct {
	// ElementOf maps a transition name to the originating element ID.
	ElementOf map[string]string
}

// maxInclusiveFanout caps the subset expansion of inclusive gateways
// (2^n - 1 transitions).
const maxInclusiveFanout = 12

// maxNonInterrupting caps the non-interrupting boundary events of one
// activity, whose exits each take 2^n variants.
const maxNonInterrupting = 6

// translator builds a Petri net from a process model.
type translator struct {
	b        *petri.Builder
	nm       *NetMap
	warnings []string
}

func (tr *translator) warnf(format string, args ...any) {
	tr.warnings = append(tr.warnings, fmt.Sprintf(format, args...))
}

// transition registers a transition and records its owning element.
func (tr *translator) transition(name, elementID string) petri.TransitionID {
	t := tr.b.AddTransition(name)
	tr.nm.ElementOf[name] = elementID
	return t
}

// ToNet translates a validated process definition into a workflow net
// with source place "i" and sink place "o". It returns the net, the
// diagnostic map, and any approximation warnings.
func ToNet(p *model.Process) (*petri.Net, *NetMap, []string, error) {
	tr := &translator{
		b:  petri.NewBuilder(),
		nm: &NetMap{ElementOf: map[string]string{}},
	}
	source := tr.b.AddPlace(SourcePlace)
	sink := tr.b.AddPlace(SinkPlace)
	if err := tr.process(p, "", source, sink); err != nil {
		return nil, nil, nil, err
	}
	return tr.b.Build(), tr.nm, tr.warnings, nil
}

// process translates one process body. prefix namespaces sub-process
// elements; entry and exit are the places standing for the body's
// source and sink.
func (tr *translator) process(p *model.Process, prefix string, entry, exit petri.PlaceID) error {
	p.Index()
	flowPlace := func(f *model.Flow) petri.PlaceID {
		return tr.b.AddPlace(prefix + "f:" + f.ID)
	}
	inPlaces := func(id string) []petri.PlaceID {
		flows := p.Incoming(id)
		out := make([]petri.PlaceID, len(flows))
		for i, f := range flows {
			out[i] = flowPlace(f)
		}
		return out
	}
	outPlaces := func(id string) []petri.PlaceID {
		flows := p.Outgoing(id)
		out := make([]petri.PlaceID, len(flows))
		for i, f := range flows {
			out[i] = flowPlace(f)
		}
		return out
	}

	// A non-interrupting boundary event starts a branch beside the one
	// it is attached to, and a body ends when its last branch does. Each
	// such event b has a free place, marked by the start, and an extra
	// place: firing moves the token from free to extra (so b starts one
	// branch at a time), and an end event a branch reaches while extra
	// is marked moves it back. An end event reaching exit takes every
	// free token, so only the last branch's end completes the body. The
	// ends b's branch can be counted at are those reachable from b or
	// from its activity.
	type spawn struct {
		free, extra petri.PlaceID
		id          string
		reach       map[string]bool
	}
	var spawns []spawn
	for _, e := range p.Elements {
		if e.Kind != model.KindBoundaryEvent || e.CancelActivity {
			continue
		}
		tr.warnf("non-interrupting boundary event %q verified as starting its branch again only once the last one ended", prefix+e.ID)
		spawns = append(spawns, spawn{tr.b.AddPlace(prefix + "free:" + e.ID), tr.b.AddPlace(prefix + "extra:" + e.ID),
			e.ID, reachable(p, e.ID, e.AttachedTo)})
	}

	for _, e := range p.Elements {
		qid := prefix + e.ID
		switch e.Kind {
		case model.KindStartEvent:
			t := tr.transition(qid, qid)
			tr.b.ArcPT(entry, t)
			for _, o := range outPlaces(e.ID) {
				tr.b.ArcTP(t, o)
			}
			for _, sp := range spawns {
				tr.b.ArcTP(t, sp.free)
			}
		case model.KindEndEvent, model.KindTerminateEnd:
			if e.Kind == model.KindTerminateEnd {
				tr.warnf("terminate end %q verified as a plain end event", qid)
			}
			// Implicit XOR-join: one transition per incoming flow, and
			// one per flow and branch it may end while others run.
			for i, pin := range inPlaces(e.ID) {
				t := tr.transition(fmt.Sprintf("%s#%d", qid, i), qid)
				tr.b.ArcPT(pin, t)
				for _, sp := range spawns {
					tr.b.ArcPT(sp.free, t)
				}
				tr.b.ArcTP(t, exit)
				for _, sp := range spawns {
					if !sp.reach[e.ID] {
						continue
					}
					t := tr.transition(fmt.Sprintf("%s#%d~%s", qid, i, sp.id), qid)
					tr.b.ArcPT(pin, t)
					tr.b.ArcPT(sp.extra, t)
					tr.b.ArcTP(t, sp.free)
				}
			}
		case model.KindExclusiveGateway, model.KindEventGateway:
			// One transition per (incoming, outgoing) pair.
			for i, pin := range inPlaces(e.ID) {
				for j, pout := range outPlaces(e.ID) {
					t := tr.transition(fmt.Sprintf("%s#%d>%d", qid, i, j), qid)
					tr.b.ArcPT(pin, t)
					tr.b.ArcTP(t, pout)
				}
			}
		case model.KindParallelGateway:
			t := tr.transition(qid, qid)
			for _, pin := range inPlaces(e.ID) {
				tr.b.ArcPT(pin, t)
			}
			for _, pout := range outPlaces(e.ID) {
				tr.b.ArcTP(t, pout)
			}
		case model.KindBoundaryEvent:
			// Encoded by the host activity.
			continue
		case model.KindInclusiveGateway:
			if err := tr.inclusive(p, prefix, e, inPlaces(e.ID), outPlaces(e.ID)); err != nil {
				return err
			}
		case model.KindSubProcess:
			if err := tr.subProcess(p, prefix, e, inPlaces(e.ID), outPlaces(e.ID)); err != nil {
				return err
			}
		default:
			// All task and intermediate-event kinds share the activity
			// encoding (with implicit XOR-join / parallel-out).
			if err := tr.activity(p, prefix, e, inPlaces(e.ID), outPlaces(e.ID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// activity encodes a task or intermediate event. When the node has one
// incoming flow and no boundary events it is a single transition; the
// general case uses enter transitions into a busy place, left by a done
// transition or by an interrupting boundary event (see boundaries).
func (tr *translator) activity(p *model.Process, prefix string, e *model.Element, ins, outs []petri.PlaceID) error {
	qid := prefix + e.ID
	if e.Multi != nil {
		tr.warnf("multi-instance activity %q verified as a single instance", qid)
	}
	if e.Kind == model.KindCallActivity {
		tr.warnf("call activity %q verified as an atomic task", qid)
	}
	bds := p.BoundaryEvents(e.ID)
	if len(bds) == 0 && len(ins) == 1 {
		t := tr.transition(qid, qid)
		tr.b.ArcPT(ins[0], t)
		for _, o := range outs {
			tr.b.ArcTP(t, o)
		}
		return nil
	}
	busy := tr.b.AddPlace(prefix + "busy:" + e.ID)
	return tr.boundaries(p, prefix, e, busy, ins, nil, nil, outs)
}

// boundaries encodes the entry and exits of an activity or sub-process
// e with its boundary events. Each incoming place gets an enter
// transition that marks busy and, besides, the places in enter. The
// done transition takes busy and the places in done and marks outs; an
// interrupting boundary event takes busy and marks its flows.
//
// A non-interrupting boundary event fires at most once per activation,
// and leaves the activation running: enter marks its arm, and firing
// moves the arm's token to its fired place. Whichever exit ends the
// activation collects that token from the arm or from the fired place,
// so every exit comes in one variant per subset of the non-interrupting
// boundary events that fired.
func (tr *translator) boundaries(p *model.Process, prefix string, e *model.Element, busy petri.PlaceID, ins, enter, done, outs []petri.PlaceID) error {
	qid := prefix + e.ID
	bds := p.BoundaryEvents(e.ID)
	var arms, fired []petri.PlaceID
	for _, bd := range bds {
		if !bd.CancelActivity {
			arms = append(arms, tr.b.AddPlace(prefix+"arm:"+bd.ID))
			fired = append(fired, tr.b.AddPlace(prefix+"fired:"+bd.ID))
		}
	}
	if len(arms) > maxNonInterrupting {
		return fmt.Errorf("verify: %q has more than %d non-interrupting boundary events", qid, maxNonInterrupting)
	}
	for i, pin := range ins {
		t := tr.transition(fmt.Sprintf("%s#enter%d", qid, i), qid)
		tr.b.ArcPT(pin, t)
		tr.b.ArcTP(t, busy)
		for _, pl := range append(enter, arms...) {
			tr.b.ArcTP(t, pl)
		}
	}
	exit := func(name, elementID string, from []petri.PlaceID, to []petri.PlaceID) {
		for mask := 0; mask < 1<<len(arms); mask++ {
			tn := name
			if mask > 0 {
				tn = fmt.Sprintf("%s#fired%d", name, mask)
			}
			t := tr.transition(tn, elementID)
			for _, pl := range from {
				tr.b.ArcPT(pl, t)
			}
			for i := range arms {
				if mask&(1<<i) != 0 {
					tr.b.ArcPT(fired[i], t)
				} else {
					tr.b.ArcPT(arms[i], t)
				}
			}
			for _, o := range to {
				tr.b.ArcTP(t, o)
			}
		}
	}
	exit(qid, qid, append([]petri.PlaceID{busy}, done...), outs)
	armed := 0
	for _, bd := range bds {
		bqid := prefix + bd.ID
		var to []petri.PlaceID
		for _, f := range p.Outgoing(bd.ID) {
			to = append(to, tr.b.AddPlace(prefix+"f:"+f.ID))
		}
		if bd.CancelActivity {
			exit(bqid, bqid, []petri.PlaceID{busy}, to)
			continue
		}
		t := tr.transition(bqid, bqid)
		tr.b.ArcPT(arms[armed], t)
		tr.b.ArcPT(tr.b.AddPlace(prefix+"free:"+bd.ID), t) // see process
		tr.b.ArcTP(t, fired[armed])
		tr.b.ArcTP(t, tr.b.AddPlace(prefix+"extra:"+bd.ID))
		for _, o := range to {
			tr.b.ArcTP(t, o)
		}
		armed++
	}
	return nil
}

// subProcess inlines the body net between the parent's flows.
func (tr *translator) subProcess(p *model.Process, prefix string, e *model.Element, ins, outs []petri.PlaceID) error {
	qid := prefix + e.ID
	subPrefix := qid + "/"
	subEntry := tr.b.AddPlace(subPrefix + SourcePlace)
	subExit := tr.b.AddPlace(subPrefix + SinkPlace)
	for _, bd := range p.BoundaryEvents(e.ID) {
		if bd.CancelActivity {
			tr.warnf("boundary events on sub-process %q cancel only the busy token, not interior tokens", qid)
			break
		}
	}
	busy := tr.b.AddPlace(prefix + "busy:" + e.ID)
	if err := tr.boundaries(p, prefix, e, busy, ins, []petri.PlaceID{subEntry}, []petri.PlaceID{subExit}, outs); err != nil {
		return err
	}
	return tr.process(e.SubProcess, subPrefix, subEntry, subExit)
}

// reachable returns the elements of p reachable from the given ones,
// themselves included, along flows and from an activity to its boundary
// events.
func reachable(p *model.Process, from ...string) map[string]bool {
	seen := map[string]bool{}
	for len(from) > 0 {
		id := from[len(from)-1]
		from = from[:len(from)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, f := range p.Outgoing(id) {
			from = append(from, f.To)
		}
		for _, bd := range p.BoundaryEvents(id) {
			from = append(from, bd.ID)
		}
	}
	return seen
}

// inclusive encodes an OR gateway with non-empty-subset semantics on
// both sides, warning about the approximation.
func (tr *translator) inclusive(p *model.Process, prefix string, e *model.Element, ins, outs []petri.PlaceID) error {
	qid := prefix + e.ID
	if len(ins) > maxInclusiveFanout || len(outs) > maxInclusiveFanout {
		return fmt.Errorf("verify: inclusive gateway %q fan-in/out exceeds %d", qid, maxInclusiveFanout)
	}
	tr.warnf("inclusive gateway %q approximated with subset split/merge semantics", qid)
	// Center place decouples join subsets from split subsets.
	center := tr.b.AddPlace(prefix + "or:" + e.ID)
	if len(ins) == 1 {
		t := tr.transition(qid+"#in", qid)
		tr.b.ArcPT(ins[0], t)
		tr.b.ArcTP(t, center)
	} else {
		for mask := 1; mask < 1<<len(ins); mask++ {
			t := tr.transition(fmt.Sprintf("%s#in%d", qid, mask), qid)
			for i, pin := range ins {
				if mask&(1<<i) != 0 {
					tr.b.ArcPT(pin, t)
				}
			}
			tr.b.ArcTP(t, center)
		}
	}
	if len(outs) == 1 {
		t := tr.transition(qid+"#out", qid)
		tr.b.ArcPT(center, t)
		tr.b.ArcTP(t, outs[0])
	} else {
		for mask := 1; mask < 1<<len(outs); mask++ {
			t := tr.transition(fmt.Sprintf("%s#out%d", qid, mask), qid)
			tr.b.ArcPT(center, t)
			for i, pout := range outs {
				if mask&(1<<i) != 0 {
					tr.b.ArcTP(t, pout)
				}
			}
		}
	}
	return nil
}
