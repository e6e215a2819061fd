package engine

import (
	"cmp"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
	"time"

	"bpms/internal/binrec"
	"bpms/internal/expr"
	"bpms/internal/model"
)

// Instance state records. encodeInstance writes the binary record
// below; the first byte tells it from a deploy record, since stateV2
// starts no JSON value. Strings are a uvarint length and their bytes,
// counts and numbers uvarints, times binrec.AppendTime.
//
//	stateV2
//	ID, ProcessID           strings
//	Status                  1 byte
//	StartedAt, EndedAt      times
//	Vars                    expr.AppendBinaryMap
//	tail                    present only when there are tokens or joins:
//	  binaryTail            1 byte
//	  tokens                count, then each token in ID order
//	  joins                 count, then each join element path in order:
//	                        the path, a count of flows, then each flow
//	                        ID in order with a count of token IDs and
//	                        the IDs
//
// A token is its ID, Elem, Wait (1 byte) and a mask byte, then each
// field the mask names, in this order; a field is present when it is
// not its zero value:
//
//	0x01 WorkItemID, 0x02 TimerAt, 0x04 Message, 0x08 CorrKey   as above
//	0x10 Race         count, then each arm: Elem, a mask (0x01 Message,
//	                  0x02 CorrKey, 0x04 TimerAt) and those fields
//	0x20 Boundaries   count, then each arm: Elem, Kind (1 byte), a mask
//	                  (0x01 Interrupt, 0x02 Fired, 0x04 Message,
//	                  0x08 CorrKey, 0x10 TimerAt, 0x20 ErrorCode) and
//	                  its fields
//	0x40 MI           Total, Done, NextIdx, a mask (0x01 Parallel,
//	                  0x02 Stopped), ElemVar, Items (a count and each
//	                  expr.AppendBinary), and the open work items: a
//	                  count, then each item's ID and collection index
//	0x80 ScopeLive
//
// A completed or cancelled case has neither tokens nor joins, so the
// journaled record is the archived one, byte for byte. Format 3 data
// dirs held the tail as JSON, {"tokens":…,"joins":…}; Upgrade rewrites
// it.
const (
	stateV2    = 0x02
	binaryTail = 0x01 // unlike '{', which began a format 3 tail
)

// Token, race arm and boundary arm mask bits.
const (
	tokWorkItem byte = 1 << iota
	tokTimer
	tokMessage
	tokCorrKey
	tokRace
	tokBoundaries
	tokMI
	tokScopeLive
)

const (
	armMessage byte = 1 << iota
	armCorrKey
	armTimer
)

const (
	bndInterrupt byte = 1 << iota
	bndFired
	bndMessage
	bndCorrKey
	bndTimer
	bndErrorCode
)

const (
	miParallel byte = 1 << iota
	miStopped
)

// encodeInstance appends inst's binary state record to buf. Tokens go
// in ID order, variables, joins and map keys in key order, so a case
// encodes to the same bytes however often it is rebuilt.
func encodeInstance(buf []byte, inst *Instance) []byte {
	buf = append(buf, stateV2)
	buf = binrec.AppendString(buf, inst.ID)
	buf = binrec.AppendString(buf, inst.ProcessID)
	buf = append(buf, byte(inst.Status))
	buf = binrec.AppendTime(buf, inst.StartedAt)
	buf = binrec.AppendTime(buf, inst.EndedAt)
	buf = expr.AppendBinaryMap(buf, inst.Vars)
	if len(inst.Tokens) == 0 && len(inst.Joins) == 0 {
		return buf
	}
	var small [8]*Token
	toks := small[:0]
	for _, tok := range inst.Tokens {
		toks = append(toks, tok)
	}
	slices.SortFunc(toks, func(a, b *Token) int { return cmp.Compare(a.ID, b.ID) })
	buf = binary.AppendUvarint(append(buf, binaryTail), uint64(len(toks)))
	for _, tok := range toks {
		buf = appendToken(buf, tok)
	}
	buf = binary.AppendUvarint(buf, uint64(len(inst.Joins)))
	for _, path := range slices.Sorted(maps.Keys(inst.Joins)) {
		flows := inst.Joins[path]
		buf = binary.AppendUvarint(binrec.AppendString(buf, path), uint64(len(flows)))
		for _, flow := range slices.Sorted(maps.Keys(flows)) {
			ids := flows[flow]
			buf = binary.AppendUvarint(binrec.AppendString(buf, flow), uint64(len(ids)))
			for _, id := range ids {
				buf = binary.AppendUvarint(buf, id)
			}
		}
	}
	return buf
}

// appendToken appends one token of a record's tail.
func appendToken(buf []byte, t *Token) []byte {
	buf = binary.AppendUvarint(buf, t.ID)
	buf = append(binrec.AppendString(buf, t.Elem), byte(t.Wait))
	mask := flag(t.WorkItemID != "", tokWorkItem) | flag(!t.TimerAt.IsZero(), tokTimer) | flag(t.Message != "", tokMessage) |
		flag(t.CorrKey != "", tokCorrKey) | flag(len(t.Race) > 0, tokRace) | flag(len(t.Boundaries) > 0, tokBoundaries) |
		flag(t.MI != nil, tokMI) | flag(t.ScopeLive != 0, tokScopeLive)
	buf = append(buf, mask)
	buf = appendOptString(buf, mask&tokWorkItem, t.WorkItemID)
	buf = appendOptTime(buf, mask&tokTimer, t.TimerAt)
	buf = appendOptString(buf, mask&tokMessage, t.Message)
	buf = appendOptString(buf, mask&tokCorrKey, t.CorrKey)
	if mask&tokRace != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(t.Race)))
		for _, a := range t.Race {
			buf = binrec.AppendString(buf, a.Elem)
			m := flag(a.Message != "", armMessage) | flag(a.CorrKey != "", armCorrKey) | flag(!a.TimerAt.IsZero(), armTimer)
			buf = appendOptString(append(buf, m), m&armMessage, a.Message)
			buf = appendOptString(buf, m&armCorrKey, a.CorrKey)
			buf = appendOptTime(buf, m&armTimer, a.TimerAt)
		}
	}
	if mask&tokBoundaries != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(t.Boundaries)))
		for _, a := range t.Boundaries {
			buf = append(binrec.AppendString(buf, a.Elem), byte(a.Kind))
			m := flag(a.Interrupt, bndInterrupt) | flag(a.Fired, bndFired) | flag(a.Message != "", bndMessage) |
				flag(a.CorrKey != "", bndCorrKey) | flag(!a.TimerAt.IsZero(), bndTimer) | flag(a.ErrorCode != "", bndErrorCode)
			buf = appendOptString(append(buf, m), m&bndMessage, a.Message)
			buf = appendOptString(buf, m&bndCorrKey, a.CorrKey)
			buf = appendOptTime(buf, m&bndTimer, a.TimerAt)
			buf = appendOptString(buf, m&bndErrorCode, a.ErrorCode)
		}
	}
	if mi := t.MI; mi != nil {
		for _, n := range [...]int{mi.Total, mi.Done, mi.NextIdx} {
			buf = binary.AppendUvarint(buf, uint64(n))
		}
		buf = append(buf, flag(mi.Parallel, miParallel)|flag(mi.Stopped, miStopped))
		buf = binary.AppendUvarint(binrec.AppendString(buf, mi.ElemVar), uint64(len(mi.Items)))
		for _, v := range mi.Items {
			buf = expr.AppendBinary(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(len(mi.OpenItems)))
		for _, id := range mi.OpenItems {
			buf = binary.AppendUvarint(binrec.AppendString(buf, id), uint64(mi.ItemIdx[id]))
		}
	}
	if mask&tokScopeLive != 0 {
		buf = binary.AppendUvarint(buf, uint64(t.ScopeLive))
	}
	return buf
}

func flag(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

func appendOptString(buf []byte, present byte, s string) []byte {
	if present == 0 {
		return buf
	}
	return binrec.AppendString(buf, s)
}

func appendOptTime(buf []byte, present byte, t time.Time) []byte {
	if present == 0 {
		return buf
	}
	return binrec.AppendTime(buf, t)
}

// readStateHead reads a binary record's identity and status where they
// lie, returning the offset of the times that follow. It declines a
// record that is not binary, is truncated there, or has an unknown
// status.
func readStateHead(p []byte) (id, processID []byte, status Status, next int, ok bool) {
	if len(p) == 0 || p[0] != stateV2 {
		return nil, nil, 0, 0, false
	}
	i := 1
	if id, i, ok = binrec.Field(p, i); !ok {
		return nil, nil, 0, 0, false
	}
	if processID, i, ok = binrec.Field(p, i); !ok || i == len(p) || Status(p[i]) > StatusFaulted {
		return nil, nil, 0, 0, false
	}
	return id, processID, Status(p[i]), i + 1, true
}

var errMalformedState = errors.New("engine: decode instance state: malformed binary record")

// parseStateHead decodes a record up to its tail: identity, status,
// times and variables, returning the offset where a tail would begin.
func parseStateHead(p []byte) (*instState, int, error) {
	id, pid, status, i, ok := readStateHead(p)
	if !ok {
		return nil, 0, errMalformedState
	}
	st := &instState{ID: string(id), ProcessID: string(pid), Status: status}
	var started, ended binrec.Stamp
	if started, i, ok = binrec.ReadStamp(p, i); !ok {
		return nil, 0, errMalformedState
	}
	if ended, i, ok = binrec.ReadStamp(p, i); !ok {
		return nil, 0, errMalformedState
	}
	st.StartedAt, st.EndedAt = started.Time(), ended.Time()
	if st.Vars, i, ok = expr.ReadBinaryMap(p, i); !ok {
		return nil, 0, errMalformedState
	}
	return st, i, nil
}

// parseState decodes a whole instance state record. It declines what
// encodeInstance cannot have written: a truncated or over-long tail, an
// empty one, an unknown wait or boundary kind, tokens out of ID order,
// keys out of order, a field the mask names holding its zero value, or
// an open work item whose index is past the collection.
func parseState(p []byte) (*instState, error) {
	st, i, err := parseStateHead(p)
	if err != nil || i == len(p) {
		return st, err
	}
	if p[i] != binaryTail {
		return nil, errMalformedState
	}
	// The tail's strings share one copy of its bytes.
	r := tailReader{p: p, s: string(p[i+1:]), base: i + 1, i: i + 1, ok: true}
	st.Tokens = r.tokens()
	st.Joins = r.joins()
	if !r.ok || r.i != len(p) || (len(st.Tokens) == 0 && len(st.Joins) == 0) {
		return nil, errMalformedState
	}
	return st, nil
}

// tailReader reads a record's tail. The first field that does not read
// clears ok, and every later read returns a zero value, so a caller
// checks ok once at the end.
type tailReader struct {
	p    []byte
	s    string // p[base:] as a string
	base int
	i    int
	ok   bool
}

func (r *tailReader) fail() { r.ok = false }

func (r *tailReader) uvarint() uint64 {
	if !r.ok {
		return 0
	}
	v, i, ok := binrec.Uvarint(r.p, r.i)
	if !ok {
		r.fail()
		return 0
	}
	r.i = i
	return v
}

// int reads a uvarint that fits an int.
func (r *tailReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail()
		return 0
	}
	return int(v)
}

// count reads a count of items that each take at least one byte.
func (r *tailReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.p)-r.i) {
		r.fail()
		return 0
	}
	return int(n)
}

// nonZeroCount is count for a field the mask names, which holds one
// item at least.
func (r *tailReader) nonZeroCount() int {
	n := r.count()
	if n == 0 {
		r.fail()
	}
	return n
}

func (r *tailReader) byte() byte {
	if !r.ok || r.i >= len(r.p) {
		r.fail()
		return 0
	}
	r.i++
	return r.p[r.i-1]
}

func (r *tailReader) str() string {
	if !r.ok {
		return ""
	}
	f, i, ok := binrec.Field(r.p, r.i)
	if !ok {
		r.fail()
		return ""
	}
	r.i = i
	return r.s[i-len(f)-r.base : i-r.base]
}

func (r *tailReader) value() expr.Value {
	if !r.ok {
		return expr.Null
	}
	v, i, ok := expr.ReadBinary(r.p, r.i)
	if !ok {
		r.fail()
		return expr.Null
	}
	r.i = i
	return v
}

// optString reads a string when present is set, declining an empty one.
func (r *tailReader) optString(present byte) string {
	if present == 0 {
		return ""
	}
	s := r.str()
	if s == "" {
		r.fail()
	}
	return s
}

// optTime reads a time when present is set, declining the zero instant.
func (r *tailReader) optTime(present byte) time.Time {
	if present == 0 || !r.ok {
		return time.Time{}
	}
	s, i, ok := binrec.ReadStamp(r.p, r.i)
	t := s.Time()
	if !ok || t.IsZero() {
		r.fail()
		return time.Time{}
	}
	r.i = i
	return t
}

func (r *tailReader) tokens() []*Token {
	n := r.count()
	if n == 0 {
		return nil
	}
	slab := make([]Token, n)
	toks := make([]*Token, n)
	for k := range slab {
		t := &slab[k]
		t.ID = r.uvarint()
		t.Elem = r.str()
		t.Wait = WaitKind(r.byte())
		mask := r.byte()
		t.WorkItemID = r.optString(mask & tokWorkItem)
		t.TimerAt = r.optTime(mask & tokTimer)
		t.Message = r.optString(mask & tokMessage)
		t.CorrKey = r.optString(mask & tokCorrKey)
		if mask&tokRace != 0 {
			t.Race = make([]raceArm, r.nonZeroCount())
			for a := range t.Race {
				arm := &t.Race[a]
				arm.Elem = r.str()
				m := r.byte()
				arm.Message = r.optString(m & armMessage)
				arm.CorrKey = r.optString(m & armCorrKey)
				arm.TimerAt = r.optTime(m & armTimer)
				if m >= armTimer<<1 {
					r.fail()
				}
			}
		}
		if mask&tokBoundaries != 0 {
			t.Boundaries = make([]boundaryArm, r.nonZeroCount())
			for a := range t.Boundaries {
				arm := &t.Boundaries[a]
				arm.Elem = r.str()
				arm.Kind = model.BoundaryKind(r.byte())
				m := r.byte()
				arm.Interrupt, arm.Fired = m&bndInterrupt != 0, m&bndFired != 0
				arm.Message = r.optString(m & bndMessage)
				arm.CorrKey = r.optString(m & bndCorrKey)
				arm.TimerAt = r.optTime(m & bndTimer)
				arm.ErrorCode = r.optString(m & bndErrorCode)
				if arm.Kind > model.BoundaryMessage || m >= bndErrorCode<<1 {
					r.fail()
				}
			}
		}
		if mask&tokMI != 0 {
			t.MI = r.multi()
		}
		if mask&tokScopeLive != 0 {
			if t.ScopeLive = r.int(); t.ScopeLive == 0 {
				r.fail()
			}
		}
		if !r.ok || t.Wait > WaitSubProc || (k > 0 && t.ID <= slab[k-1].ID) {
			r.fail()
			return nil
		}
		toks[k] = t
	}
	return toks
}

func (r *tailReader) multi() *miState {
	mi := &miState{Total: r.int(), Done: r.int(), NextIdx: r.int()}
	m := r.byte()
	mi.Parallel, mi.Stopped = m&miParallel != 0, m&miStopped != 0
	mi.ElemVar = r.str()
	if n := r.count(); n > 0 {
		mi.Items = make([]expr.Value, n)
		for k := range mi.Items {
			mi.Items[k] = r.value()
		}
	}
	n := r.count()
	mi.ItemIdx = make(map[string]int, n)
	if n > 0 {
		mi.OpenItems = make([]string, n)
	}
	for k := range mi.OpenItems {
		id, idx := r.str(), r.int()
		if idx >= len(mi.Items) {
			r.fail()
		}
		mi.OpenItems[k], mi.ItemIdx[id] = id, idx
	}
	if m >= miStopped<<1 {
		r.fail()
	}
	return mi
}

func (r *tailReader) joins() map[string]map[string][]uint64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	joins := make(map[string]map[string][]uint64, n)
	prev := ""
	for k := 0; k < n && r.ok; k++ {
		path := r.str()
		if k > 0 && path <= prev {
			r.fail()
		}
		prev = path
		nf := r.count()
		flows := make(map[string][]uint64, nf)
		prevFlow := ""
		for f := 0; f < nf && r.ok; f++ {
			flow := r.str()
			if f > 0 && flow <= prevFlow {
				r.fail()
			}
			prevFlow = flow
			var ids []uint64
			if c := r.count(); c > 0 {
				ids = make([]uint64, c)
			}
			for x := range ids {
				ids[x] = r.uvarint()
			}
			flows[flow] = ids
		}
		joins[path] = flows
	}
	return joins
}
