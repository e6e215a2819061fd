package engine

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"bpms/internal/binrec"
	"bpms/internal/expr"
)

// Instance state records. encodeInstance writes the binary record
// below; the first byte tells it from a deploy record, since stateV2
// starts no JSON value.
//
//	stateV2
//	ID, ProcessID           uvarint length + bytes each
//	Status                  1 byte
//	StartedAt, EndedAt      binrec.AppendTime each
//	Vars                    expr.AppendBinaryMap
//	tail                    {"tokens":…,"joins":…} JSON to the end,
//	                        present only when there are tokens or joins
//
// A completed or cancelled case has neither, so its record holds no
// JSON at all; the journaled record is the archived one, byte for byte.
const stateV2 = 0x02

// stateTail is the JSON tail of a record: what only a live case (or a
// faulted one, kept for forensics) has.
type stateTail struct {
	Tokens []*Token                       `json:"tokens,omitempty"`
	Joins  map[string]map[string][]uint64 `json:"joins,omitempty"`
}

// encodeInstance appends inst's binary state record to buf. Tokens go
// in ID order, variables and map keys in key order, so a case encodes to
// the same bytes however often it is rebuilt.
func encodeInstance(buf []byte, inst *Instance) ([]byte, error) {
	buf = append(buf, stateV2)
	buf = binrec.AppendString(buf, inst.ID)
	buf = binrec.AppendString(buf, inst.ProcessID)
	buf = append(buf, byte(inst.Status))
	buf = binrec.AppendTime(buf, inst.StartedAt)
	buf = binrec.AppendTime(buf, inst.EndedAt)
	buf = expr.AppendBinaryMap(buf, inst.Vars)
	if len(inst.Tokens) == 0 && len(inst.Joins) == 0 {
		return buf, nil
	}
	tail := stateTail{Joins: inst.Joins, Tokens: make([]*Token, 0, len(inst.Tokens))}
	for _, tok := range inst.Tokens {
		tail.Tokens = append(tail.Tokens, tok)
	}
	slices.SortFunc(tail.Tokens, func(a, b *Token) int { return cmp.Compare(a.ID, b.ID) })
	data, err := json.Marshal(tail)
	if err != nil {
		return buf, err
	}
	return append(buf, data...), nil
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

// parseState decodes a whole instance state record, refusing one with a
// null token (no encoder writes it, and rebuilding the case would
// dereference it).
func parseState(p []byte) (*instState, error) {
	id, pid, status, i, ok := readStateHead(p)
	if !ok {
		return nil, errMalformedState
	}
	st := &instState{ID: string(id), ProcessID: string(pid), Status: status}
	var started, ended binrec.Stamp
	if started, i, ok = binrec.ReadStamp(p, i); !ok {
		return nil, errMalformedState
	}
	if ended, i, ok = binrec.ReadStamp(p, i); !ok {
		return nil, errMalformedState
	}
	st.StartedAt, st.EndedAt = started.Time(), ended.Time()
	if st.Vars, i, ok = expr.ReadBinaryMap(p, i); !ok {
		return nil, errMalformedState
	}
	if i == len(p) {
		return st, nil
	}
	if p[i] != '{' {
		return nil, errMalformedState
	}
	var tail stateTail
	if err := json.Unmarshal(p[i:], &tail); err != nil {
		return nil, fmt.Errorf("engine: decode instance state: %w", err)
	}
	if slices.Contains(tail.Tokens, nil) {
		return nil, fmt.Errorf("engine: decode instance state %s: null token", st.ID)
	}
	st.Tokens, st.Joins = tail.Tokens, tail.Joins
	return st, nil
}
