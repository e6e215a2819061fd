package history

import (
	"encoding/json"
	"errors"
	"fmt"

	"bpms/internal/binrec"
)

// Event decoding. Every record is one AppendEncode wrote (a journal
// written before v2 records is rewritten by Upgrade when its data dir
// opens). A record is split into sub-slices of the payload without
// allocating (scan), so a caller that needs only the type and the
// instance (the count-only replay of an evicted prefix, EventsOf
// skipping other instances' records) converts nothing.

// record is one record split into its fields; the slices alias the
// payload, or typeNames for a known type.
type record struct {
	typ  []byte
	strs [6][]byte // parallel to Event.stringFields; nil when absent
	data []byte    // the data object, or nil

	code  byte
	stamp binrec.Stamp
}

var (
	errNotV2           = errors.New("history: decode event: not a v2 record (journals written before v2 are upgraded when core.Open opens their data dir)")
	errMalformedRecord = errors.New("history: decode event: malformed v2 record")
)

// scan splits a record. It declines what AppendEncode cannot have
// written: a truncated or overflowing varint, a type code past the
// table, nanoseconds past a second, unknown mask bits, a length past
// the end, data that is not an object, or bytes after the last field.
func scan(p []byte) (r record, err error) {
	if len(p) == 0 || p[0] != recordV2 {
		return r, errNotV2
	}
	if len(p) < 2 || int(p[1]) > len(eventTypes) {
		return r, errMalformedRecord
	}
	r.code = p[1]
	i, ok := 2, true
	if r.code > 0 {
		r.typ = typeNames[r.code-1]
	} else if r.typ, i, ok = binrec.Field(p, i); !ok {
		return r, errMalformedRecord
	}
	if r.stamp, i, ok = binrec.ReadStamp(p, i); !ok || i == len(p) || p[i]&^maskKnown != 0 {
		return r, errMalformedRecord
	}
	mask := p[i]
	i++
	for b := range r.strs {
		if mask&(1<<b) == 0 {
			continue
		}
		if r.strs[b], i, ok = binrec.Field(p, i); !ok {
			return r, errMalformedRecord
		}
	}
	if mask&maskData != 0 {
		if i == len(p) || p[i] != '{' {
			return r, errMalformedRecord
		}
		r.data, i = p[i:], len(p)
	}
	if i != len(p) {
		return r, errMalformedRecord
	}
	return r, nil
}

// peekEvent returns a record's type and instance ID as sub-slices of
// the payload, without allocating. It checks the layout (so a field is
// never attributed to the wrong key) and that data is well-formed JSON,
// not the values: a number in data is parsed only when the record is
// decoded.
func peekEvent(p []byte) (typ, instanceID []byte, err error) {
	r, err := scan(p)
	if err == nil && r.data != nil && !json.Valid(r.data) {
		err = errMalformedRecord
	}
	if err != nil {
		return nil, nil, err
	}
	return r.typ, r.strs[instanceField], nil
}

// DecodeEvent parses an event from its journal payload. The time takes
// the Location time.Parse gives the same instant in RFC 3339
// (binrec.Stamp.Time); strings keep invalid UTF-8 byte for byte; an
// empty data object is no data, which the encoder omits.
func DecodeEvent(payload []byte) (*Event, error) {
	r, err := scan(payload)
	if err != nil {
		return nil, err
	}
	e := &Event{Time: r.stamp.Time()}
	if r.code > 0 {
		e.Type = eventTypes[r.code-1]
	} else {
		e.Type = EventType(r.typ)
	}
	for i, dst := range e.stringFields() {
		*dst = string(r.strs[i])
	}
	if r.data != nil {
		if err := json.Unmarshal(r.data, &e.Data); err != nil {
			return nil, fmt.Errorf("history: decode event: %w", err)
		}
	}
	if len(e.Data) == 0 {
		e.Data = nil
	}
	return e, nil
}
