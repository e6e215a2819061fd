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
	seq   uint64 // the instance's sequence number under maskSeq, else 0
	stamp binrec.Stamp
}

// instance returns the record's instance ID: its literal field, or for
// a maskSeq record the ID built in *buf, which it grows as needed.
func (r *record) instance(buf *[]byte) []byte {
	if r.seq == 0 {
		return r.strs[instanceField]
	}
	*buf = appendInstanceID((*buf)[:0], r.strs[processField], r.seq)
	return *buf
}

var (
	errNotV2           = errors.New("history: decode event: not a v2 record (journals written before v2 are upgraded when core.Open opens their data dir)")
	errMalformedRecord = errors.New("history: decode event: malformed v2 record")
)

// scan splits a record into r. It declines what AppendEncode cannot have
// written: a truncated or overflowing varint, a type code past the
// table, nanoseconds past a second, maskSeq without the process bit or
// with the instance bit, a sequence number of 0, a length past the end,
// data that is not an object, or bytes after the last field. A literal
// instance ID the encoder would now number is taken as it is: every
// journal written before maskSeq holds them.
func (r *record) scan(p []byte) error {
	*r = record{}
	if len(p) == 0 || p[0] != recordV2 {
		return errNotV2
	}
	if len(p) < 2 || int(p[1]) > len(eventTypes) {
		return errMalformedRecord
	}
	r.code = p[1]
	i, ok := 2, true
	if r.code > 0 {
		r.typ = typeNames[r.code-1]
	} else if r.typ, i, ok = binrec.Field(p, i); !ok {
		return errMalformedRecord
	}
	if r.stamp, i, ok = binrec.ReadStamp(p, i); !ok || i == len(p) {
		return errMalformedRecord
	}
	mask := p[i]
	i++
	if mask&maskSeq != 0 && (mask&(1<<processField) == 0 || mask&(1<<instanceField) != 0) {
		return errMalformedRecord
	}
	for b := range r.strs {
		if b == instanceField && mask&maskSeq != 0 {
			if r.seq, i, ok = binrec.Uvarint(p, i); !ok || r.seq == 0 {
				return errMalformedRecord
			}
			continue
		}
		if mask&(1<<b) == 0 {
			continue
		}
		if r.strs[b], i, ok = binrec.Field(p, i); !ok {
			return errMalformedRecord
		}
	}
	if mask&maskData != 0 {
		if i == len(p) || p[i] != '{' {
			return errMalformedRecord
		}
		r.data, i = p[i:], len(p)
	}
	if i != len(p) {
		return errMalformedRecord
	}
	return nil
}

// peek splits a record into r without allocating. It checks the layout
// (so a field is never attributed to the wrong key) and that data is
// well-formed JSON, not the values: a number in data is parsed only when
// the record is decoded.
func (r *record) peek(p []byte) error {
	if err := r.scan(p); err != nil {
		return err
	}
	if r.data != nil && !json.Valid(r.data) {
		return errMalformedRecord
	}
	return nil
}

// peekEvent returns a record's type and instance ID as peek reads them,
// without allocating once *buf has grown: the type and a literal ID are
// sub-slices of the payload, a numbered ID is built in *buf
// (record.instance).
func peekEvent(p []byte, buf *[]byte) (typ, instanceID []byte, err error) {
	var r record
	if err := r.peek(p); err != nil {
		return nil, nil, err
	}
	return r.typ, r.instance(buf), nil
}

// DecodeEvent parses an event from its journal payload. The time takes
// the Location time.Parse gives the same instant in RFC 3339
// (binrec.Stamp.Time); strings keep invalid UTF-8 byte for byte; a
// numbered instance ID is spelled out, and its process ID shares its
// bytes; an empty data object is no data, which the encoder omits.
func DecodeEvent(payload []byte) (*Event, error) {
	var r record
	if err := r.scan(payload); err != nil {
		return nil, err
	}
	e := &Event{Time: r.stamp.Time()}
	if r.code > 0 {
		e.Type = eventTypes[r.code-1]
	} else {
		e.Type = EventType(r.typ)
	}
	if r.seq > 0 {
		var b [64]byte
		e.InstanceID = string(appendInstanceID(b[:0], r.strs[processField], r.seq))
		e.ProcessID = e.InstanceID[:len(r.strs[processField])]
		r.strs[processField] = nil
	}
	for i, dst := range e.stringFields() {
		if r.strs[i] != nil {
			*dst = string(r.strs[i])
		}
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
