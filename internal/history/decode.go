package history

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"
	"unicode/utf8"
)

// Single-pass event decoding. A record whose first byte is recordV2 is
// one AppendEncode wrote; any other is a v1 JSON record from a journal
// written before v2 (maybe followed by v2 records since an upgrade). A
// v1 record in the layout the v1 encoder wrote,
//
//	{"type":"…","time":"…"[,"processId":"…"][,"instanceId":"…"]
//	 [,"elementId":"…"][,"element":"…"][,"taskId":"…"][,"actor":"…"]
//	 [,"data":{…}]}
//
// with no whitespace and strings free of escapes, is read in one pass
// too; any other layout — escapes, reordered or unknown fields, a
// leading "index", whitespace — is declined and decoded by
// encoding/json instead, with the same result. Either format is split
// into sub-slices of the payload without allocating (scan), so a caller
// that needs only the type and the instance (the count-only replay of
// an evicted prefix, EventsOf skipping other instances' records)
// converts nothing.

// record is one record split into its fields; the slices alias the
// payload, or typeNames for a v2 record's known type. A v1 record sets
// time, the timestamp literal with its quotes (time.Time.UnmarshalJSON
// takes it); a v2 record sets code, sec, nsec and offset.
type record struct {
	typ  []byte
	strs [6][]byte // parallel to Event.stringFields; nil when absent
	data []byte    // the data object, or nil

	time []byte

	code   byte
	sec    int64
	nsec   uint64
	offset int64
}

func scan(p []byte) (record, bool) {
	if len(p) > 0 && p[0] == recordV2 {
		return scanRecord(p)
	}
	return scanEvent(p)
}

// uvarint, varint and field read at p[i:] and return the value, the
// offset past it, and false for a truncated or overflowing varint or a
// length past the end.

func uvarint(p []byte, i int) (uint64, int, bool) {
	v, w := binary.Uvarint(p[i:])
	return v, i + w, w > 0
}

func varint(p []byte, i int) (int64, int, bool) {
	v, w := binary.Varint(p[i:])
	return v, i + w, w > 0
}

func field(p []byte, i int) ([]byte, int, bool) {
	n, i, ok := uvarint(p, i)
	if !ok || n > uint64(len(p)-i) {
		return nil, 0, false
	}
	return p[i : i+int(n)], i + int(n), true
}

// scanRecord splits a v2 record. It declines what AppendEncode cannot
// have written: a truncated or overflowing varint, a type code past the
// table, nanoseconds past a second, unknown mask bits, a length past
// the end, data that is not an object, or bytes after the last field.
func scanRecord(p []byte) (r record, ok bool) {
	if len(p) < 2 || int(p[1]) > len(eventTypes) {
		return r, false
	}
	r.code = p[1]
	i := 2
	if r.code > 0 {
		r.typ = typeNames[r.code-1]
	} else if r.typ, i, ok = field(p, i); !ok {
		return r, false
	}
	if r.sec, i, ok = varint(p, i); !ok {
		return r, false
	}
	if r.nsec, i, ok = uvarint(p, i); !ok || r.nsec >= uint64(time.Second) {
		return r, false
	}
	if r.offset, i, ok = varint(p, i); !ok || i == len(p) || p[i]&^maskKnown != 0 {
		return r, false
	}
	mask := p[i]
	i++
	for b := range r.strs {
		if mask&(1<<b) == 0 {
			continue
		}
		if r.strs[b], i, ok = field(p, i); !ok {
			return r, false
		}
	}
	if mask&maskData != 0 {
		if i == len(p) || p[i] != '{' {
			return r, false
		}
		r.data, i = p[i:], len(p)
	}
	return r, i == len(p)
}

// scanString returns the string literal whose first content byte is
// p[i] and the offset just past its closing quote. It declines (ok
// false) a literal encoding/json would not copy through verbatim: one
// with an escape, a control character or invalid UTF-8, or unclosed.
func scanString(p []byte, i int) (s []byte, next int, ok bool) {
	ascii := true
	for j := i; j < len(p); j++ {
		switch c := p[j]; {
		case c == '"':
			s = p[i:j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c < 0x20 || c == '\\':
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// hasAt reports whether p continues with s at offset i.
func hasAt(p []byte, i int, s string) bool {
	return len(p)-i >= len(s) && string(p[i:i+len(s)]) == s
}

// scanEvent splits a v1 record in the v1 encoder's layout, or declines.
func scanEvent(p []byte) (f record, ok bool) {
	const head, timeKey, dataKey = `{"type":"`, `,"time":"`, `,"data":{`
	if !hasAt(p, 0, head) {
		return f, false
	}
	i := 0
	if f.typ, i, ok = scanString(p, len(head)); !ok {
		return f, false
	}
	if !hasAt(p, i, timeKey) {
		return f, false
	}
	open := i + len(timeKey) - 1
	end := bytes.IndexByte(p[open+1:], '"')
	if end < 0 {
		return f, false
	}
	i = open + 1 + end + 1
	f.time = p[open:i]
	// The optional string fields, in encoder order, each key with the
	// separator before it and the opening quote of its value.
	for b, key := range [...]string{
		`,"processId":"`, `,"instanceId":"`, `,"elementId":"`, `,"element":"`, `,"taskId":"`, `,"actor":"`,
	} {
		if hasAt(p, i, key) {
			if f.strs[b], i, ok = scanString(p, i+len(key)); !ok {
				return f, false
			}
		}
	}
	last := len(p) - 1
	if hasAt(p, i, dataKey) {
		// Data is last: everything up to the closing brace is its value,
		// which the caller hands to encoding/json (and so validates).
		if i = i + len(dataKey) - 1; i >= last {
			return f, false
		}
		f.data = p[i:last]
		i = last
	}
	return f, i == last && p[i] == '}'
}

// decodeFast decodes what scan splits. It declines (nil, false)
// anything else, including a timestamp or data object encoding/json
// would reject: for a v1 record, the caller's fallback reports the
// error.
//
// A v2 record's time takes the Location time.Parse gives the same
// instant in RFC 3339, its v1 form: UTC for offset 0, Local where Local
// had that offset at that instant, an unnamed fixed zone otherwise. Its
// strings keep invalid UTF-8 byte for byte (encoding/json maps it to
// U+FFFD), and an empty data object is no data, which the encoder omits.
func decodeFast(p []byte) (*Event, bool) {
	r, ok := scan(p)
	if !ok {
		return nil, false
	}
	e := &Event{}
	if r.code > 0 {
		e.Type = eventTypes[r.code-1]
	} else {
		e.Type = EventType(r.typ)
	}
	for i, dst := range e.stringFields() {
		*dst = string(r.strs[i])
	}
	v1 := r.time != nil
	switch {
	case v1:
		if e.Time.UnmarshalJSON(r.time) != nil {
			return nil, false
		}
	case r.offset == 0:
		e.Time = time.Unix(r.sec, int64(r.nsec)).UTC()
	default:
		e.Time = time.Unix(r.sec, int64(r.nsec))
		if _, local := e.Time.Zone(); int64(local) != r.offset {
			e.Time = e.Time.In(time.FixedZone("", int(r.offset)))
		}
	}
	if r.data != nil && json.Unmarshal(r.data, &e.Data) != nil {
		return nil, false
	}
	if !v1 && len(e.Data) == 0 {
		e.Data = nil
	}
	return e, true
}

// peekEvent returns a v2 or single-pass v1 record's type and instance
// ID as sub-slices of the payload, without allocating. It checks the
// layout (so a field is never attributed to the wrong key) and that
// data is well-formed JSON, not the values: a timestamp or a number in
// data is parsed only when the record is decoded.
func peekEvent(p []byte) (typ, instanceID []byte, ok bool) {
	r, ok := scan(p)
	if !ok || (r.data != nil && !json.Valid(r.data)) {
		return nil, nil, false
	}
	return r.typ, r.strs[instanceField], true
}

var errMalformedRecord = errors.New("history: decode event: malformed v2 record")

// decodeEvent is DecodeEvent that also reports whether the record was
// a v1 record the single-pass path declined, so encoding/json read it.
func decodeEvent(payload []byte) (e *Event, fallback bool, err error) {
	if e, ok := decodeFast(payload); ok {
		return e, false, nil
	}
	if len(payload) > 0 && payload[0] == recordV2 {
		return nil, false, errMalformedRecord
	}
	e = &Event{}
	if err := json.Unmarshal(payload, e); err != nil {
		return nil, true, fmt.Errorf("history: decode event: %w", err)
	}
	return e, true, nil
}

// DecodeEvent parses an event from its journal payload: a v2 record,
// or a v1 JSON record, in one pass when it has the layout the v1
// encoder wrote and through encoding/json otherwise.
func DecodeEvent(payload []byte) (*Event, error) {
	e, _, err := decodeEvent(payload)
	return e, err
}
