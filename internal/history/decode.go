package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unicode/utf8"
)

// Single-pass event decoding: the inverse of AppendEncode's canonical
// layout,
//
//	{"type":"…","time":"…"[,"processId":"…"][,"instanceId":"…"]
//	 [,"elementId":"…"][,"element":"…"][,"taskId":"…"][,"actor":"…"]
//	 [,"data":{…}]}
//
// with no whitespace, the fields in exactly this order, and strings
// free of escapes. A record in that layout is split into sub-slices of
// the payload without allocating (scanEvent); decoding it converts the
// slices once, and a caller that only needs the type and the instance
// (the count-only replay of an evicted prefix, EventsOf skipping other
// instances' records) converts nothing. Any other layout — escapes,
// reordered or unknown fields, a leading "index", whitespace — is
// declined and decoded by encoding/json instead, so every journal
// json.Unmarshal reads is read, with the same result.

// rawEvent is one canonical record split into its fields; every slice
// aliases the payload. time keeps its quotes (time.Time.UnmarshalJSON
// takes the literal); data is the object after "data": or nil.
type rawEvent struct {
	typ, time                                                []byte
	processID, instanceID, elementID, element, taskID, actor []byte
	data                                                     []byte
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

// scanEvent splits a record in the canonical layout, or declines.
func scanEvent(p []byte) (f rawEvent, ok bool) {
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
	for _, field := range [...]struct {
		key string
		dst *[]byte
	}{
		{`,"processId":"`, &f.processID}, {`,"instanceId":"`, &f.instanceID},
		{`,"elementId":"`, &f.elementID}, {`,"element":"`, &f.element},
		{`,"taskId":"`, &f.taskID}, {`,"actor":"`, &f.actor},
	} {
		if hasAt(p, i, field.key) {
			if *field.dst, i, ok = scanString(p, i+len(field.key)); !ok {
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

// decodeFast decodes a record in the canonical layout. It declines
// (nil, false) anything else, including a timestamp or data object
// encoding/json would reject: the caller's fallback reports the error.
func decodeFast(p []byte) (*Event, bool) {
	f, ok := scanEvent(p)
	if !ok {
		return nil, false
	}
	e := &Event{
		Type:       EventType(f.typ),
		ProcessID:  string(f.processID),
		InstanceID: string(f.instanceID),
		ElementID:  string(f.elementID),
		Element:    string(f.element),
		TaskID:     string(f.taskID),
		Actor:      string(f.actor),
	}
	if e.Time.UnmarshalJSON(f.time) != nil {
		return nil, false
	}
	if f.data != nil && json.Unmarshal(f.data, &e.Data) != nil {
		return nil, false
	}
	return e, true
}

// peekEvent returns a canonical record's type and instance ID as
// sub-slices of the payload, without allocating. It checks the layout
// (so a field is never attributed to the wrong key) and that data is
// well-formed JSON, not the values: a timestamp is parsed only when
// the record is decoded.
func peekEvent(p []byte) (typ, instanceID []byte, ok bool) {
	f, ok := scanEvent(p)
	if !ok || (f.data != nil && !json.Valid(f.data)) {
		return nil, nil, false
	}
	return f.typ, f.instanceID, true
}

// decodeEvent is DecodeEvent that also reports whether the record took
// the single-pass path.
func decodeEvent(payload []byte) (e *Event, fast bool, err error) {
	if e, ok := decodeFast(payload); ok {
		return e, true, nil
	}
	e = &Event{}
	if err := json.Unmarshal(payload, e); err != nil {
		return nil, false, fmt.Errorf("history: decode event: %w", err)
	}
	return e, false, nil
}

// DecodeEvent parses an event from its journal payload: in one pass
// when the payload has the layout AppendEncode writes, through
// encoding/json otherwise.
func DecodeEvent(payload []byte) (*Event, error) {
	e, _, err := decodeEvent(payload)
	return e, err
}
