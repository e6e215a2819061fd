package expr

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// Values marshal to a tagged JSON form that preserves the exact kind
// across round trips (plain JSON would collapse ints and floats):
//
//	null            {"t":"n"}
//	Bool(true)      {"t":"b","v":true}
//	Int(5)          {"t":"i","v":"5"}     (string: no precision loss)
//	Float(2.5)      {"t":"f","v":2.5}
//	String("x")     {"t":"s","v":"x"}
//	List(...)       {"t":"l","v":[...]}
//	Map(...)        {"t":"m","v":{...}}

type taggedValue struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v,omitempty"`
}

// MarshalJSON implements json.Marshaler with the tagged form.
func (v Value) MarshalJSON() ([]byte, error) {
	var tag string
	var payload any
	switch v.kind {
	case KindNull:
		return []byte(`{"t":"n"}`), nil
	case KindBool:
		tag, payload = "b", v.b
	case KindInt:
		tag, payload = "i", strconv.FormatInt(v.i, 10)
	case KindFloat:
		tag, payload = "f", v.f
	case KindString:
		tag, payload = "s", v.s
	case KindList:
		tag, payload = "l", v.l
	case KindMap:
		tag, payload = "m", v.m
	default:
		return nil, fmt.Errorf("expr: cannot marshal kind %v", v.kind)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(taggedValue{T: tag, V: raw})
}

// UnmarshalJSON implements json.Unmarshaler for the tagged form. The
// exact bytes MarshalJSON writes ({"t":"x"} or {"t":"x","v":…}, no
// whitespace) are split in place; any other spelling of the object —
// whitespace, reordered, repeated or unknown keys — goes through
// encoding/json first.
func (v *Value) UnmarshalJSON(data []byte) error {
	if tag, payload, ok := splitTagged(data); ok && v.decodeTagged(tag, payload) == nil {
		return nil
	}
	var t taggedValue
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	return v.decodeTagged(t.T, t.V)
}

// splitTagged cuts the canonical tagged form into its tag and payload
// without checking that the payload is one JSON value: decodeTagged
// accepts it only if it is.
func splitTagged(data []byte) (tag string, payload []byte, ok bool) {
	const head, sep = `{"t":"`, `","v":`
	n := len(data)
	if n < len(head)+3 || string(data[:len(head)]) != head || data[n-1] != '}' {
		return "", nil, false
	}
	tag, rest := string(data[len(head):len(head)+1]), data[len(head)+1:n-1]
	switch {
	case string(rest) == `"`:
		return tag, nil, true
	case len(rest) > len(sep) && string(rest[:len(sep)]) == sep:
		return tag, rest[len(sep):], true
	}
	return "", nil, false
}

// plainString returns the contents of a JSON string literal that
// encoding/json would copy through verbatim: quoted, valid UTF-8, no
// control character, backslash or inner quote.
func plainString(lit []byte) (string, bool) {
	n := len(lit)
	if n < 2 || lit[0] != '"' || lit[n-1] != '"' {
		return "", false
	}
	ascii := true
	for _, c := range lit[1 : n-1] {
		switch {
		case c < 0x20 || c == '"' || c == '\\':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(lit[1:n-1]) {
		return "", false
	}
	return string(lit[1 : n-1]), true
}

// decodeTagged sets v from a tag and its payload. Payloads that are a
// bare true/false or a plain string literal are read directly; the
// rest take one json.Unmarshal, which also rejects a payload that is
// not exactly one JSON value. v is written only on success.
func (v *Value) decodeTagged(tag string, payload []byte) error {
	switch tag {
	case "n":
		// The payload, never written, is ignored but must be JSON.
		if len(payload) > 0 && !json.Valid(payload) {
			return fmt.Errorf("expr: bad null payload %q", payload)
		}
		*v = Null
	case "b":
		var b bool
		switch string(payload) {
		case "true":
			b = true
		case "false":
		default:
			if err := json.Unmarshal(payload, &b); err != nil {
				return err
			}
		}
		*v = Bool(b)
	case "i":
		s, ok := plainString(payload)
		if !ok {
			if err := json.Unmarshal(payload, &s); err != nil {
				return err
			}
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("expr: bad int payload %q: %w", s, err)
		}
		*v = Int(i)
	case "f":
		var f float64
		if err := json.Unmarshal(payload, &f); err != nil {
			return err
		}
		*v = Float(f)
	case "s":
		s, ok := plainString(payload)
		if !ok {
			if err := json.Unmarshal(payload, &s); err != nil {
				return err
			}
		}
		*v = String(s)
	case "l":
		var l []Value
		if err := json.Unmarshal(payload, &l); err != nil {
			return err
		}
		*v = List(l...)
	case "m":
		var m map[string]Value
		if err := json.Unmarshal(payload, &m); err != nil {
			return err
		}
		*v = Map(m)
	default:
		return fmt.Errorf("expr: unknown value tag %q", tag)
	}
	return nil
}
