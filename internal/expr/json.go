package expr

import (
	"encoding/json"
	"fmt"
	"strconv"
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

// UnmarshalJSON implements json.Unmarshaler for the tagged form. Each
// payload takes one json.Unmarshal of its own, which also rejects one
// that is not exactly one JSON value; a null's payload, never written,
// is ignored. v is written only on success.
func (v *Value) UnmarshalJSON(data []byte) error {
	var t taggedValue
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	payload := t.V
	switch t.T {
	case "n":
		*v = Null
	case "b":
		var b bool
		if err := json.Unmarshal(payload, &b); err != nil {
			return err
		}
		*v = Bool(b)
	case "i":
		var s string
		if err := json.Unmarshal(payload, &s); err != nil {
			return err
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
		var s string
		if err := json.Unmarshal(payload, &s); err != nil {
			return err
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
		return fmt.Errorf("expr: unknown value tag %q", t.T)
	}
	return nil
}
