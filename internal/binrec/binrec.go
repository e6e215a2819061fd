// Package binrec is the toolkit both binary journal records are built
// with: the history store's audit events and the engine's instance
// states. A record starts with a marker byte no JSON value starts with,
// so a reader tells it from the JSON records older data dirs hold by
// its first byte; its fields are varints and length-prefixed bytes.
//
// The readers take a record and an offset into it and return the value,
// the offset just past it, and false for a truncated or overflowing
// varint or a length past the end, so a damaged record is declined,
// never misread and never a panic.
package binrec

import (
	"encoding/binary"
	"time"
)

// AppendString appends s as a uvarint length and its bytes (no
// escaping).
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Uvarint reads the uvarint at p[i:].
func Uvarint(p []byte, i int) (uint64, int, bool) {
	v, w := binary.Uvarint(p[i:])
	return v, i + w, w > 0
}

// Varint reads the varint at p[i:].
func Varint(p []byte, i int) (int64, int, bool) {
	v, w := binary.Varint(p[i:])
	return v, i + w, w > 0
}

// Field reads the length-prefixed bytes AppendString wrote at p[i:], as
// a sub-slice of p.
func Field(p []byte, i int) ([]byte, int, bool) {
	n, i, ok := Uvarint(p, i)
	if !ok || n > uint64(len(p)-i) {
		return nil, 0, false
	}
	return p[i : i+int(n)], i + int(n), true
}

// Stamp is a time as a record holds it: Unix seconds, nanoseconds and
// the zone offset in seconds.
type Stamp struct {
	Sec    int64
	Nsec   uint64
	Offset int64
}

// AppendTime appends t as its Stamp: varint seconds, uvarint
// nanoseconds, varint offset. The monotonic reading and the zone's name
// are not kept.
func AppendTime(buf []byte, t time.Time) []byte {
	_, offset := t.Zone()
	buf = binary.AppendVarint(buf, t.Unix())
	buf = binary.AppendUvarint(buf, uint64(t.Nanosecond()))
	return binary.AppendVarint(buf, int64(offset))
}

// ReadStamp reads the Stamp AppendTime wrote at p[i:], declining
// nanoseconds past a second.
func ReadStamp(p []byte, i int) (s Stamp, next int, ok bool) {
	if s.Sec, i, ok = Varint(p, i); !ok {
		return s, 0, false
	}
	if s.Nsec, i, ok = Uvarint(p, i); !ok || s.Nsec >= uint64(time.Second) {
		return s, 0, false
	}
	if s.Offset, i, ok = Varint(p, i); !ok {
		return s, 0, false
	}
	return s, i, true
}

// Time returns the instant with the Location time.Parse gives it in
// RFC 3339, the form JSON records hold times in: UTC for offset 0,
// Local where Local had that offset at that instant, an unnamed fixed
// zone otherwise. So a time read from a binary record equals the one
// its JSON form decodes to.
func (s Stamp) Time() time.Time {
	t := time.Unix(s.Sec, int64(s.Nsec))
	if s.Offset == 0 {
		return t.UTC()
	}
	if _, local := t.Zone(); int64(local) != s.Offset {
		t = t.In(time.FixedZone("", int(s.Offset)))
	}
	return t
}
