package expr

import (
	"encoding/binary"
	"math"
	"slices"

	"bpms/internal/binrec"
)

// Values in binary records (AppendBinary, AppendBinaryMap and their
// readers) are a tag byte and the payload the tag calls for:
//
//	null            0
//	Bool(false)     1
//	Bool(true)      2
//	Int(5)          3, varint
//	Float(2.5)      4, 8 B little-endian IEEE 754 bits
//	String("x")     5, uvarint length + bytes
//	List(...)       6, uvarint count + each element
//	Map(...)        7, uvarint count + each key (uvarint length +
//	                bytes) and value, keys in ascending byte order
//
// Unlike the JSON form, floats keep NaN and ±Inf and strings keep
// invalid UTF-8 byte for byte. A list or map read back with no elements
// is nil, which every reader of a Value treats as empty.
const (
	binNull byte = iota
	binFalse
	binTrue
	binInt
	binFloat
	binString
	binList
	binMap
)

// maxBinaryDepth bounds the nesting readBinary follows, as
// encoding/json bounds the nesting of the tagged form.
const maxBinaryDepth = 10000

// AppendBinary appends v's binary form to buf.
func AppendBinary(buf []byte, v Value) []byte {
	switch v.kind {
	case KindBool:
		if v.b {
			return append(buf, binTrue)
		}
		return append(buf, binFalse)
	case KindInt:
		return binary.AppendVarint(append(buf, binInt), v.i)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(buf, binFloat), math.Float64bits(v.f))
	case KindString:
		return binrec.AppendString(append(buf, binString), v.s)
	case KindList:
		buf = binary.AppendUvarint(append(buf, binList), uint64(len(v.l)))
		for _, e := range v.l {
			buf = AppendBinary(buf, e)
		}
		return buf
	case KindMap:
		return AppendBinaryMap(append(buf, binMap), v.m)
	}
	return append(buf, binNull)
}

// AppendBinaryMap appends m as a count and its entries in ascending key
// order: a map Value's payload, and the variables of an instance
// record.
func AppendBinaryMap(buf []byte, m map[string]Value) []byte {
	var small [16]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = AppendBinary(binrec.AppendString(buf, k), m[k])
	}
	return buf
}

// ReadBinaryMap reads what AppendBinaryMap wrote at p[i:] and returns
// it, a non-nil map even when empty, with the offset just past it. It
// declines (ok false) what AppendBinaryMap cannot have written: an
// unknown tag, a truncated payload, a count past what the record can
// hold, keys out of order or repeated, or nesting deeper than
// maxBinaryDepth.
func ReadBinaryMap(p []byte, i int) (map[string]Value, int, bool) {
	return readBinaryMap(p, i, 0)
}

// ReadBinary reads what AppendBinary wrote at p[i:] and returns it with
// the offset just past it, declining what ReadBinaryMap declines.
func ReadBinary(p []byte, i int) (Value, int, bool) {
	return readBinary(p, i, 0)
}

// readBinary reads the value AppendBinary wrote at p[i:], depth levels
// down.
func readBinary(p []byte, i, depth int) (Value, int, bool) {
	if i >= len(p) || depth > maxBinaryDepth {
		return Null, 0, false
	}
	tag := p[i]
	i++
	switch tag {
	case binNull:
		return Null, i, true
	case binFalse:
		return False, i, true
	case binTrue:
		return True, i, true
	case binInt:
		n, i, ok := binrec.Varint(p, i)
		return Int(n), i, ok
	case binFloat:
		if len(p)-i < 8 {
			return Null, 0, false
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(p[i:]))), i + 8, true
	case binString:
		s, i, ok := binrec.Field(p, i)
		return String(string(s)), i, ok
	case binList:
		n, i, ok := binrec.Uvarint(p, i)
		// Every element takes at least its tag byte.
		if !ok || n > uint64(len(p)-i) {
			return Null, 0, false
		}
		var l []Value
		if n > 0 {
			l = make([]Value, n)
		}
		for k := range l {
			if l[k], i, ok = readBinary(p, i, depth+1); !ok {
				return Null, 0, false
			}
		}
		return List(l...), i, true
	case binMap:
		m, i, ok := readBinaryMap(p, i, depth+1)
		if len(m) == 0 {
			m = nil
		}
		return Map(m), i, ok
	}
	return Null, 0, false
}

func readBinaryMap(p []byte, i, depth int) (map[string]Value, int, bool) {
	n, i, ok := binrec.Uvarint(p, i)
	// Every entry takes at least a key length and a tag byte.
	if !ok || n > uint64(len(p)-i)/2 {
		return nil, 0, false
	}
	m := make(map[string]Value, n)
	var prev []byte
	for k := uint64(0); k < n; k++ {
		var key []byte
		if key, i, ok = binrec.Field(p, i); !ok || (k > 0 && string(key) <= string(prev)) {
			return nil, 0, false
		}
		prev = key
		var v Value
		if v, i, ok = readBinary(p, i, depth); !ok {
			return nil, 0, false
		}
		m[string(key)] = v
	}
	return m, i, true
}
