package history

import (
	"encoding/binary"
	"encoding/json"
)

// recordV2 starts every record AppendEncode writes; decode.go also
// reads the v1 JSON records journals held before v2.
const recordV2 = 0x02

// eventTypes is the type code table: code i+1 is eventTypes[i]. The
// codes are on disk, so the table only ever grows at the end.
var eventTypes = [...]EventType{
	ProcessDeployed,
	InstanceStarted, InstanceCompleted, InstanceCancelled, InstanceFaulted,
	ElementActivated, ElementCompleted, ElementFaulted,
	TaskCreated, TaskOffered, TaskAllocated, TaskStarted, TaskCompleted,
	TaskFailed, TaskSkipped, TaskDelegated, TaskEscalated,
	TimerScheduled, TimerFired, TimerCancelled,
	MessagePublished, MessageCorrelated, MessageBuffered,
	VariableSet, IncidentRaised, SLAViolation,
}

// typeCodes inverts eventTypes; typeNames holds its names as bytes, so
// a peek returns a record's type without allocating.
var (
	typeCodes = make(map[EventType]byte, len(eventTypes))
	typeNames [len(eventTypes)][]byte
)

func init() {
	for i, t := range eventTypes {
		typeCodes[t], typeNames[i] = byte(i+1), []byte(t)
	}
}

const (
	instanceField = 1 // stringFields()[instanceField] is &e.InstanceID
	maskData      = 1 << 6
	maskKnown     = maskData<<1 - 1
)

// stringFields lists the event's optional strings in record order.
func (e *Event) stringFields() [6]*string {
	return [...]*string{&e.ProcessID, &e.InstanceID, &e.ElementID, &e.Element, &e.TaskID, &e.Actor}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendEncode appends the event's v2 journal record to buf and returns
// the extended buffer. The record is: the marker recordV2 (no JSON
// value starts with it); the type code, 1 + the type's index in
// eventTypes, or 0 followed by the custom type's name; the time as
// varint Unix seconds, uvarint nanoseconds and varint zone offset in
// seconds; a mask of the fields present; each present stringFields
// entry as a uvarint length and its bytes (no escaping); and, when
// there is data, json.Marshal(e.Data) to the end.
// Index is not stored: the journal position is, and replays set it.
func AppendEncode(buf []byte, e *Event) ([]byte, error) {
	code := typeCodes[e.Type]
	buf = append(buf, recordV2, code)
	if code == 0 {
		buf = appendString(buf, string(e.Type))
	}
	_, offset := e.Time.Zone()
	buf = binary.AppendVarint(buf, e.Time.Unix())
	buf = binary.AppendUvarint(buf, uint64(e.Time.Nanosecond()))
	buf = binary.AppendVarint(buf, int64(offset))
	mask := len(buf)
	buf = append(buf, 0)
	for i, f := range e.stringFields() {
		if *f != "" {
			buf[mask] |= 1 << i
			buf = appendString(buf, *f)
		}
	}
	if len(e.Data) == 0 {
		return buf, nil
	}
	buf[mask] |= maskData
	data, err := json.Marshal(e.Data)
	if err != nil {
		return buf, err
	}
	return append(buf, data...), nil
}
