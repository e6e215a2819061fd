package history

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
	"strings"

	"bpms/internal/binrec"
)

// recordV2 starts every record AppendEncode writes.
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
	processField  = 0 // stringFields()[processField] is &e.ProcessID
	instanceField = 1 // stringFields()[instanceField] is &e.InstanceID
	maskData      = 1 << 6
	// maskSeq marks an instance ID held as its sequence number n: the ID
	// is ProcessID + "-" + n. It needs the process bit and excludes the
	// instance bit.
	maskSeq = 1 << 7
)

// stringFields lists the event's optional strings in record order.
func (e *Event) stringFields() [6]*string {
	return [...]*string{&e.ProcessID, &e.InstanceID, &e.ElementID, &e.Element, &e.TaskID, &e.Actor}
}

// AppendEncode appends the event's v2 journal record to buf and returns
// the extended buffer. The record is: the marker recordV2 (no JSON
// value starts with it); the type code, 1 + the type's index in
// eventTypes, or 0 followed by the custom type's name; the time as
// varint Unix seconds, uvarint nanoseconds and varint zone offset in
// seconds; a mask of the fields present; each present stringFields
// entry as a uvarint length and its bytes (no escaping); and, when
// there is data, json.Marshal(e.Data) to the end. An instance ID the
// engine numbered, ProcessID + "-" + n, is written as uvarint(n) under
// maskSeq instead (instanceSeq); any other ID is written as it is.
// Index is not stored: the journal position is, and replays set it.
func AppendEncode(buf []byte, e *Event) ([]byte, error) {
	code := typeCodes[e.Type]
	buf = append(buf, recordV2, code)
	if code == 0 {
		buf = binrec.AppendString(buf, string(e.Type))
	}
	buf = binrec.AppendTime(buf, e.Time)
	mask := len(buf)
	buf = append(buf, 0)
	seq := instanceSeq(e.ProcessID, e.InstanceID)
	for i, f := range e.stringFields() {
		switch {
		case i == instanceField && seq > 0:
			buf[mask] |= maskSeq
			buf = binary.AppendUvarint(buf, seq)
		case *f != "":
			buf[mask] |= 1 << i
			buf = binrec.AppendString(buf, *f)
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

// instanceSeq returns n when inst is process + "-" + n with n ≥ 1 in
// canonical decimal (no sign, no leading zero), and 0 otherwise.
func instanceSeq(process, inst string) uint64 {
	if process == "" || !strings.HasPrefix(inst, process) {
		return 0
	}
	digits, ok := strings.CutPrefix(inst[len(process):], "-")
	if !ok || digits == "" || digits[0] == '0' {
		return 0
	}
	n, err := strconv.ParseUint(digits, 10, 64) // no sign, no '_' in base 10
	if err != nil {
		return 0
	}
	return n
}

// appendInstanceID appends the instance ID a maskSeq record holds:
// process, "-", and seq in decimal.
func appendInstanceID(buf, process []byte, seq uint64) []byte {
	buf = append(append(buf, process...), '-')
	return strconv.AppendUint(buf, seq, 10)
}
