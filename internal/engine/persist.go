package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/task"
)

// Persistence model: each journal record carries either a deployment
// (a JSON envelope) or the complete state of one instance (a binary
// record, state.go; last write wins on replay). A snapshot stores the
// whole engine image so recovery can skip the journal prefix
// (compaction via Journal.DropBefore). Upgrade (upgrade.go) rewrites a
// data dir in an older format before it opens.

// record is the JSON envelope of a deployment.
type record struct {
	Kind    string         `json:"kind"` // "deploy"
	Process *model.Process `json:"process,omitempty"`
}

// instState is a decoded instance state.
type instState struct {
	ID        string
	ProcessID string
	Status    Status
	Vars      map[string]expr.Value
	Tokens    []*Token
	Joins     map[string]map[string][]uint64
	StartedAt time.Time
	EndedAt   time.Time
}

// archived is a finished case kept as its final record: identity and
// status for listings, and the state record persistInstance journaled
// (or recovery read), decoded again only when a read needs it.
type archived struct {
	processID string
	status    Status
	state     []byte
}

// finishedRec is a finished case as recovery reads it: its own copy of
// the state record, with id and processID aliasing it.
type finishedRec struct {
	id, processID []byte
	status        Status
	state         []byte
}

// restoreInstance rebuilds an Instance from its journaled state: how
// recovery revives a live case and how reads revive an archived one.
func restoreInstance(st *instState, def *model.Process) *Instance {
	inst := newInstance(st.ID, def, st.Vars)
	inst.Status = st.Status
	inst.StartedAt = st.StartedAt
	inst.EndedAt = st.EndedAt
	if st.Joins != nil {
		inst.Joins = st.Joins
	}
	for _, tok := range st.Tokens {
		inst.Tokens[tok.ID] = tok
	}
	return inst
}

// appendRecord writes one journal record, waiting for the durability
// acknowledgement when the engine runs in durable mode. In durable
// mode the caller (holding one instance's lock) blocks only for its
// batch's fsync; transitions on other instances proceed concurrently
// and share the same group commit.
func (e *Engine) appendRecord(rec []byte) (uint64, error) {
	if e.durable {
		return e.journal.AppendDurable(rec)
	}
	return e.journal.Append(rec)
}

// recordBufPool recycles record buffers: every transition persists the
// instance state, so its record is assembled in a pooled buffer instead
// of allocating one per append (journals and the snapshot writer copy
// the payload before returning, so the buffer is free to reuse).
var recordBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// encodeDeploy wraps an already-encoded process definition in the
// deploy record envelope {"kind":"deploy","process":<def>} without
// re-marshalling it the way json.Marshal(record{...}) would (which
// walks every byte of it twice). The caller must return the buffer via
// recordBufPool.Put once the append returns.
func encodeDeploy(def []byte) *[]byte {
	bp := recordBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], `{"kind":"deploy","process":`...)
	buf = append(buf, def...)
	*bp = append(buf, '}')
	return bp
}

// persistInstance appends the instance's current state record to the
// journal and, for a finished case, returns an exact-size copy of it for
// retire to archive. Called under the instance lock. The returned error
// matters in durable mode: it is the failed durability acknowledgement,
// and API entry points must not report success past it. Serialization
// failures still must not kill execution on async (listener/timer)
// paths, whose callers ignore the return value as before.
func (e *Engine) persistInstance(inst *Instance) ([]byte, error) {
	bp := recordBufPool.Get().(*[]byte)
	defer recordBufPool.Put(bp)
	data, err := encodeInstance((*bp)[:0], inst)
	*bp = data
	if err != nil {
		return nil, fmt.Errorf("engine: encode instance %s: %w", inst.ID, err)
	}
	if _, err = e.appendRecord(data); err != nil {
		// A failed append (or durability ack) is a storage I/O error:
		// fail-stop the shard. Encode errors above do not — the disk is
		// fine, only this record is unrepresentable.
		e.failStop("journal append", err)
		return nil, fmt.Errorf("engine: persist instance %s: %w", inst.ID, err)
	}
	e.maybeSnapshot()
	if inst.Status == StatusActive {
		return nil, nil
	}
	return bytes.Clone(data), nil
}

func (e *Engine) persistDeploy(p *model.Process) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	bp := encodeDeploy(data)
	_, err = e.appendRecord(*bp)
	recordBufPool.Put(bp)
	if err != nil {
		e.failStop("journal append", err)
		return err
	}
	e.maybeSnapshot()
	return nil
}

// maybeSnapshot triggers a snapshot after every SnapshotEvery appends.
// The snapshot itself runs asynchronously: persistInstance calls this
// while holding an instance lock, and Snapshot must be free to lock
// every instance.
func (e *Engine) maybeSnapshot() {
	if e.snapshots == nil || e.snapshotEvery <= 0 || e.degraded.Load() {
		return
	}
	e.mu.Lock()
	e.appendsSince++
	due := e.appendsSince >= e.snapshotEvery
	if due {
		e.appendsSince = 0
	}
	e.mu.Unlock()
	if due {
		e.requestSnapshot()
	}
}

// requestSnapshot starts an asynchronous snapshot, or — when one is
// already in flight — re-arms the trigger so it fires when the
// in-flight snapshot completes. Without the re-arm the trigger would
// be lost entirely: maybeSnapshot has already reset its append counter
// by the time the CAS fails, so nothing would schedule the snapshot
// those appends were owed.
func (e *Engine) requestSnapshot() {
	if e.snapshotting.CompareAndSwap(false, true) {
		go e.snapshotLoop()
		return
	}
	e.snapshotPending.Store(true)
	// The in-flight snapshot may have finished between the failed CAS
	// and the pending store, missing the flag; retry the claim so the
	// trigger cannot fall into that gap.
	if e.snapshotting.CompareAndSwap(false, true) {
		go e.snapshotLoop()
	}
}

// snapshotLoop runs snapshots while triggers keep arriving, releasing
// the in-flight claim between rounds. The pending flag is cleared
// before each snapshot so a trigger arriving mid-snapshot schedules
// exactly one follow-up round.
func (e *Engine) snapshotLoop() {
	for {
		e.snapshotPending.Store(false)
		if e.degraded.Load() {
			// Frozen: stop churning the failing disk with snapshots.
			e.snapshotting.Store(false)
			return
		}
		_ = e.Snapshot()
		e.snapshotting.Store(false)
		if !e.snapshotPending.Load() {
			return
		}
		if !e.snapshotting.CompareAndSwap(false, true) {
			return // a concurrent requestSnapshot claimed the follow-up
		}
	}
}

// TrySnapshot starts an asynchronous snapshot unless one is already in
// flight or the journal has not advanced past the last snapshot. The
// time-based scheduler calls this on every tick; an in-flight snapshot
// or an idle journal satisfies the tick rather than queueing behind it.
func (e *Engine) TrySnapshot() bool {
	if e.snapshots == nil || e.degraded.Load() {
		return false
	}
	if e.journal.LastIndex() == e.lastSnapIndex.Load() {
		return false
	}
	if !e.snapshotting.CompareAndSwap(false, true) {
		return false
	}
	go e.snapshotLoop()
	return true
}

// snapCase is one case a snapshot writes: a live instance, encoded
// under its lock when its turn comes, or an archived one's final
// record, written as it is.
type snapCase struct {
	id    string
	inst  *Instance
	state []byte
}

// snapshotContents fixes what a snapshot covers: the journal index it
// stands for, then the definitions and cases to write, each sorted by
// ID. The index is read BEFORE the listing. A definition or instance
// enters its map before its first record is appended, so whatever the
// journal holds up to index is in the listing; something registered
// after the read has its record above index, where replay finds it.
// Read the other way round, a case started between the two steps was in
// neither the image nor the replayed suffix, and a restart lost it
// though its start had been acknowledged. The image may thus be ahead
// of its index, never behind, and replay's last-write-wins makes ahead
// harmless. Live and archived cases are listed under one lock, so a
// case retiring meanwhile is listed once; the sort runs after the lock
// is released, so starts and retirements do not wait for it.
func (e *Engine) snapshotContents() (index uint64, defs []*model.Process, cases []snapCase) {
	index = e.journal.LastIndex()
	if e.afterSnapshotIndex != nil {
		e.afterSnapshotIndex()
	}
	e.mu.RLock()
	defs = make([]*model.Process, 0, len(e.definitions))
	for _, def := range e.definitions {
		defs = append(defs, def)
	}
	cases = make([]snapCase, 0, len(e.instances)+len(e.archive))
	for id, inst := range e.instances {
		cases = append(cases, snapCase{id: id, inst: inst})
	}
	for id, a := range e.archive {
		cases = append(cases, snapCase{id: id, state: a.state})
	}
	e.mu.RUnlock()
	sort.Slice(defs, func(a, b int) bool { return defs[a].ID < defs[b].ID })
	sort.Slice(cases, func(a, b int) bool { return cases[a].id < cases[b].id })
	return index, defs, cases
}

// Snapshot writes a point-in-time engine image covering the journal
// index read when it began, then drops the covered journal prefix. Each
// live instance is locked just long enough to encode it, an archived
// case's final record is written as is, and every record is
// streamed straight to the snapshot writer, so memory stays bounded by
// one instance's state rather than the total image. Instances mutated
// concurrently are still written — possibly with post-index state —
// which is safe because replay applies the journal suffix on top with
// last-write-wins semantics.
func (e *Engine) Snapshot() error {
	if e.snapshots == nil {
		return fmt.Errorf("engine: no snapshot store configured")
	}
	// An explicit call (admin endpoint, shutdown) may meet the
	// scheduler's snapshot in flight; two writers at one journal index
	// share a temp file, and the slower one's rename fails.
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	index, defs, cases := e.snapshotContents()
	w, err := e.snapshots.Writer(index)
	if err != nil {
		e.failStop("snapshot create", err)
		return err
	}
	// Encode errors abort the snapshot but do not fail-stop (the disk
	// is healthy); append/commit/truncate errors are storage I/O and do.
	bp := recordBufPool.Get().(*[]byte)
	defer recordBufPool.Put(bp)
	appendRec := func(payload []byte) error {
		err := w.Append(payload)
		if err != nil {
			e.failStop("snapshot write", err)
		}
		return err
	}
	for _, def := range defs {
		data, err := json.Marshal(def)
		if err == nil {
			ep := encodeDeploy(data)
			err = appendRec(*ep)
			recordBufPool.Put(ep)
		}
		if err != nil {
			w.Abort()
			return err
		}
	}
	for _, c := range cases {
		var err error
		switch {
		case c.inst != nil:
			c.inst.mu.Lock()
			*bp, err = encodeInstance((*bp)[:0], c.inst)
			c.inst.mu.Unlock()
			if err == nil {
				err = appendRec(*bp)
			}
		default:
			err = appendRec(c.state)
		}
		if err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Commit(); err != nil {
		e.failStop("snapshot commit", err)
		return err
	}
	e.lastSnapIndex.Store(index)
	if err := e.journal.DropBefore(index + 1); err != nil {
		e.failStop("journal truncate", err)
		return err
	}
	return nil
}

// decodeRecoveryRecord decodes one record (from a snapshot or the
// journal) into its recovered form: a compiled *model.Process, the
// *instState of a live case, or a *finishedRec, a finished case kept as
// its bytes, undecoded but for its head. The payload is not retained
// past the call.
func decodeRecoveryRecord(payload []byte) (any, error) {
	if _, _, status, _, ok := readStateHead(payload); ok && status != StatusActive {
		own := bytes.Clone(payload)
		id, pid, _, _, _ := readStateHead(own)
		return &finishedRec{id: id, processID: pid, status: status, state: own}, nil
	}
	if len(payload) > 0 && payload[0] == stateV2 {
		st, err := parseState(payload)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("engine: decode journal record: %w", err)
	}
	if rec.Kind != "deploy" || rec.Process == nil {
		return nil, fmt.Errorf("engine: journal record of kind %q is neither a deployment nor a binary instance state "+
			"(data dirs written before binary states are upgraded when core.Open opens them)", rec.Kind)
	}
	rec.Process.Index()
	if err := rec.Process.Compile(); err != nil {
		return nil, fmt.Errorf("engine: compile recovered definition %q: %w", rec.Process.ID, err)
	}
	return rec.Process, nil
}

// recover rebuilds engine state from the latest snapshot (when
// present) plus the journal suffix, then re-arms all volatile wait
// machinery. Both are read serially, one record at a time. Finished
// cases go straight to the archive, mostly undecoded; only live ones
// are rebuilt and re-armed. The definition, instance and archive maps
// are built locally and published into the engine under its lock in
// one step: under the shard router, sibling shards recover
// concurrently and their task-transition listeners call Has on this
// engine while it is still replaying (holding the lock across the
// whole replay instead would deadlock — rearmInstance's work-item
// re-issue notifies this engine's own listener, which takes a read
// lock).
func (e *Engine) recover() error {
	defs := map[string]*model.Process{}
	states := map[string]*instState{}
	archive := map[string]archived{}
	processIDs := map[string]string{} // one string per process ID
	var fromIndex uint64 = 1

	// Last write wins across the live and archived maps.
	apply := func(p []byte) error {
		v, err := decodeRecoveryRecord(p)
		if err != nil {
			return err
		}
		switch x := v.(type) {
		case *model.Process:
			defs[x.ID] = x
		case *instState:
			states[x.ID] = x
			delete(archive, x.ID)
		case *finishedRec:
			pid, ok := processIDs[string(x.processID)]
			if !ok {
				pid = string(x.processID)
				processIDs[pid] = pid
			}
			id := string(x.id)
			archive[id] = archived{processID: pid, status: x.status, state: x.state}
			delete(states, id)
		}
		return nil
	}

	if e.snapshots != nil {
		sn, err := e.snapshots.LatestSnapshot()
		if err != nil {
			return fmt.Errorf("engine: read snapshot: %w", err)
		}
		if sn != nil {
			if err := sn.Iterate(apply); err != nil {
				return err
			}
			fromIndex = sn.Index + 1
			e.lastSnapIndex.Store(sn.Index)
		}
	}

	// Replay must start at or below fromIndex. A journal that begins
	// above it was compacted past a snapshot recovery could not read
	// (damaged, or missing), and the records in between are gone:
	// recovering without them would silently lose acknowledged cases.
	if first := e.journal.FirstIndex(); first > fromIndex {
		return fmt.Errorf("engine: journal starts at index %d but recovery needs it from %d: "+
			"records %d..%d are covered only by a snapshot that cannot be read", first, fromIndex, fromIndex, first-1)
	}

	if err := e.journal.Replay(fromIndex, func(_ uint64, payload []byte) error {
		return apply(payload)
	}); err != nil {
		return err
	}

	var maxSeq, maxTok uint64
	for id, a := range archive {
		if defs[a.processID] == nil {
			return fmt.Errorf("engine: instance %s references unknown process %q", id, a.processID)
		}
		maxSeq = max(maxSeq, instanceSeq(id))
	}
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	insts := make(map[string]*Instance, len(states))
	for _, id := range ids {
		st := states[id]
		def := defs[st.ProcessID]
		if def == nil {
			return fmt.Errorf("engine: instance %s references unknown process %q", id, st.ProcessID)
		}
		insts[id] = restoreInstance(st, def)
		for _, tok := range st.Tokens {
			maxTok = max(maxTok, tok.ID)
		}
		maxSeq = max(maxSeq, instanceSeq(id))
	}
	e.mu.Lock()
	e.definitions, e.instances, e.archive = defs, insts, archive
	e.mu.Unlock()
	e.idSeq.Store(maxSeq)
	e.tokSeq.Store(maxTok)

	// Re-arm volatile machinery for the live instances.
	for _, id := range ids {
		inst := insts[id]
		inst.mu.Lock()
		e.rearmInstance(inst)
		inst.mu.Unlock()
	}
	return nil
}

// MaxInstanceSeq returns the highest trailing "-<n>" sequence number
// among the given instance IDs (0 when none parses). Engine recovery
// and the shard router both re-seed their ID sequences with it.
func MaxInstanceSeq(ids []string) uint64 {
	var seq uint64
	for _, id := range ids {
		seq = max(seq, instanceSeq(id))
	}
	return seq
}

// instanceSeq returns an instance ID's trailing "-<n>" number (0 when
// it has none).
func instanceSeq(id string) uint64 {
	if i := strings.LastIndex(id, "-"); i >= 0 {
		if n, err := strconv.ParseUint(id[i+1:], 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// rearmInstance restores timers, message subscriptions, and work items
// for every parked token of a recovered instance.
func (e *Engine) rearmInstance(inst *Instance) {
	tokIDs := make([]uint64, 0, len(inst.Tokens))
	for id := range inst.Tokens {
		tokIDs = append(tokIDs, id)
	}
	sort.Slice(tokIDs, func(a, b int) bool { return tokIDs[a] < tokIDs[b] })
	for _, id := range tokIDs {
		tok := inst.Tokens[id]
		switch tok.Wait {
		case WaitTimer:
			instID, tokID := inst.ID, tok.ID
			tok.timerID = e.timers.Schedule(tok.TimerAt, func() {
				e.fireTokenTimer(instID, tokID)
			})
		case WaitMessage:
			e.subs.add(subscription{
				Name: tok.Message, Key: tok.CorrKey, InstanceID: inst.ID,
				TokenID: tok.ID, Elem: tok.Elem, Kind: subMessage,
			})
		case WaitEventGate:
			for i := range tok.Race {
				arm := &tok.Race[i]
				if arm.Message != "" {
					e.subs.add(subscription{
						Name: arm.Message, Key: arm.CorrKey, InstanceID: inst.ID,
						TokenID: tok.ID, Elem: arm.Elem, Kind: subRace,
					})
				} else {
					instID, tokID, armElem := inst.ID, tok.ID, arm.Elem
					arm.timerID = e.timers.Schedule(arm.TimerAt, func() {
						e.fireRace(instID, tokID, armElem, nil)
					})
				}
			}
		case WaitUserTask:
			// The worklist is in-memory: re-issue the work item.
			e.reissueWorkItem(inst, tok, -1)
		case WaitMulti:
			open := append([]string(nil), tok.MI.OpenItems...)
			tok.MI.OpenItems = nil
			oldIdx := tok.MI.ItemIdx
			tok.MI.ItemIdx = map[string]int{}
			for _, old := range open {
				e.reissueWorkItem(inst, tok, oldIdx[old])
			}
		}
		// Boundary arms (independent of the main wait kind).
		for i := range tok.Boundaries {
			arm := &tok.Boundaries[i]
			if arm.Fired {
				continue
			}
			switch {
			case arm.Message != "":
				e.subs.add(subscription{
					Name: arm.Message, Key: arm.CorrKey, InstanceID: inst.ID,
					TokenID: tok.ID, Elem: arm.Elem, Kind: subBoundary,
				})
			case !arm.TimerAt.IsZero():
				instID, tokID, armElem := inst.ID, tok.ID, arm.Elem
				arm.timerID = e.timers.Schedule(arm.TimerAt, func() {
					e.fireBoundary(instID, tokID, armElem, nil)
				})
			}
		}
	}
}

// reissueWorkItem recreates the work item behind a recovered user-task
// token. idx >= 0 recreates a multi-instance item for that collection
// index.
func (e *Engine) reissueWorkItem(inst *Instance, tok *Token, idx int) {
	_, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		e.reissueFailures.Add(1)
		return
	}
	data := map[string]any{}
	for k, v := range inst.Vars {
		data[k] = v.ToGo()
	}
	name := el.Name
	if name == "" {
		name = el.ID
	}
	if idx >= 0 && tok.MI != nil {
		data[tok.MI.ElemVar] = tok.MI.Items[idx].ToGo()
		data["loopCounter"] = int64(idx)
		name = fmt.Sprintf("%s [%d/%d]", name, idx+1, tok.MI.Total)
	}
	var due time.Duration
	if el.DueIn != "" {
		due, _ = time.ParseDuration(el.DueIn)
	}
	it, err := e.tasks.Create(task.Spec{
		ProcessID:  inst.ProcessID,
		InstanceID: inst.ID,
		ElementID:  tok.Elem,
		Name:       name,
		Role:       el.Role,
		Assignee:   el.Assignee,
		Capability: el.Capability,
		Priority:   el.Priority,
		Due:        due,
		Data:       data,
	})
	if err != nil {
		e.reissueFailures.Add(1)
		return
	}
	if idx >= 0 && tok.MI != nil {
		tok.MI.OpenItems = append(tok.MI.OpenItems, it.ID)
		tok.MI.ItemIdx[it.ID] = idx
	} else {
		tok.WorkItemID = it.ID
	}
}
