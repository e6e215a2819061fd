package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
	"bpms/internal/task"
)

// Persistence model: each journal record carries either a deployment
// or the complete serialized state of one instance (last write wins on
// replay). A snapshot stores the whole engine image so recovery can
// skip the journal prefix (compaction via Journal.DropBefore).

type record struct {
	Kind    string          `json:"kind"` // "deploy" | "instance"
	Process *model.Process  `json:"process,omitempty"`
	State   json.RawMessage `json:"state,omitempty"`
}

// instState is the serialized form of an Instance.
type instState struct {
	ID        string                         `json:"id"`
	ProcessID string                         `json:"processId"`
	Status    Status                         `json:"status"`
	Vars      map[string]expr.Value          `json:"vars"`
	Tokens    []*Token                       `json:"tokens,omitempty"`
	Joins     map[string]map[string][]uint64 `json:"joins,omitempty"`
	StartedAt time.Time                      `json:"startedAt"`
	EndedAt   time.Time                      `json:"endedAt,omitempty"`
}

// archived is a finished case kept as its final record: identity and
// status for listings, and the instState JSON persistInstance journaled
// (or recovery read), decoded again only when a read needs it.
type archived struct {
	processID string
	status    Status
	state     []byte
}

// finishedRec is a finished case as recovery reads it: its own copy of
// the state JSON, with id and processID aliasing it where the fast path
// found them.
type finishedRec struct {
	id, processID []byte
	status        Status
	state         []byte
}

// readFinishedHead reads a finished case's identity where it lies: the
// {"id":"…","processId":"…","status":N, head encodeInstance writes,
// with neither string needing an escape and N a terminal status. Any
// other layout is left to the decoder (nil).
func readFinishedHead(state []byte) *finishedRec {
	const idKey, pidKey = `{"id":"`, `,"processId":"`
	id, rest, ok := plainField(state, idKey)
	if !ok {
		return nil
	}
	pid, rest, ok := plainField(rest, pidKey)
	if !ok {
		return nil
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"status":`))
	if !ok || len(rest) < 2 || rest[1] != ',' {
		return nil
	}
	status := Status(rest[0] - '0')
	if status <= StatusActive || status > StatusFaulted {
		return nil
	}
	own := bytes.Clone(state)
	idAt := len(idKey)
	pidAt := idAt + len(id) + len(`"`) + len(pidKey)
	return &finishedRec{id: own[idAt : idAt+len(id)], processID: own[pidAt : pidAt+len(pid)],
		status: status, state: own}
}

// plainField cuts key off b and splits the rest at its first '"' when
// every byte before it reads as itself in JSON: no escape, no control
// byte, valid UTF-8.
func plainField(b []byte, key string) (s, rest []byte, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte(key))
	i := bytes.IndexByte(b, '"')
	if !ok || i < 0 || !utf8.Valid(b[:i]) {
		return nil, nil, false
	}
	for _, c := range b[:i] {
		if c < 0x20 || c == '\\' {
			return nil, nil, false
		}
	}
	return b[:i], b[i+1:], true
}

// decodeState reads one instance state: a finished case is kept as its
// bytes (undecoded when readFinishedHead reads it), a live one decodes
// to an *instState.
func decodeState(state []byte) (any, error) {
	if f := readFinishedHead(state); f != nil {
		return f, nil
	}
	st := &instState{}
	if err := json.Unmarshal(state, st); err != nil {
		return nil, fmt.Errorf("engine: decode instance state: %w", err)
	}
	if st.Status == StatusActive {
		return st, nil
	}
	return &finishedRec{id: []byte(st.ID), processID: []byte(st.ProcessID),
		status: st.Status, state: bytes.Clone(state)}, nil
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

// snapshotImage is the legacy single-blob snapshot, still read by
// recover so data dirs written in that format open.
type snapshotImage struct {
	Definitions []*model.Process  `json:"definitions"`
	Instances   []json.RawMessage `json:"instances"`
}

func (e *Engine) encodeInstance(inst *Instance) ([]byte, error) {
	st := instState{
		ID:        inst.ID,
		ProcessID: inst.ProcessID,
		Status:    inst.Status,
		Vars:      inst.Vars,
		Joins:     inst.Joins,
		StartedAt: inst.StartedAt,
		EndedAt:   inst.EndedAt,
	}
	ids := make([]uint64, 0, len(inst.Tokens))
	for id := range inst.Tokens {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		st.Tokens = append(st.Tokens, inst.Tokens[id])
	}
	return json.Marshal(st)
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

// recordBufPool recycles record-envelope buffers: every transition
// persists the instance state, so the envelope is assembled in a
// pooled buffer instead of allocating one per append (journals copy
// the payload before returning, so the buffer is free to reuse).
var recordBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// encodeRecord wraps an already-encoded JSON payload in the journal
// record envelope {"kind":<kind>,<field>:<payload>} without
// re-marshalling the payload the way json.Marshal(record{...}) did
// (which walked every byte of the state twice). The caller must
// return the buffer via recordBufPool.Put once the append returns.
func encodeRecord(kind, field string, payload []byte) *[]byte {
	bp := recordBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, `{"kind":"`...)
	buf = append(buf, kind...)
	buf = append(buf, `","`...)
	buf = append(buf, field...)
	buf = append(buf, `":`...)
	buf = append(buf, payload...)
	buf = append(buf, '}')
	*bp = buf
	return bp
}

// persistInstance appends the instance's current state to the journal
// and returns that state's JSON. Called under the instance lock. The
// returned error matters in durable mode: it is the failed durability
// acknowledgement, and API entry points must not report success past
// it. Serialization failures still must not kill execution on async
// (listener/timer) paths, whose callers ignore the return value as
// before.
func (e *Engine) persistInstance(inst *Instance) ([]byte, error) {
	data, err := e.encodeInstance(inst)
	if err != nil {
		return nil, fmt.Errorf("engine: encode instance %s: %w", inst.ID, err)
	}
	bp := encodeRecord("instance", "state", data)
	_, err = e.appendRecord(*bp)
	recordBufPool.Put(bp)
	if err != nil {
		// A failed append (or durability ack) is a storage I/O error:
		// fail-stop the shard. Encode errors above do not — the disk is
		// fine, only this record is unrepresentable.
		e.failStop("journal append", err)
		return nil, fmt.Errorf("engine: persist instance %s: %w", inst.ID, err)
	}
	e.maybeSnapshot()
	return data, nil
}

func (e *Engine) persistDeploy(p *model.Process) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	bp := encodeRecord("deploy", "process", data)
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
// case retiring meanwhile is listed once.
func (e *Engine) snapshotContents() (index uint64, defs []*model.Process, cases []snapCase) {
	index = e.journal.LastIndex()
	if e.afterSnapshotIndex != nil {
		e.afterSnapshotIndex()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	defs = make([]*model.Process, 0, len(e.definitions))
	for _, def := range e.definitions {
		defs = append(defs, def)
	}
	sort.Slice(defs, func(a, b int) bool { return defs[a].ID < defs[b].ID })
	cases = make([]snapCase, 0, len(e.instances)+len(e.archive))
	for id, inst := range e.instances {
		cases = append(cases, snapCase{id: id, inst: inst})
	}
	for id, a := range e.archive {
		cases = append(cases, snapCase{id: id, state: a.state})
	}
	sort.Slice(cases, func(a, b int) bool { return cases[a].id < cases[b].id })
	return index, defs, cases
}

// Snapshot writes a point-in-time engine image covering the journal
// index read when it began, then drops the covered journal prefix. Each
// live instance is locked just long enough to encode it, an archived
// case's final record is copied as is, and every record is streamed
// straight to the snapshot writer, so memory stays bounded by one
// instance's state rather than the total image. Instances mutated
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
	appendRec := func(kind, field string, payload []byte) error {
		bp := encodeRecord(kind, field, payload)
		err := w.Append(*bp)
		recordBufPool.Put(bp)
		if err != nil {
			e.failStop("snapshot write", err)
		}
		return err
	}
	for _, def := range defs {
		data, err := json.Marshal(def)
		if err == nil {
			err = appendRec("deploy", "process", data)
		}
		if err != nil {
			w.Abort()
			return err
		}
	}
	for _, c := range cases {
		data := c.state
		var err error
		if c.inst != nil {
			c.inst.mu.Lock()
			data, err = e.encodeInstance(c.inst)
			c.inst.mu.Unlock()
		}
		if err == nil {
			err = appendRec("instance", "state", data)
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

// decodeRecoveryRecord decodes one record-envelope payload (from a
// streaming snapshot or the journal) into its recovered form: a
// compiled *model.Process, an *instState, or a *finishedRec. Safe for
// concurrent use; the payload is not retained past the call.
func decodeRecoveryRecord(payload []byte) (any, error) {
	// An instance record as encodeRecord writes it: the state is the
	// rest of the envelope, read where it lies. A state that does not
	// decode (so may not end where the envelope does) is left to the
	// envelope decoder below, as is every other spelling.
	const instanceHead = `{"kind":"instance","state":`
	if n := len(payload); n > len(instanceHead) && payload[n-1] == '}' && string(payload[:len(instanceHead)]) == instanceHead {
		if v, err := decodeState(payload[len(instanceHead) : n-1]); err == nil {
			return v, nil
		}
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("engine: decode journal record: %w", err)
	}
	switch rec.Kind {
	case "deploy":
		rec.Process.Index()
		if err := rec.Process.Compile(); err != nil {
			return nil, fmt.Errorf("engine: compile recovered definition %q: %w", rec.Process.ID, err)
		}
		return rec.Process, nil
	case "instance":
		return decodeState(rec.State)
	default:
		return nil, fmt.Errorf("engine: unknown journal record kind %q", rec.Kind)
	}
}

// errSnapshotDecodeAborted stops Snapshot.Iterate early once a decode
// worker has already failed; the worker's error is reported instead.
var errSnapshotDecodeAborted = errors.New("engine: snapshot decode aborted")

// loadSnapshotParallel streams the snapshot's records through a decode
// worker pool, handing each result to merge (one at a time). Records
// are unique per definition/instance, so merge order does not matter.
func loadSnapshotParallel(sn *storage.Snapshot, workers int, merge func(any)) error {
	var (
		mergeMu  sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	fail := func(err error) {
		mergeMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mergeMu.Unlock()
		failed.Store(true)
	}
	recCh := make(chan []byte, 4*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range recCh {
				if failed.Load() {
					continue
				}
				v, err := decodeRecoveryRecord(p)
				if err != nil {
					fail(err)
					continue
				}
				mergeMu.Lock()
				merge(v)
				mergeMu.Unlock()
			}
		}()
	}
	iterErr := sn.Iterate(func(p []byte) error {
		if failed.Load() {
			return errSnapshotDecodeAborted
		}
		// The iterator reuses its payload buffer; copy before handing
		// the record to a worker.
		recCh <- append(make([]byte, 0, len(p)), p...)
		return nil
	})
	close(recCh)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if iterErr != nil {
		return fmt.Errorf("engine: read snapshot: %w", iterErr)
	}
	return nil
}

// recover rebuilds engine state from the latest snapshot (when
// present) plus the journal suffix, then re-arms all volatile wait
// machinery. Streaming snapshots are decoded by a worker pool and the
// journal's sealed segments replay in parallel when the journal
// supports it (decode on workers, apply in index order). Finished
// cases go straight to the archive, mostly undecoded; only live ones
// are rebuilt and re-armed.
// recover builds the definition, instance and archive maps locally and
// publishes them into the engine under its lock in one step: under the
// shard router, sibling shards recover concurrently and their
// task-transition listeners call Has on this engine while it is still
// replaying (holding the lock across the whole replay instead would
// deadlock — rearmInstance's work-item re-issue notifies this engine's
// own listener, which takes a read lock).
func (e *Engine) recover() error {
	defs := map[string]*model.Process{}
	states := map[string]*instState{}
	archive := map[string]archived{}
	processIDs := map[string]string{} // one string per process ID
	var fromIndex uint64 = 1

	workers := e.recoverWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Last write wins across the live and archived maps.
	merge := func(v any) {
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
	}
	decodeMerge := func(p []byte) error {
		v, err := decodeRecoveryRecord(p)
		if err == nil {
			merge(v)
		}
		return err
	}

	if e.snapshots != nil {
		sn, err := e.snapshots.LatestSnapshot()
		if err != nil {
			return fmt.Errorf("engine: read snapshot: %w", err)
		}
		if sn != nil {
			switch {
			case sn.Legacy:
				// One record carrying the whole blob image.
				err = sn.Iterate(func(data []byte) error {
					var img snapshotImage
					if err := json.Unmarshal(data, &img); err != nil {
						return fmt.Errorf("engine: decode snapshot: %w", err)
					}
					for _, def := range img.Definitions {
						def.Index()
						if err := def.Compile(); err != nil {
							return fmt.Errorf("engine: compile snapshot definition %q: %w", def.ID, err)
						}
						defs[def.ID] = def
					}
					for _, raw := range img.Instances {
						v, err := decodeState(raw)
						if err != nil {
							return fmt.Errorf("engine: decode snapshot instance: %w", err)
						}
						merge(v)
					}
					return nil
				})
			case workers <= 1:
				err = sn.Iterate(decodeMerge)
			default:
				err = loadSnapshotParallel(sn, workers, merge)
			}
			if err != nil {
				return err
			}
			fromIndex = sn.Index + 1
			e.lastSnapIndex.Store(sn.Index)
		}
	}

	var err error
	if pr, ok := e.journal.(storage.ParallelReplayer); ok && workers > 1 {
		err = pr.ReplayParallel(fromIndex, workers,
			func(_ uint64, payload []byte) (any, error) {
				return decodeRecoveryRecord(payload)
			},
			func(_ uint64, v any) error {
				merge(v)
				return nil
			})
	} else {
		err = e.journal.Replay(fromIndex, func(_ uint64, payload []byte) error {
			return decodeMerge(payload)
		})
	}
	if err != nil {
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
