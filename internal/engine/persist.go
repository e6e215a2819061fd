package engine

import (
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

// persistInstance appends the instance's current state to the journal.
// Called under the instance lock. The returned error matters in
// durable mode: it is the failed durability acknowledgement, and API
// entry points must not report success past it. Serialization
// failures still must not kill execution on async (listener/timer)
// paths, whose callers ignore the return value as before.
func (e *Engine) persistInstance(inst *Instance) error {
	data, err := e.encodeInstance(inst)
	if err != nil {
		return fmt.Errorf("engine: encode instance %s: %w", inst.ID, err)
	}
	bp := encodeRecord("instance", "state", data)
	_, err = e.appendRecord(*bp)
	recordBufPool.Put(bp)
	if err != nil {
		// A failed append (or durability ack) is a storage I/O error:
		// fail-stop the shard. Encode errors above do not — the disk is
		// fine, only this record is unrepresentable.
		e.failStop("journal append", err)
		return fmt.Errorf("engine: persist instance %s: %w", inst.ID, err)
	}
	e.maybeSnapshot()
	return nil
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

// snapshotContents fixes what a snapshot covers: the journal index it
// stands for, then the definitions and instances to write, each sorted
// by ID. The index is read BEFORE the listing. A definition or
// instance enters its map before its first record is appended, so
// whatever the journal holds up to index is in the listing; something
// registered after the read has its record above index, where replay
// finds it. Read the other way round, a case started between the two
// steps was in neither the image nor the replayed suffix, and a
// restart lost it though its start had been acknowledged. The image
// may thus be ahead of its index, never behind, and replay's
// last-write-wins makes ahead harmless.
func (e *Engine) snapshotContents() (index uint64, defs []*model.Process, insts []*Instance) {
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
	insts = make([]*Instance, 0, len(e.instances))
	for _, inst := range e.instances {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a].ID < insts[b].ID })
	return index, defs, insts
}

// Snapshot writes a point-in-time engine image covering the journal
// index read when it began, then drops the covered journal prefix. Each
// instance is locked just long enough to encode it and the record is
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
	if e.blobSnapshots {
		return e.snapshotBlob()
	}
	index, defs, insts := e.snapshotContents()
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
	for _, inst := range insts {
		inst.mu.Lock()
		data, err := e.encodeInstance(inst)
		inst.mu.Unlock()
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

// snapshotBlob is the legacy single-blob snapshot path: the whole
// engine image is marshalled in memory and written in one Write call.
// Retained only as the seed baseline for experiment T16.
func (e *Engine) snapshotBlob() error {
	index, defs, insts := e.snapshotContents()
	img := snapshotImage{Definitions: defs}
	for _, inst := range insts {
		inst.mu.Lock()
		data, err := e.encodeInstance(inst)
		inst.mu.Unlock()
		if err != nil {
			return err
		}
		img.Instances = append(img.Instances, data)
	}
	data, err := json.Marshal(img)
	if err != nil {
		return err
	}
	if err := e.snapshots.Write(index, data); err != nil {
		e.failStop("snapshot write", err)
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
// compiled *model.Process or an *instState. Safe for concurrent use;
// the payload is not retained past the call.
func decodeRecoveryRecord(payload []byte) (any, error) {
	// An instance record as encodeRecord writes it: the state is the
	// rest of the envelope, decoded where it lies. A state that does
	// not decode (so may not end where the envelope does) is left to
	// the envelope decoder below, as is every other spelling.
	const instanceHead = `{"kind":"instance","state":`
	if n := len(payload); n > len(instanceHead) && payload[n-1] == '}' && string(payload[:len(instanceHead)]) == instanceHead {
		st := &instState{}
		if json.Unmarshal(payload[len(instanceHead):n-1], st) == nil {
			return st, nil
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
		st := &instState{}
		if err := json.Unmarshal(rec.State, st); err != nil {
			return nil, fmt.Errorf("engine: decode instance state: %w", err)
		}
		return st, nil
	default:
		return nil, fmt.Errorf("engine: unknown journal record kind %q", rec.Kind)
	}
}

// errSnapshotDecodeAborted stops Snapshot.Iterate early once a decode
// worker has already failed; the worker's error is reported instead.
var errSnapshotDecodeAborted = errors.New("engine: snapshot decode aborted")

// loadSnapshotParallel streams the snapshot's records through a decode
// worker pool, merging results into defs/states. Records are unique
// per definition/instance, so merge order does not matter.
func loadSnapshotParallel(sn *storage.Snapshot, workers int,
	defs map[string]*model.Process, states map[string]*instState) error {
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
				switch x := v.(type) {
				case *model.Process:
					defs[x.ID] = x
				case *instState:
					states[x.ID] = x
				}
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
// supports it (decode on workers, apply in index order).
// recover builds the definition and instance maps locally and
// publishes them into the engine under its lock in one step: under the
// shard router, sibling shards recover concurrently and their
// task-transition listeners call Has on this engine while it is still
// replaying (holding the lock across the whole replay instead would
// deadlock — rearmInstance's work-item re-issue notifies this engine's
// own listener, which takes a read lock).
func (e *Engine) recover() error {
	defs := map[string]*model.Process{}
	states := map[string]*instState{}
	var fromIndex uint64 = 1

	workers := e.recoverWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	merge := func(v any) {
		switch x := v.(type) {
		case *model.Process:
			defs[x.ID] = x
		case *instState:
			states[x.ID] = x
		}
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
						var st instState
						if err := json.Unmarshal(raw, &st); err != nil {
							return fmt.Errorf("engine: decode snapshot instance: %w", err)
						}
						states[st.ID] = &st
					}
					return nil
				})
			case workers <= 1:
				err = sn.Iterate(func(p []byte) error {
					v, derr := decodeRecoveryRecord(p)
					if derr != nil {
						return derr
					}
					merge(v)
					return nil
				})
			default:
				err = loadSnapshotParallel(sn, workers, defs, states)
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
			v, derr := decodeRecoveryRecord(payload)
			if derr != nil {
				return derr
			}
			merge(v)
			return nil
		})
	}
	if err != nil {
		return err
	}

	var maxTok uint64
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	insts := map[string]*Instance{}
	for _, id := range ids {
		st := states[id]
		def := defs[st.ProcessID]
		if def == nil {
			return fmt.Errorf("engine: instance %s references unknown process %q", id, st.ProcessID)
		}
		inst := newInstance(st.ID, def, st.Vars)
		inst.Status = st.Status
		inst.StartedAt = st.StartedAt
		inst.EndedAt = st.EndedAt
		if st.Joins != nil {
			inst.Joins = st.Joins
		}
		for _, tok := range st.Tokens {
			inst.Tokens[tok.ID] = tok
			if tok.ID > maxTok {
				maxTok = tok.ID
			}
		}
		insts[st.ID] = inst
	}
	e.mu.Lock()
	for id, def := range defs {
		e.definitions[id] = def
	}
	for id, inst := range insts {
		e.instances[id] = inst
	}
	e.mu.Unlock()
	e.idSeq.Store(MaxInstanceSeq(ids))
	e.tokSeq.Store(maxTok)

	// Re-arm volatile machinery for active instances.
	for _, id := range ids {
		inst := insts[id]
		if inst.Status != StatusActive {
			continue
		}
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
	var max uint64
	for _, id := range ids {
		if i := strings.LastIndex(id, "-"); i >= 0 {
			if n, err := strconv.ParseUint(id[i+1:], 10, 64); err == nil && n > max {
				max = n
			}
		}
	}
	return max
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
	proc, el, err := e.resolve(inst, tok.Elem)
	if err != nil {
		return
	}
	_ = proc
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
		return
	}
	if idx >= 0 && tok.MI != nil {
		tok.MI.OpenItems = append(tok.MI.OpenItems, it.ID)
		tok.MI.ItemIdx[it.ID] = idx
	} else {
		tok.WorkItemID = it.ID
	}
}
