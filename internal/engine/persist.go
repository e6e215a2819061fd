package engine

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bpms/internal/expr"
	"bpms/internal/model"
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
// retire to archive. Called under the instance lock: the caller waits
// for its batch's fsync, while transitions on other instances proceed
// and share the same group commit. The returned error is the failed
// durability acknowledgement, and API entry points must not report
// success past it. Async (listener/timer) paths ignore it.
func (e *Engine) persistInstance(inst *Instance) ([]byte, error) {
	bp := recordBufPool.Get().(*[]byte)
	defer recordBufPool.Put(bp)
	data := encodeInstance((*bp)[:0], inst)
	*bp = data
	if _, err := e.journal.AppendDurable(data); err != nil {
		// A failed append (or durability ack) is a storage I/O error:
		// fail-stop the shard.
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
	_, err = e.journal.AppendDurable(*bp)
	recordBufPool.Put(bp)
	if err != nil {
		e.failStop("journal append", err)
		return err
	}
	e.maybeSnapshot()
	return nil
}

// maybeSnapshot asks the snapshotter for a round after every
// SnapshotEvery appends. It never blocks: persistInstance calls it under
// an instance lock, which Snapshot must be free to take, and a request
// already waiting in the 1-slot channel covers this one too.
func (e *Engine) maybeSnapshot() {
	if e.snapshotEvery == 0 || e.snapStop == nil || e.appends.Add(1)%e.snapshotEvery != 0 {
		return
	}
	select {
	case e.snapReq <- struct{}{}:
	default:
	}
}

// snapshotter runs the automatic snapshot rounds, one at a time: on a
// request from maybeSnapshot, and on every interval tick at which the
// journal has advanced past the last snapshot. A request that arrives
// while a round runs waits in the channel and gets exactly one more
// round. It exits when Close closes snapStop.
func (e *Engine) snapshotter(interval time.Duration) {
	defer close(e.snapDone)
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-e.snapStop:
			return
		case <-e.snapReq:
		case <-tick:
			if e.journal.LastIndex() == e.lastSnapIndex.Load() {
				continue
			}
		}
		// A degraded engine stops churning the failing disk.
		if !e.degraded.Load() {
			_ = e.Snapshot()
		}
	}
}

// errClosing is Snapshot's answer once Close has begun.
var errClosing = errors.New("engine: closing")

// Close ends the engine's snapshots before its owner closes the journal
// and the snapshot store: it stops the snapshotter, waits for its
// running round and for any explicit Snapshot call, and refuses later
// ones, which would otherwise write and truncate behind the closed
// journal and fail-stop the engine. It also quiets the worklist
// listener. The journal stays open; the caller closes it.
func (e *Engine) Close() {
	if !e.closing.CompareAndSwap(false, true) {
		return
	}
	if e.snapStop != nil {
		close(e.snapStop)
		<-e.snapDone
	}
	e.snapMu.Lock() // a running explicit Snapshot holds it
	e.snapMu.Unlock()
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
	// snapshotter's round in flight; two writers at one journal index
	// share a temp file, and the slower one's rename fails.
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if e.closing.Load() {
		return errClosing
	}
	index, defs, cases := e.snapshotContents()
	w, err := e.snapshots.Writer(index)
	if err != nil {
		e.failStop("snapshot create", err)
		return err
	}
	// A definition's encode error aborts the snapshot but does not
	// fail-stop (the disk is healthy); append/commit/truncate errors are
	// storage I/O and do.
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
		rec := c.state
		if c.inst != nil {
			c.inst.mu.Lock()
			*bp = encodeInstance((*bp)[:0], c.inst)
			c.inst.mu.Unlock()
			rec = *bp
		}
		if err := appendRec(rec); err != nil {
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

// load rebuilds engine state from the latest snapshot (when present)
// plus the journal suffix, read serially, one record at a time, and
// returns the live cases in ID order for arm. Finished cases go
// straight to the archive, mostly undecoded; only live ones are
// rebuilt. The definition, instance and archive maps are built locally
// and published into the engine under its lock in one step: under the
// shard router, a sibling shard arming its cases calls Has on this
// engine from its task-transition listener. Nothing here touches the
// worklist, the timers or the history store; arm does.
func (e *Engine) load() ([]*Instance, error) {
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
			return nil, fmt.Errorf("engine: read snapshot: %w", err)
		}
		if sn != nil {
			if err := sn.Iterate(apply); err != nil {
				return nil, err
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
		return nil, fmt.Errorf("engine: journal starts at index %d but recovery needs it from %d: "+
			"records %d..%d are covered only by a snapshot that cannot be read", first, fromIndex, fromIndex, first-1)
	}

	if err := e.journal.Replay(fromIndex, func(_ uint64, payload []byte) error {
		return apply(payload)
	}); err != nil {
		return nil, err
	}

	var maxTok uint64
	for id, a := range archive {
		if defs[a.processID] == nil {
			return nil, fmt.Errorf("engine: instance %s references unknown process %q", id, a.processID)
		}
	}
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	insts := make(map[string]*Instance, len(states))
	live := make([]*Instance, len(ids))
	for i, id := range ids {
		st := states[id]
		def := defs[st.ProcessID]
		if def == nil {
			return nil, fmt.Errorf("engine: instance %s references unknown process %q", id, st.ProcessID)
		}
		live[i] = restoreInstance(st, def)
		insts[id] = live[i]
		for _, tok := range st.Tokens {
			maxTok = max(maxTok, tok.ID)
		}
	}
	e.mu.Lock()
	e.definitions, e.instances, e.archive = defs, insts, archive
	e.mu.Unlock()
	e.tokSeq.Store(maxTok)
	return live, nil
}

// arm re-arms the loaded live cases' waits as their first park did,
// case by case and token by token in ID order: the worklist is in
// memory, so open work items are issued again first, then armToken
// registers each token's timers and subscriptions (wait.go).
func (e *Engine) arm(live []*Instance) {
	var buf [8]*Token
	for _, inst := range live {
		inst.mu.Lock()
		toks := buf[:0]
		for _, tok := range inst.Tokens {
			toks = append(toks, tok)
		}
		slices.SortFunc(toks, func(a, b *Token) int { return cmp.Compare(a.ID, b.ID) })
		for _, tok := range toks {
			e.reissueWorkItems(inst, tok)
			e.armToken(inst, tok)
		}
		inst.mu.Unlock()
	}
}
