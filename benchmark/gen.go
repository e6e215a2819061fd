package main

import (
	"fmt"
	"math/rand"
)

// Workload names are fixed: later issues cite them.
const (
	scriptDurable = "script_durable"
	scriptMemory  = "script_memory"
	humanBacklog  = "human_backlog"
	crashRecovery = "crash_recovery"
)

var workloadNames = []string{scriptDurable, scriptMemory, humanBacklog, crashRecovery}

// Process IDs of the two definitions under testdata/.
const (
	pipelineID = "bench-pipeline"
	claimsID   = "bench-claims"
)

// Roles and users of the claims process: six clerks and two assessors.
const (
	roleClerk    = "clerk"
	roleAssessor = "assessor"
)

type user struct {
	ID   string
	Role string
}

var users = func() []user {
	var out []user
	for i := 0; i < 6; i++ {
		out = append(out, user{fmt.Sprintf("clerk-%d", i), roleClerk})
	}
	for i := 0; i < 2; i++ {
		out = append(out, user{fmt.Sprintf("assessor-%d", i), roleAssessor})
	}
	return out
}()

func roleOf(userID string) string {
	for _, u := range users {
		if u.ID == userID {
			return u.Role
		}
	}
	return ""
}

// Size is the amount of work one run does. Runs are sized by operation
// count from a fresh server, not by wall time, so the server's state
// (instances resident, snapshot size, backlog depth) follows the same
// trajectory on every run and any two runs are comparable.
type Size struct {
	Script   int     // script cases started in the timed phase
	Claims   int     // claims cases preloaded (human_backlog) or loaded (crash_recovery)
	Turns    int     // worker turns (human_backlog)
	Rate     float64 // worker turns per second (human_backlog)
	Tail     int     // crash_recovery: cases loaded after the last snapshot, the journal suffix a restart replays
	Restarts int     // start -> /readyz -> SIGKILL cycles after the timed phase
	Setups   int     // times set-up is repeated; setup_s is their median
	Traced   int     // operations the traced replay covers
	Twin     int     // script_memory: starts repeated on a durable twin, for its disk and recovery readings
}

// The operation counts. On the 2-core sandbox each timed phase lasts about
// the 15 s BENCHMARK.json gives as run_seconds; a faster server finishes
// the same work sooner.
const (
	scriptDurableStarts = 20000
	scriptMemoryStarts  = 60000
	crashScriptCases    = 15000 // plus one claims case left open after every ten
	backlogCases        = 4000
	turnRate            = 100  // worker turns per second
	turnCount           = 1600 // a multiple of the eight users
	// The last cases of crash_recovery's load, held back until after the
	// snapshot of the idle server (see quietSnapshot). A case is one journal
	// append and bpmsd snapshots after every 1000: 2 deployments + 16 500
	// cases leave 502 appends after the last automatic snapshot, which is
	// how long the journal suffix is when the load runs through. The tail
	// must stay below that, or it sets off a snapshot under load.
	crashTailCases = 500
)

func sizeFor(workload string, quick bool) Size {
	var s Size
	switch workload {
	case scriptDurable:
		s = Size{Script: scriptDurableStarts, Restarts: 5, Setups: 31, Traced: 3000}
	case scriptMemory:
		s = Size{Script: scriptMemoryStarts, Restarts: 5, Setups: 31, Traced: 3000, Twin: 5000}
	case humanBacklog:
		s = Size{Claims: backlogCases, Turns: turnCount, Rate: turnRate, Restarts: 11, Setups: 3, Traced: 600}
	case crashRecovery:
		s = Size{Script: crashScriptCases, Claims: crashScriptCases / 10, Tail: crashTailCases, Restarts: 7, Setups: 31, Traced: 3300}
	}
	if quick {
		// -quick divides the operation counts by 50 (the smoke test's size).
		s.Script /= 50
		s.Claims /= 50
		s.Turns /= 50
		s.Traced /= 50
		s.Twin /= 50
		s.Tail /= 50
		s.Restarts, s.Setups = 2, 2
	}
	return s
}

// StartVars is the payload of one POST /instances.
type StartVars struct {
	Amount   int    `json:"amount"`
	Customer string `json:"customer"`
	Region   string `json:"region"`
}

func (v StartVars) Map() map[string]any {
	return map[string]any{"amount": v.Amount, "customer": v.Customer, "region": v.Region}
}

// Turn is one worker turn of human_backlog: at DueUS the user fetches a
// page of offers, works one listed item, and on every third turn files a
// new claim so the backlog holds.
type Turn struct {
	DueUS    int64      `json:"dueUs"` // microseconds after the timed phase begins
	User     string     `json:"user"`
	Severity int        `json:"severity"` // outcome payload of the completed item
	Start    *StartVars `json:"start,omitempty"`
}

// Stream is the whole pre-generated operation stream of one run. It is
// built from the seed before any server starts; the server receives only
// these inputs.
type Stream struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Script   []StartVars `json:"script,omitempty"`
	Claims   []StartVars `json:"claims,omitempty"`
	Turns    []Turn      `json:"turns,omitempty"`
}

var regions = []string{"north", "south", "east", "west"}

func genVars(r *rand.Rand, lo, hi int) StartVars {
	return StartVars{
		Amount:   lo + r.Intn(hi-lo),
		Customer: fmt.Sprintf("c-%06d", r.Intn(1000000)),
		Region:   regions[r.Intn(len(regions))],
	}
}

// generate builds the stream of one workload. script_durable and
// script_memory with the same seed get the same starts: they differ only
// in the server's storage.
func generate(workload string, seed int64, size Size) *Stream {
	r := rand.New(rand.NewSource(seed))
	st := &Stream{Workload: workload, Seed: seed}
	for i := 0; i < size.Script; i++ {
		st.Script = append(st.Script, genVars(r, 0, 10000))
	}
	for i := 0; i < size.Claims; i++ {
		st.Claims = append(st.Claims, genVars(r, 500, 20000))
	}
	// Workers are independent users, so no turn waits for another; each is
	// due at a random instant inside its own 1/Rate slot, and each block of
	// len(users) turns visits every user once in a shuffled order. Random
	// within a slot and a block, fixed across them: every seed has the same
	// length, rate and role mix, so seeds differ in inputs, not in load.
	var order []int
	for i := 0; i < size.Turns; i++ {
		if i%len(users) == 0 {
			order = r.Perm(len(users))
		}
		due := (float64(i) + r.Float64()) / size.Rate * 1e6
		t := Turn{DueUS: int64(due), User: users[order[i%len(users)]].ID, Severity: 1 + r.Intn(5)}
		if i%3 == 2 {
			v := genVars(r, 500, 20000)
			t.Start = &v
		}
		st.Turns = append(st.Turns, t)
	}
	return st
}
