package engine_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"bpms/internal/api"
	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/resource"
)

// TestRetirementEquivalence holds every read of a finished case, and
// the errors of writes to it, to one answer across its life: finished
// but still live, archived, reopened from the journal alone, and
// reopened from a snapshot.
func TestRetirementEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkRetirement(t, shards, int64(shards))
		})
	}
}

func checkRetirement(t *testing.T, shards int, seed int64) {
	opts := core.Options{DataDir: t.TempDir(), Shards: shards, Users: []resource.User{
		{ID: "carol", Roles: []string{"clerk"}}, {ID: "ann", Roles: []string{"assessor"}}}}
	sys, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		pending []func()
	)
	for i := 0; i < shards; i++ {
		engine.DeferRetirement(sys.Engine.Shard(i), func(retire func()) {
			mu.Lock()
			pending = append(pending, retire)
			mu.Unlock()
		})
	}
	sys.Engine.RegisterHandler("boom", func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, errors.New("boom")
	})
	for _, p := range retirementDefinitions(t) {
		if err := sys.Engine.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	h := api.New(sys).Handler()
	r := rand.New(rand.NewSource(seed))
	var ids []string
	toComplete, toCancel := map[string]bool{}, map[string]bool{}
	for i := 0; i < 6; i++ {
		for _, proc := range []string{"bench-pipeline", "bench-claims", "term", "incident"} {
			body := fmt.Sprintf(`{"processId":%q,"vars":{"amount":%d,"customer":"c-%06d","region":"north"}}`,
				proc, r.Intn(10000), r.Intn(1000000))
			code, resp := call(h, "POST", "/api/v1/instances", body)
			if code != http.StatusCreated {
				t.Fatalf("start %s: %d %s", proc, code, resp)
			}
			var inst struct{ ID string }
			if err := json.Unmarshal([]byte(resp), &inst); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, inst.ID)
			if proc == "bench-claims" {
				if r.Intn(2) == 0 {
					toCancel[inst.ID] = true
				} else {
					toComplete[inst.ID] = true
				}
			}
		}
	}
	for id := range toCancel {
		if code, resp := call(h, "DELETE", "/api/v1/instances/"+id, ""); code != http.StatusNoContent {
			t.Fatalf("cancel %s: %d %s", id, code, resp)
		}
	}
	completeWork(t, sys, toComplete)

	want := observe(t, h, sys, ids)
	for _, id := range ids {
		if !strings.Contains(want[id], `"status":"`) || strings.Contains(want[id], `"status":"active"`) {
			t.Fatalf("%s did not finish: %s", id, want[id])
		}
	}
	mu.Lock()
	if len(pending) != len(ids) {
		t.Fatalf("%d retirements pending, want %d", len(pending), len(ids))
	}
	for _, retire := range pending {
		retire()
	}
	mu.Unlock()
	same := func(phase string, got map[string]string) {
		t.Helper()
		for _, id := range append(ids, "stats") {
			if got[id] != want[id] {
				t.Errorf("%s, %s:\n got %s\nwant %s", phase, id, got[id], want[id])
			}
		}
	}
	same("archived", observe(t, h, sys, ids))
	if n := archivedCount(sys); n != len(ids) {
		t.Errorf("%d cases archived, want %d", n, len(ids))
	}

	reopen := func(phase string) {
		t.Helper()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if sys, err = core.Open(opts); err != nil {
			t.Fatal(err)
		}
		h = api.New(sys).Handler()
		same(phase, observe(t, h, sys, ids))
		if n := archivedCount(sys); n != len(ids) {
			t.Errorf("%s: %d cases archived, want %d", phase, n, len(ids))
		}
	}
	reopen("reopened from the journal")
	if err := sys.Engine.Snapshot(); err != nil {
		t.Fatal(err)
	}
	reopen("reopened from a snapshot")
	sys.Close()
}

// retirementDefinitions are the benchmark's pipeline and claims cases
// plus a terminate end (its parked branch cancelled) and an incident
// (faulted, tokens kept).
func retirementDefinitions(t *testing.T) []*model.Process {
	var defs []*model.Process
	for _, name := range []string{"pipeline", "claims"} {
		data, err := os.ReadFile("../../benchmark/testdata/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		p, err := model.DecodeJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, p)
	}
	return append(defs,
		model.New("term").Start("s").AND("fork").UserTask("slow", model.Role("clerk")).
			TerminateEnd("stop").End("e").
			Flow("s", "fork").Flow("fork", "slow").Flow("fork", "stop").Flow("slow", "e").MustBuild(),
		model.New("incident").Start("s").ScriptTask("tag", model.Output("tagged", "amount + 1")).
			ServiceTask("fail", "boom").End("e").Seq("s", "tag", "fail", "e").MustBuild())
}

// completeWork claims, starts and completes every work item of the
// given cases, as whichever user it is offered to, until none is left.
func completeWork(t *testing.T, sys *core.BPMS, cases map[string]bool) {
	t.Helper()
	for progress := true; progress; {
		progress = false
		for _, u := range []string{"carol", "ann"} {
			for _, it := range sys.Tasks.OfferedItems(u) {
				if !cases[it.InstanceID] {
					continue
				}
				if _, err := sys.Tasks.Claim(it.ID, u); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Tasks.Start(it.ID, u); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Tasks.Complete(it.ID, u, map[string]any{"by": u}); err != nil {
					t.Fatal(err)
				}
				progress = true
			}
		}
	}
}

// observe records, per case, everything a client can read of it and
// what its writes answer, plus the stats counts under "stats".
func observe(t *testing.T, h http.Handler, sys *core.BPMS, ids []string) map[string]string {
	t.Helper()
	rows := map[string]engine.InstanceSummary{}
	for _, s := range sys.Engine.Summaries() {
		rows[s.ID] = s
	}
	out := map[string]string{}
	for _, id := range ids {
		var b strings.Builder
		code, body := call(h, "GET", "/api/v1/instances/"+id, "")
		fmt.Fprintf(&b, "get %d %s\n", code, body)
		vars, err := sys.Engine.Variables(id)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(vars))
		for k := range vars {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "var %s %v %s\n", k, vars[k].Kind(), vars[k])
		}
		fmt.Fprintf(&b, "row %+v\n", rows[id])
		code, body = call(h, "DELETE", "/api/v1/instances/"+id, "")
		fmt.Fprintf(&b, "cancel %d %s\n", code, body)
		code, body = call(h, "PUT", "/api/v1/instances/"+id+"/variables/probe", "1")
		fmt.Fprintf(&b, "set %d %s\n", code, body)
		out[id] = b.String()
	}
	_, stats := call(h, "GET", "/api/v1/stats", "")
	var st struct{ Instances map[string]int }
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	out["stats"] = fmt.Sprint(st.Instances)
	return out
}

func archivedCount(sys *core.BPMS) int {
	n := 0
	for _, s := range sys.ShardStats() {
		n += s.Archived
	}
	return n
}

func call(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}
