package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/model"
)

func newServer(t *testing.T) (*httptest.Server, *core.BPMS) {
	t.Helper()
	b, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	b.AddUser("alice", "clerk")
	b.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	ts := httptest.NewServer(New(b).Handler())
	t.Cleanup(ts.Close)
	return ts, b
}

func doJSON(t *testing.T, method, url string, body any, want int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d, want %d (%s)", method, url, resp.StatusCode, want, msg.String())
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&out); err != nil {
		return nil // array responses handled by callers directly
	}
	return out
}

func TestDeployStartCompleteViaAPI(t *testing.T) {
	ts, b := newServer(t)

	// Deploy a process with a user task via JSON.
	p := model.New("api-proc").
		Start("s").
		UserTask("review", model.Name("Review"), model.Role("clerk")).
		End("e").
		Seq("s", "review", "e").
		MustBuild()
	data, _ := model.EncodeJSON(p)
	resp, err := http.Post(ts.URL+"/api/v1/definitions", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Verify endpoint reports soundness.
	vres := doJSON(t, "GET", ts.URL+"/api/v1/definitions/api-proc/verify", nil, http.StatusOK)
	if vres["sound"] != true {
		t.Errorf("verify = %v", vres)
	}

	// Start an instance.
	started := doJSON(t, "POST", ts.URL+"/api/v1/instances",
		map[string]any{"processId": "api-proc", "vars": map[string]any{"amount": 5}},
		http.StatusCreated)
	id := started["id"].(string)
	if started["status"] != "active" {
		t.Fatalf("instance = %v", started)
	}

	// The task shows up on alice's offered list.
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/tasks?user=alice", nil)
	tresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var tasks map[string][]map[string]any
	json.NewDecoder(tresp.Body).Decode(&tasks)
	tresp.Body.Close()
	if len(tasks["offered"]) != 1 {
		t.Fatalf("offered = %v", tasks)
	}
	taskID := tasks["offered"][0]["id"].(string)

	// Claim, start, complete through the API.
	doJSON(t, "POST", ts.URL+"/api/v1/tasks/"+taskID+"/claim", map[string]any{"user": "alice"}, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/api/v1/tasks/"+taskID+"/start", map[string]any{"user": "alice"}, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/api/v1/tasks/"+taskID+"/complete",
		map[string]any{"user": "alice", "outcome": map[string]any{"ok": true}}, http.StatusOK)

	// The instance completed and carries the outcome variable.
	got := doJSON(t, "GET", ts.URL+"/api/v1/instances/"+id, nil, http.StatusOK)
	if got["status"] != "completed" {
		t.Fatalf("instance after completion = %v", got)
	}
	vars := got["vars"].(map[string]any)
	if vars["ok"] != true {
		t.Errorf("vars = %v", vars)
	}

	// History and XES export are available.
	hreq, _ := http.Get(ts.URL + "/api/v1/instances/" + id + "/history")
	if hreq.StatusCode != http.StatusOK {
		t.Errorf("history status = %d", hreq.StatusCode)
	}
	hreq.Body.Close()
	xres, _ := http.Get(ts.URL + "/api/v1/history/xes")
	var xbuf bytes.Buffer
	xbuf.ReadFrom(xres.Body)
	xres.Body.Close()
	if !strings.Contains(xbuf.String(), "<log") || !strings.Contains(xbuf.String(), "Review") {
		t.Errorf("XES export missing content:\n%s", xbuf.String())
	}

	// Stats endpoint.
	stats := doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, http.StatusOK)
	if stats["definitions"].(float64) != 1 {
		t.Errorf("stats = %v", stats)
	}
	_ = b
}

func TestAPIErrorMapping(t *testing.T) {
	ts, _ := newServer(t)
	// Unknown instance -> 404.
	doJSON(t, "GET", ts.URL+"/api/v1/instances/ghost", nil, http.StatusNotFound)
	// Unknown process -> 404.
	doJSON(t, "POST", ts.URL+"/api/v1/instances", map[string]any{"processId": "ghost"}, http.StatusNotFound)
	// Invalid definition -> 400.
	resp, _ := http.Post(ts.URL+"/api/v1/definitions", "application/json", strings.NewReader(`{"id":"x","elements":[],"flows":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid deploy status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown task -> 404.
	doJSON(t, "POST", ts.URL+"/api/v1/tasks/wi-999/claim", map[string]any{"user": "alice"}, http.StatusNotFound)
	// Bad JSON -> 400.
	resp2, _ := http.Post(ts.URL+"/api/v1/instances", "application/json", strings.NewReader(`{broken`))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d", resp2.StatusCode)
	}
	resp2.Body.Close()
	// Missing user -> 400.
	resp3, _ := http.Get(ts.URL + "/api/v1/tasks")
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user status = %d", resp3.StatusCode)
	}
	resp3.Body.Close()
}

func TestAPIMessageAndCancel(t *testing.T) {
	ts, b := newServer(t)
	p := model.New("msgproc").
		Start("s").
		MessageCatch("wait", "go", model.CorrelationKey("k")).
		End("e").
		Seq("s", "wait", "e").
		MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	started := doJSON(t, "POST", ts.URL+"/api/v1/instances",
		map[string]any{"processId": "msgproc", "vars": map[string]any{"k": "K1"}}, http.StatusCreated)
	id := started["id"].(string)

	// Publish with the right key completes it.
	pub := doJSON(t, "POST", ts.URL+"/api/v1/messages",
		map[string]any{"name": "go", "key": "K1", "vars": map[string]any{"extra": 1}}, http.StatusOK)
	if pub["delivered"].(float64) != 1 {
		t.Fatalf("publish = %v", pub)
	}
	got := doJSON(t, "GET", ts.URL+"/api/v1/instances/"+id, nil, http.StatusOK)
	if got["status"] != "completed" {
		t.Fatalf("status = %v", got["status"])
	}

	// Cancel an active instance.
	started2 := doJSON(t, "POST", ts.URL+"/api/v1/instances",
		map[string]any{"processId": "msgproc", "vars": map[string]any{"k": "K2"}}, http.StatusCreated)
	id2 := started2["id"].(string)
	req, _ := http.NewRequest("DELETE", ts.URL+"/api/v1/instances/"+id2, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Double cancel -> 409.
	resp2, _ := http.DefaultClient.Do(req)
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("double cancel status = %d", resp2.StatusCode)
	}
	resp2.Body.Close()

	// Set a variable on... a fresh active instance.
	started3 := doJSON(t, "POST", ts.URL+"/api/v1/instances",
		map[string]any{"processId": "msgproc", "vars": map[string]any{"k": "K3"}}, http.StatusCreated)
	id3 := started3["id"].(string)
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(42)
	vreq, _ := http.NewRequest("PUT", fmt.Sprintf("%s/api/v1/instances/%s/variables/answer", ts.URL, id3), &buf)
	vresp, err := http.DefaultClient.Do(vreq)
	if err != nil {
		t.Fatal(err)
	}
	if vresp.StatusCode != http.StatusNoContent {
		t.Fatalf("set variable status = %d", vresp.StatusCode)
	}
	vresp.Body.Close()
	got3 := doJSON(t, "GET", ts.URL+"/api/v1/instances/"+id3, nil, http.StatusOK)
	if got3["vars"].(map[string]any)["answer"].(float64) != 42 {
		t.Errorf("vars = %v", got3["vars"])
	}
}

func TestAPIDeployXML(t *testing.T) {
	ts, _ := newServer(t)
	data, _ := model.EncodeXML(model.Mixed())
	resp, err := http.Post(ts.URL+"/api/v1/definitions", "application/xml", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("xml deploy status = %d", resp.StatusCode)
	}
	// Definition list shows it.
	lresp, _ := http.Get(ts.URL + "/api/v1/definitions")
	var defs []string
	json.NewDecoder(lresp.Body).Decode(&defs)
	lresp.Body.Close()
	if len(defs) != 1 || defs[0] != "mixed" {
		t.Errorf("definitions = %v", defs)
	}
}

// TestAPIShardedStatsAndSnapshot drives a 4-shard persistent system:
// /api/v1/stats must report per-shard instance counts and POST
// /api/v1/admin/snapshot must write a snapshot on every shard.
func TestAPIShardedStatsAndSnapshot(t *testing.T) {
	b, err := core.Open(core.Options{DataDir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	b.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	ts := httptest.NewServer(New(b).Handler())
	t.Cleanup(ts.Close)

	if err := b.Engine.Deploy(model.Sequence(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		doJSON(t, "POST", ts.URL+"/api/v1/instances",
			map[string]any{"processId": "seq-2"}, http.StatusCreated)
	}

	stats := doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, http.StatusOK)
	shards, ok := stats["shards"].([]any)
	if !ok || len(shards) != 4 {
		t.Fatalf("stats shards = %v", stats["shards"])
	}
	total := 0
	for _, s := range shards {
		total += int(s.(map[string]any)["instances"].(float64))
	}
	if total != 20 {
		t.Fatalf("per-shard instance counts sum to %d, want 20", total)
	}
	// Once the audit pipeline drains, the resident window reports what it
	// holds: the 20 cases' records, in at least one 64 KiB chunk.
	if err := b.History.Flush(); err != nil {
		t.Fatal(err)
	}
	stats = doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, http.StatusOK)
	hist, ok := stats["history"].(map[string]any)
	if !ok || hist["resident"].(float64) == 0 || hist["residentBytes"].(float64) < 64<<10 {
		t.Fatalf("stats history = %v, want resident events in residentBytes >= 64 KiB", stats["history"])
	}

	snap := doJSON(t, "POST", ts.URL+"/api/v1/admin/snapshot", map[string]any{}, http.StatusOK)
	if int(snap["shards"].(float64)) != 4 {
		t.Fatalf("snapshot response = %v", snap)
	}
}

// TestAPIAdminSnapshotInMemory: an in-memory system has no snapshot
// stores, so the admin trigger reports an error.
func TestAPIAdminSnapshotInMemory(t *testing.T) {
	ts, _ := newServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/admin/snapshot", map[string]any{}, http.StatusInternalServerError)
}

// TestWriteJSONEncodesBeforeHeader: an unencodable value must produce
// a 500 with a JSON error body — not a 200 with a truncated body —
// and successful responses carry Content-Length (no chunked encoding).
func TestWriteJSONEncodesBeforeHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil ||
		e.Error.Code != codeInternal || e.Error.Message == "" {
		t.Fatalf("error body = %q (%v)", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"ok": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body %d bytes", got, rec.Body.Len())
	}
}

// TestAPITaskPaginationAndFilters drives GET /api/v1/tasks' limit/offset
// and state/user filters against a worklist fed by 4 engine shards.
func TestAPITaskPaginationAndFilters(t *testing.T) {
	b, err := core.Open(core.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	b.AddUser("alice", "clerk")
	ts := httptest.NewServer(New(b).Handler())
	t.Cleanup(ts.Close)

	p := model.New("page-proc").
		Start("s").
		UserTask("review", model.Role("clerk")).
		End("e").
		Seq("s", "review", "e").
		MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		doJSON(t, "POST", ts.URL+"/api/v1/instances",
			map[string]any{"processId": "page-proc"}, http.StatusCreated)
	}

	getPage := func(query string) map[string]any {
		t.Helper()
		return doJSON(t, "GET", ts.URL+"/api/v1/tasks?"+query, nil, http.StatusOK)
	}
	// State filter reads the per-state index.
	page := getPage("state=offered")
	if int(page["count"].(float64)) != 10 {
		t.Fatalf("state=offered count = %v", page["count"])
	}
	// Pagination.
	page = getPage("state=offered&limit=3&offset=8")
	if int(page["count"].(float64)) != 2 {
		t.Fatalf("offset past tail count = %v", page["count"])
	}
	// user + state goes through the user indexes.
	page = getPage("user=alice&state=offered&limit=4")
	if int(page["count"].(float64)) != 4 {
		t.Fatalf("user+state count = %v", page["count"])
	}
	// Claim two; the allocated filter sees only them.
	items := page["items"].([]any)
	for _, raw := range items[:2] {
		id := raw.(map[string]any)["id"].(string)
		doJSON(t, "POST", ts.URL+"/api/v1/tasks/"+id+"/claim", map[string]any{"user": "alice"}, http.StatusOK)
	}
	page = getPage("user=alice&state=allocated")
	if int(page["count"].(float64)) != 2 {
		t.Fatalf("allocated count = %v", page["count"])
	}
	// Complete one; user+terminal-state reads the state index filtered
	// by the closing assignee.
	claimedID := items[0].(map[string]any)["id"].(string)
	doJSON(t, "POST", ts.URL+"/api/v1/tasks/"+claimedID+"/start", map[string]any{"user": "alice"}, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/api/v1/tasks/"+claimedID+"/complete", map[string]any{"user": "alice"}, http.StatusOK)
	page = getPage("user=alice&state=completed")
	if int(page["count"].(float64)) != 1 {
		t.Fatalf("user+completed count = %v", page["count"])
	}
	page = getPage("user=bob&state=completed")
	if int(page["count"].(float64)) != 0 {
		t.Fatalf("other user's completed count = %v", page["count"])
	}
	// Legacy user-only shape, paginated per list.
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/tasks?user=alice&limit=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var lists map[string][]map[string]any
	json.NewDecoder(resp.Body).Decode(&lists)
	resp.Body.Close()
	if len(lists["worklist"]) != 1 || len(lists["offered"]) != 1 {
		t.Fatalf("paginated lists = %d/%d", len(lists["worklist"]), len(lists["offered"]))
	}
	// Bad parameters.
	doJSON(t, "GET", ts.URL+"/api/v1/tasks?state=bogus", nil, http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/api/v1/tasks?user=alice&limit=-1", nil, http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/api/v1/tasks?user=alice&offset=x", nil, http.StatusBadRequest)

	// /api/v1/stats reports the worklist, and one history journal per
	// shard.
	stats := doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, http.StatusOK)
	if hist, _ := stats["history"].(map[string]any); hist == nil || int(hist["stripes"].(float64)) != 4 {
		t.Fatalf("stats history = %v", stats["history"])
	}
	wl, ok := stats["worklist"].(map[string]any)
	if !ok {
		t.Fatalf("stats worklist = %v", stats["worklist"])
	}
	if int(wl["items"].(float64)) != 10 {
		t.Errorf("stats worklist items = %v", wl["items"])
	}
}
