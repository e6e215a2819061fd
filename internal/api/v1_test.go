package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bpms/internal/core"
	"bpms/internal/model"
	"bpms/internal/obs"
)

// deployScripted deploys a script-only process that completes at
// start, for pagination fodder.
func deployScripted(t *testing.T, url string) {
	t.Helper()
	p := model.New("pagey").
		Start("s").
		ScriptTask("work", model.Output("done", "true")).
		End("e").
		Seq("s", "work", "e").
		MustBuild()
	data, _ := model.EncodeJSON(p)
	resp, err := http.Post(url+"/api/v1/definitions", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestErrorEnvelope checks the machine-readable error surface: each
// failure class maps to one status, one stable code, and a message.
func TestErrorEnvelope(t *testing.T) {
	ts, b := newServer(t)
	deployScripted(t, ts.URL)

	// A user task to exercise the task error paths.
	p := model.New("envl").
		Start("s").
		UserTask("review", model.Role("clerk")).
		End("e").
		Seq("s", "review", "e").
		MustBuild()
	data, _ := model.EncodeJSON(p)
	resp, _ := http.Post(ts.URL+"/api/v1/definitions", "application/json", bytes.NewReader(data))
	resp.Body.Close()
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/instances",
		map[string]any{"processId": "envl"}, http.StatusCreated)
	b.AddUser("mallory") // no roles: not authorized for clerk work

	// Find the offered item id via alice's task list.
	var lists struct {
		Offered []struct {
			ID string `json:"id"`
		} `json:"offered"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/api/v1/tasks?user=alice"), &lists); err != nil {
		t.Fatal(err)
	}
	if len(lists.Offered) != 1 {
		t.Fatalf("offered = %+v, want 1 item", lists.Offered)
	}
	item := lists.Offered[0].ID

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		{"unknown definition", http.MethodGet, "/definitions/nope", nil,
			http.StatusNotFound, "unknown_definition"},
		{"unknown instance", http.MethodGet, "/instances/nope", nil,
			http.StatusNotFound, "unknown_instance"},
		{"unknown task", http.MethodPost, "/tasks/nope/claim", map[string]any{"user": "alice"},
			http.StatusNotFound, "unknown_task"},
		{"start unstarted process", http.MethodPost, "/instances", map[string]any{"processId": "nope"},
			http.StatusNotFound, "unknown_definition"},
		{"bad body", http.MethodPost, "/instances", "not-an-object",
			http.StatusBadRequest, "bad_request"},
		{"unauthorized claim", http.MethodPost, "/tasks/" + item + "/claim", map[string]any{"user": "mallory"},
			http.StatusForbidden, "not_authorized"},
		{"invalid transition", http.MethodPost, "/tasks/" + item + "/complete", map[string]any{"user": "alice"},
			http.StatusConflict, "invalid_transition"},
		{"bad state filter", http.MethodGet, "/instances?state=sideways", nil,
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if tc.body != nil {
				json.NewEncoder(&buf).Encode(tc.body)
			}
			req, _ := http.NewRequest(tc.method, ts.URL+"/api/v1"+tc.path, &buf)
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Error.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", e.Error.Code, tc.code, e.Error.Message)
			}
			if e.Error.Message == "" {
				t.Error("envelope message is empty")
			}
		})
	}
}

// TestInstancePagination checks limit/offset/state on the instance
// listing: stable ordering, a post-filter total, and a usable
// page-walk.
func TestInstancePagination(t *testing.T) {
	ts, _ := newServer(t)
	deployScripted(t, ts.URL)
	for i := 0; i < 5; i++ {
		doJSON(t, http.MethodPost, ts.URL+"/api/v1/instances",
			map[string]any{"processId": "pagey"}, http.StatusCreated)
	}

	type page struct {
		Items []struct {
			ID        string `json:"id"`
			ProcessID string `json:"processId"`
			Status    string `json:"status"`
		} `json:"items"`
		Total  int `json:"total"`
		Count  int `json:"count"`
		Offset int `json:"offset"`
		Limit  int `json:"limit"`
	}
	load := func(q string) page {
		var p page
		if err := json.Unmarshal(get(t, ts.URL+"/api/v1/instances"+q), &p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	all := load("")
	if all.Total != 5 || all.Count != 5 {
		t.Fatalf("unpaged: total=%d count=%d, want 5/5", all.Total, all.Count)
	}
	mid := load("?offset=2&limit=2")
	if mid.Total != 5 || mid.Count != 2 || mid.Offset != 2 || mid.Limit != 2 {
		t.Fatalf("page: %+v", mid)
	}
	if mid.Items[0].ID != all.Items[2].ID || mid.Items[1].ID != all.Items[3].ID {
		t.Fatalf("page 2/2 = %v, want slice [2:4] of %v", mid.Items, all.Items)
	}
	past := load("?offset=99&limit=2")
	if past.Total != 5 || past.Count != 0 {
		t.Fatalf("past-the-end: %+v", past)
	}
	done := load("?state=completed")
	if done.Total != 5 {
		t.Fatalf("state=completed total = %d, want 5 (script process auto-completes)", done.Total)
	}
	for _, it := range done.Items {
		if it.Status != "completed" {
			t.Fatalf("state filter leaked %+v", it)
		}
	}
	none := load("?state=faulted")
	if none.Total != 0 || none.Count != 0 {
		t.Fatalf("state=faulted: %+v", none)
	}

	// Walk pages of 2 and reassemble the full listing.
	var walked []string
	for off := 0; ; {
		p := load(fmt.Sprintf("?offset=%d&limit=2", off))
		for _, it := range p.Items {
			walked = append(walked, it.ID)
		}
		off += len(p.Items)
		if len(p.Items) == 0 || off >= p.Total {
			break
		}
	}
	if len(walked) != 5 {
		t.Fatalf("walk collected %d ids: %v", len(walked), walked)
	}
}

// TestTaskUserStatePaging covers the two user+state listings that page
// inside the worklist indexes: user+allocated|started (the user's
// worklist filtered by state) and user+terminal state (the state index
// filtered by assignee). Each page must hold exactly the items, in the
// order and encoding, that slicing the unpaged ?state= listing filtered
// by assignee gives — on one engine shard and on four.
func TestTaskUserStatePaging(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b, err := core.Open(core.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			b.AddUser("alice", "clerk")
			b.AddUser("bob", "clerk")
			ts := httptest.NewServer(New(b).Handler())
			t.Cleanup(ts.Close)
			p := model.New("queue").
				Start("s").UserTask("review", model.Role("clerk")).End("e").
				Seq("s", "review", "e").MustBuild()
			if err := b.Engine.Deploy(p); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 14; i++ {
				doJSON(t, http.MethodPost, ts.URL+"/api/v1/instances",
					map[string]any{"processId": "queue"}, http.StatusCreated)
			}
			type listing struct {
				Items []json.RawMessage `json:"items"`
				Count int               `json:"count"`
			}
			list := func(query string) listing {
				t.Helper()
				var l listing
				if err := json.Unmarshal(get(t, ts.URL+"/api/v1/tasks?"+query), &l); err != nil {
					t.Fatal(err)
				}
				return l
			}
			// Item i of the backlog goes to alice (even) or bob (odd) and
			// is left allocated, started or completed by turns; the last
			// two stay offered.
			for i, raw := range list("state=offered").Items[:12] {
				var it struct{ ID string }
				if err := json.Unmarshal(raw, &it); err != nil {
					t.Fatal(err)
				}
				user := []string{"alice", "bob"}[i%2]
				for _, verb := range []string{"claim", "start", "complete"}[:1+i/2%3] {
					doJSON(t, http.MethodPost, ts.URL+"/api/v1/tasks/"+it.ID+"/"+verb,
						map[string]any{"user": user}, http.StatusOK)
				}
			}
			for _, user := range []string{"alice", "bob", "nobody"} {
				for _, state := range []string{"allocated", "started", "completed", "cancelled"} {
					var mine []json.RawMessage
					for _, raw := range list("state=" + state).Items {
						var it struct{ Assignee string }
						if err := json.Unmarshal(raw, &it); err != nil {
							t.Fatal(err)
						}
						if it.Assignee == user {
							mine = append(mine, raw)
						}
					}
					if user != "nobody" && state != "cancelled" && len(mine) != 2 {
						t.Fatalf("%s has %d %s items, the set-up should leave 2", user, len(mine), state)
					}
					for _, pg := range []struct{ offset, limit int }{{0, -1}, {0, 1}, {1, 1}, {1, 5}, {2, 3}, {0, 0}} {
						query := fmt.Sprintf("user=%s&state=%s&offset=%d", user, state, pg.offset)
						if pg.limit >= 0 {
							query += fmt.Sprintf("&limit=%d", pg.limit)
						}
						want := mine[min(pg.offset, len(mine)):]
						if pg.limit >= 0 && pg.limit < len(want) {
							want = want[:pg.limit]
						}
						got := list(query)
						if got.Count != len(want) || len(got.Items) != len(want) {
							t.Fatalf("%s: %d items (count %d), want %d", query, len(got.Items), got.Count, len(want))
						}
						for i := range want {
							if !bytes.Equal(got.Items[i], want[i]) {
								t.Errorf("%s: item %d = %s, want %s", query, i, got.Items[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestMetricsEndpointAndViolations covers the observability surface:
// an instrumented server exposes GET /metrics in the text exposition
// format with per-route request counters, an unsound definition is
// counted and listed at /api/v1/violations as soon as it is deployed,
// and /api/v1/stats carries uptime.
func TestMetricsEndpointAndViolations(t *testing.T) {
	b, err := core.Open(core.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	ts := httptest.NewServer(New(b).Handler())
	t.Cleanup(ts.Close)

	// Drive one instrumented request, one query on each worklist
	// index and one unsound deploy, then scrape.
	data, _ := model.EncodeJSON(model.WithDeadlock(2))
	resp, err := http.Post(ts.URL+"/api/v1/definitions", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	get(t, ts.URL+"/api/v1/tasks?user=alice")
	get(t, ts.URL+"/api/v1/tasks?state=completed")
	stats := doJSON(t, "GET", ts.URL+"/api/v1/stats", nil, http.StatusOK)
	if _, ok := stats["uptimeSeconds"].(float64); !ok {
		t.Errorf("stats missing uptimeSeconds: %v", stats)
	}
	if _, ok := stats["startedAt"].(string); !ok {
		t.Errorf("stats missing startedAt: %v", stats)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		obs.MetricUptime,
		obs.MetricStartTime,
		`bpms_http_requests_total{route="GET /api/v1/stats",code="200"} 1`,
		`bpms_http_request_seconds_bucket{route="GET /api/v1/stats",le="+Inf"} 1`,
		`bpms_task_op_seconds_count{op="page_worklist"} 1`,
		`bpms_task_op_seconds_count{op="page_offered"} 1`,
		`bpms_task_op_seconds_count{op="page_state"} 1`,
		`bpms_recovery_seconds{phase="history"}`,
		`bpms_recovery_seconds{phase="engine"}`,
		`bpms_audit_violations_total{kind="definition_unsound"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics:\n%.2000s", want, text)
		}
	}

	viol := doJSON(t, "GET", ts.URL+"/api/v1/violations", nil, http.StatusOK)
	items, _ := viol["items"].([]any)
	if viol["count"] != 1.0 || len(items) != 1 || items[0].(map[string]any)["id"] != "deadlock-2" {
		t.Errorf("violations = %v, want deadlock-2 listed", viol)
	}
}

// TestMetricsDisabled checks the uninstrumented server 404s the scrape
// endpoint and still answers /api/v1/violations.
func TestMetricsDisabled(t *testing.T) {
	ts, _ := newServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics on uninstrumented server = %d, want 404", resp.StatusCode)
	}
	viol := doJSON(t, "GET", ts.URL+"/api/v1/violations", nil, http.StatusOK)
	if items, ok := viol["items"].([]any); !ok || len(items) != 0 || viol["count"] != 0.0 || len(viol) != 2 {
		t.Errorf("violations = %v, want {items: [], count: 0}", viol)
	}
}
