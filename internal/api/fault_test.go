package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bpms/internal/client"
	"bpms/internal/core"
	"bpms/internal/fault"
	"bpms/internal/model"
)

// jsonBody wraps a JSON literal as a request body.
func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// envelopeOf decodes the v1 error envelope.
func envelopeOf(t *testing.T, resp *http.Response) (code, msg string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return env.Error.Code, env.Error.Message
}

// TestDegradedShardEnvelope injects a journal fault, trips the shard
// into read-only mode through the API, and asserts the documented
// degradation surface: 503 + shard_degraded + Retry-After on writes,
// working reads, failing /readyz, live /healthz.
func TestDegradedShardEnvelope(t *testing.T) {
	b, err := core.Open(core.Options{
		DataDir: t.TempDir(),
		FS:      fault.NewInjector(fault.OS, fault.Plan{PathContains: "state", FailFsyncAt: 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	ts := httptest.NewServer(New(b).Handler())
	t.Cleanup(ts.Close)

	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatal(err)
	}

	// Ready while healthy.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /readyz = %d", resp.StatusCode)
	}

	// Drive starts through the API until the injected fault trips the
	// shard; the tripping request itself must answer a classified
	// error, not a bare 500.
	var last *http.Response
	for i := 0; i < 100; i++ {
		resp, err := http.Post(ts.URL+"/api/v1/instances", "application/json",
			jsonBody(`{"processId":"seq-1"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			last = resp
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if last == nil {
		t.Fatal("fault never surfaced through the API")
	}
	defer last.Body.Close()
	// The first failing write raced the fail-stop: it may carry the
	// injected-fault internal error or already the degraded code. The
	// NEXT write must be a clean 503 shard_degraded.
	io.Copy(io.Discard, last.Body)

	resp, err = http.Post(ts.URL+"/api/v1/instances", "application/json",
		jsonBody(`{"processId":"seq-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on degraded shard = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("degraded 503 missing Retry-After")
	}
	if code, _ := envelopeOf(t, resp); code != codeShardDegraded {
		t.Fatalf("degraded code = %q, want %q", code, codeShardDegraded)
	}

	// Reads still serve.
	resp, err = http.Get(ts.URL + "/api/v1/definitions")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on degraded system = %d", resp.StatusCode)
	}

	// /readyz now refuses; /healthz stays live; /api/v1/stats reports it.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Ready          bool  `json:"ready"`
		DegradedShards []int `json:"degradedShards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Ready || len(rz.DegradedShards) != 1 {
		t.Fatalf("degraded /readyz = %d %+v", resp.StatusCode, rz)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz = %d, want 200 (process is alive)", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready, _ := stats["ready"].(bool); ready {
		t.Fatal("stats.ready = true on degraded system")
	}
	if _, ok := stats["faults"]; !ok {
		t.Fatal("stats missing injected-fault report")
	}
}

// TestPublishOnDegradedShard: POST /messages for a message nobody waits
// for would buffer it on a fail-stopped shard, so it answers 503
// shard_degraded, not 200 buffered.
func TestPublishOnDegradedShard(t *testing.T) {
	b, err := core.Open(core.Options{
		DataDir: t.TempDir(),
		FS:      fault.NewInjector(fault.OS, fault.Plan{PathContains: "state", FailFsyncAt: 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	ts := httptest.NewServer(New(b).Handler())
	t.Cleanup(ts.Close)
	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !b.Engine.OwnerDegraded("k"); i++ {
		b.Engine.StartInstance("seq-1", nil)
	}
	if !b.Engine.OwnerDegraded("k") {
		t.Fatal("the injected fault never tripped the shard")
	}
	resp, err := http.Post(ts.URL+"/api/v1/messages", "application/json",
		jsonBody(`{"name":"orphan","key":"k","vars":{"n":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("publish on degraded shard = %d, want 503", resp.StatusCode)
	}
	if code, _ := envelopeOf(t, resp); code != codeShardDegraded {
		t.Fatalf("code = %q, want %q", code, codeShardDegraded)
	}
}

// TestAdmissionShed saturates a 1-slot write gate and asserts the
// shed contract: queue overflow answers 429 overloaded, queue timeout
// answers 503 overloaded, both with Retry-After, and reads (separate
// class) keep flowing.
func TestAdmissionShed(t *testing.T) {
	b, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	srv := New(b, WithAdmission(AdmissionConfig{
		MaxInFlightWrite: 1,
		QueueDepth:       1,
		QueueTimeout:     50 * time.Millisecond,
	}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Occupy the single write slot with a request parked inside its
	// handler (a deploy blocked reading its body).
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/definitions", pr)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.write != nil && len(srv.adm.write.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never occupied")
		}
		time.Sleep(time.Millisecond)
	}

	// Second write queues (depth 1) and times out → 503 overloaded.
	// Third write overflows the queue → 429 overloaded. Run them
	// concurrently so the queue is actually occupied when the third
	// arrives.
	statuses := make(chan *http.Response, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/api/v1/instances", "application/json",
				jsonBody(`{"processId":"nope"}`))
			if err != nil {
				t.Error(err)
				statuses <- nil
				return
			}
			statuses <- resp
		}()
		time.Sleep(10 * time.Millisecond) // order: queue first, overflow second
	}
	got := map[int]string{}
	for i := 0; i < 2; i++ {
		resp := <-statuses
		if resp == nil {
			continue
		}
		code, _ := envelopeOf(t, resp)
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("shed %d missing Retry-After", resp.StatusCode)
		}
		got[resp.StatusCode] = code
		resp.Body.Close()
	}
	if got[http.StatusServiceUnavailable] != codeOverloaded {
		t.Fatalf("queue-timeout shed = %v, want 503 %s", got, codeOverloaded)
	}
	if got[http.StatusTooManyRequests] != codeOverloaded {
		t.Fatalf("queue-overflow shed = %v, want 429 %s", got, codeOverloaded)
	}

	// Reads are an independent class: unaffected.
	resp, err := http.Get(ts.URL + "/api/v1/definitions")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read during write saturation = %d", resp.StatusCode)
	}

	if srv.adm.Shed() < 2 {
		t.Fatalf("shed counter = %d, want >= 2", srv.adm.Shed())
	}

	// Release the parked deploy.
	pw.Close()
	wg.Wait()
}

// TestOverloadCarriedByClientRetry offers a durable two-shard server on
// slow storage more concurrent starts than its one-slot write gate
// admits, through the typed client's retry layer. The sheds must be
// real (the server counts them, the client retries them), yet at least
// 99% of starts are acknowledged, every failure is a classified
// overloaded shed rather than an unclassified error, and every
// acknowledged case survives a close and reopen.
func TestOverloadCarriedByClientRetry(t *testing.T) {
	opts := core.Options{DataDir: t.TempDir(), Shards: 2}
	slow := opts
	// Every group commit of a state journal waits 25ms, so one write
	// slot admits about 40 starts a second.
	slow.FS = fault.NewInjector(fault.OS, fault.Plan{PathContains: "state", FsyncLatency: 25 * time.Millisecond})
	b, err := core.Open(slow)
	if err != nil {
		t.Fatal(err)
	}
	open := true
	t.Cleanup(func() {
		if open {
			b.Close()
		}
	})
	ts := httptest.NewServer(New(b, WithAdmission(AdmissionConfig{
		MaxInFlightWrite: 1,
		QueueDepth:       2,
		QueueTimeout:     100 * time.Millisecond,
	})).Handler())
	t.Cleanup(ts.Close)
	deployScripted(t, ts.URL)

	const cases, workers = 80, 8
	c := client.New(ts.URL, client.WithRetry(client.RetryPolicy{MaxAttempts: 6}))
	var (
		mu     sync.Mutex
		acked  []string
		failed []error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cases/workers; i++ {
				inst, err := c.StartInstance(context.Background(), "pagey", nil)
				mu.Lock()
				if err != nil {
					failed = append(failed, err)
				} else {
					acked = append(acked, inst.ID)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for _, err := range failed {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != client.CodeOverloaded {
			t.Errorf("unclassified failure: %v", err)
		}
	}
	if len(acked)*100 < cases*99 {
		t.Fatalf("%d of %d starts acknowledged, want >= 99%%", len(acked), cases)
	}
	if c.Retries() < 1 {
		t.Fatal("no client retries: the overload never bit")
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if shed, _ := stats["shedRequests"].(float64); shed < 1 {
		t.Fatalf("server shedRequests = %v, want >= 1", stats["shedRequests"])
	}
	t.Logf("%d of %d starts acknowledged, %d client retries, %v server sheds",
		len(acked), cases, c.Retries(), stats["shedRequests"])

	ts.Close()
	open = false
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	for _, id := range acked {
		if _, err := b2.Engine.Instance(id); err != nil {
			t.Errorf("acknowledged %s lost across reopen: %v", id, err)
		}
	}
}
