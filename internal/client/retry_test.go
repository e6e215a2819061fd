package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// shedThenOK answers n shed responses, then succeeds.
func shedThenOK(n int32, shedStatus int, code string) (*httptest.Server, *atomic.Int32) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(shedStatus)
			w.Write([]byte(`{"error":{"code":"` + code + `","message":"shed"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"i-1","processId":"p","status":"active"}`))
	}))
	return ts, &calls
}

func fastRetry(attempts int) Option {
	return WithRetry(RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
}

// TestRetryShedPOST: 429/503 sheds are retried even on POST — the
// server guarantees sheds happen before side effects.
func TestRetryShedPOST(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
	}{
		{http.StatusTooManyRequests, CodeOverloaded},
		{http.StatusServiceUnavailable, CodeOverloaded},
		{http.StatusServiceUnavailable, CodeShardDegraded},
	} {
		ts, calls := shedThenOK(2, tc.status, tc.code)
		c := New(ts.URL, fastRetry(5))
		inst, err := c.StartInstance(context.Background(), "p", nil)
		if err != nil {
			t.Fatalf("%d %s: %v", tc.status, tc.code, err)
		}
		if inst.ID != "i-1" {
			t.Fatalf("instance = %+v", inst)
		}
		if got := calls.Load(); got != 3 {
			t.Fatalf("%d %s: %d calls, want 3", tc.status, tc.code, got)
		}
		if c.Retries() != 2 {
			t.Fatalf("Retries() = %d, want 2", c.Retries())
		}
		ts.Close()
	}
}

// TestNoRetryPlain500POST: an unclassified 500 on a POST is ambiguous
// (the handler may have run) — never retried.
func TestNoRetryPlain500POST(t *testing.T) {
	ts, calls := shedThenOK(100, http.StatusInternalServerError, "internal")
	defer ts.Close()
	c := New(ts.URL, fastRetry(5))
	_, err := c.StartInstance(context.Background(), "p", nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 500 {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1 (no retry)", calls.Load())
	}
}

// TestRetry500Idempotent: the same unclassified 500 IS retried on GET.
func TestRetry500Idempotent(t *testing.T) {
	ts, calls := shedThenOK(2, http.StatusInternalServerError, "internal")
	defer ts.Close()
	c := New(ts.URL, fastRetry(5))
	if _, err := c.Instance(context.Background(), "i-1"); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want 3", calls.Load())
	}
}

// TestNoRetry4xx: client errors are the caller's fault; no retry on
// any method.
func TestNoRetry4xx(t *testing.T) {
	ts, calls := shedThenOK(100, http.StatusNotFound, "unknown_instance")
	defer ts.Close()
	c := New(ts.URL, fastRetry(5))
	_, err := c.Instance(context.Background(), "i-1")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "unknown_instance" {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1", calls.Load())
	}
}

// TestRetryTransportErrorIdempotentOnly: a dead endpoint retries GET
// to exhaustion but fails POST on the first attempt.
func TestRetryTransportErrorIdempotentOnly(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // connection refused from here on
	c := New(ts.URL, fastRetry(3))
	if _, err := c.Instance(context.Background(), "x"); err == nil {
		t.Fatal("want transport error")
	}
	if c.Retries() != 2 {
		t.Fatalf("GET retries = %d, want 2", c.Retries())
	}
	if _, err := c.StartInstance(context.Background(), "p", nil); err == nil {
		t.Fatal("want transport error")
	}
	if c.Retries() != 2 {
		t.Fatalf("POST retried a non-idempotent transport failure (retries = %d)", c.Retries())
	}
}

// TestRetryAfterDecoded: the server hint lands on the APIError.
func TestRetryAfterDecoded(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"x"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL) // no retry: surface the error directly
	_, err := c.Instance(context.Background(), "x")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %s, want 7s", ae.RetryAfter)
	}
	if !ae.Retryable() {
		t.Fatal("503 envelope not Retryable()")
	}
}

// TestWithTimeoutDeadline: a per-request timeout cuts a hung server
// off; the deadline spans retries.
func TestWithTimeoutDeadline(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer func() { close(block); ts.Close() }()
	c := New(ts.URL, WithTimeout(50*time.Millisecond))
	start := time.Now()
	_, err := c.Instance(context.Background(), "x")
	if err == nil {
		t.Fatal("want deadline error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not applied: took %s", elapsed)
	}
}
