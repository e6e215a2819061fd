package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// RetryPolicy controls the client's classified retry loop.
//
// Classification:
//
//   - 429 and 503 envelope errors are retried on EVERY method: the
//     server sheds these before the handler runs (admission control)
//     or before any state change (degraded shard), so repeating a
//     POST cannot double-apply it.
//   - Transport errors and other 5xx responses are retried only on
//     idempotent methods (GET/PUT/DELETE) — a POST whose connection
//     died mid-flight may have been applied.
//   - 4xx other than 429 are never retried: the request itself is bad.
//
// Each retry backs off exponentially from BaseDelay, capped at
// MaxDelay, with half-width jitter so a shed fleet does not
// resynchronise; a server Retry-After hint raises the floor.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (minimum 1; zero means 1 = no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is a sensible interactive policy: 5 attempts,
// 50ms..2s backoff.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// WithRetry enables classified retries on the client.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		pol := p.withDefaults()
		c.retry = &pol
	}
}

// WithTimeout applies a per-request deadline to calls whose context
// has none. The deadline covers one attempt chain including backoff
// sleeps (it wraps the whole do() call).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// Retries reports how many retry attempts (beyond first tries) this
// client has issued.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// idempotent reports whether a method is safe to repeat after an
// ambiguous failure (the request may or may not have been applied).
func idempotent(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete:
		return true
	}
	return false
}

// Retryable reports whether the error is a shed response the server
// guarantees had no side effects (admission 429/503, degraded-shard
// 503) — safe to retry regardless of method.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// retryable classifies one attempt's error.
func retryable(method string, err error) bool {
	var pe *permanentError
	if errors.As(err, &pe) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Retryable() {
			return true
		}
		// Other 5xx: the handler may have partially run.
		return ae.Status >= 500 && idempotent(method)
	}
	// Transport error (connection refused/reset, timeout): ambiguous
	// for non-idempotent methods.
	return idempotent(method)
}

// jitterRand is the shared jitter source; the client has no
// determinism requirement here, only de-synchronisation.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// backoffDelay computes the sleep before retry attempt n (0-based
// retry index) under p, raising the floor to the server's Retry-After
// hint when one arrived.
func backoffDelay(p RetryPolicy, n int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << uint(n)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Half-width jitter: [d/2, d).
	jitterMu.Lock()
	d = d/2 + time.Duration(jitterRand.Int63n(int64(d/2)+1))
	jitterMu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// sleep waits d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterOf extracts the server's Retry-After hint from an
// APIError (zero when absent).
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// permanentError marks a failure that must not be retried even on an
// idempotent method — e.g. a response-body decode error or a stream
// copy that already wrote into the caller's writer.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }
