// Package client is the typed Go client for the bpmsd HTTP API. It
// speaks the versioned v1 surface (/api/v1/...), decodes the v1 error
// envelope into *APIError values, and is shared by bpmsctl and the
// end-to-end benchmark in benchmark/ — the one place request/response
// shapes are codified outside the server.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bpms/internal/model"
)

// Client talks to one bpmsd base URL.
type Client struct {
	base    string
	hc      *http.Client
	retry   *RetryPolicy  // nil = no retries
	timeout time.Duration // per-request deadline when ctx has none (0 = none)

	retries atomic.Uint64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports with larger connection pools).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for a bpmsd base URL such as
// "http://localhost:8080" (any trailing slash is trimmed).
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a decoded v1 error envelope plus the HTTP status it
// arrived with.
type APIError struct {
	Status     int    // HTTP status code
	Code       string // machine-readable code ("unknown_instance", ...)
	Message    string
	RetryAfter time.Duration // server backoff hint (0 = none)
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("api: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Machine-readable codes of shed responses — errors the server
// guarantees were refused before any side effect.
const (
	// CodeOverloaded marks an admission-control shed (429/503).
	CodeOverloaded = "overloaded"
	// CodeShardDegraded marks a write refused by a fail-stopped
	// (read-only) shard (503).
	CodeShardDegraded = "shard_degraded"
)

// errEnvelope mirrors the server's error body.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// do issues one request under the v1 prefix and decodes the response
// into out (skipped when out is nil). Error statuses decode the v1
// envelope into *APIError; an undecodable error body still produces an
// *APIError carrying the raw text.
//
// The request body is materialised to bytes up front, so with a
// RetryPolicy configured each attempt replays the identical body; see
// RetryPolicy for the retry classification.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	ct := ""
	switch b := body.(type) {
	case nil:
	case []byte:
		data, ct = b, "application/json"
	case *rawBody:
		data, ct = b.data, b.contentType
	default:
		enc, err := json.Marshal(body)
		if err != nil {
			return err
		}
		data, ct = enc, "application/json"
	}
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	attempts := 1
	var pol RetryPolicy
	if c.retry != nil {
		pol, attempts = *c.retry, c.retry.MaxAttempts
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, ct, out)
		if err == nil || attempt+1 >= attempts || !retryable(method, err) {
			var pe *permanentError
			if errors.As(err, &pe) {
				return pe.err
			}
			return err
		}
		if sleep(ctx, backoffDelay(pol, attempt, retryAfterOf(err))) != nil {
			return err // deadline hit while backing off: report the attempt's error
		}
		c.retries.Add(1)
	}
}

// doOnce issues exactly one HTTP attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, ct string, out any) error {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+"/api/v1"+path, rd)
	if err != nil {
		return &permanentError{err}
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if w, ok := out.(io.Writer); ok {
		// A failed stream copy may have already written into w — never
		// retried, the caller must restart with a fresh destination.
		if _, err := io.Copy(w, resp.Body); err != nil {
			return &permanentError{err}
		}
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &permanentError{err}
	}
	return nil
}

func decodeAPIError(resp *http.Response) *APIError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var retryAfter time.Duration
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	var env errEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message, RetryAfter: retryAfter}
	}
	return &APIError{Status: resp.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(data)), RetryAfter: retryAfter}
}

// rawBody carries a pre-encoded request body with its content type.
type rawBody struct {
	data        []byte
	contentType string
}

// Deploy deploys a process definition.
func (c *Client) Deploy(ctx context.Context, p *model.Process) error {
	data, err := model.EncodeJSON(p)
	if err != nil {
		return err
	}
	return c.DeployRaw(ctx, data, "application/json")
}

// DeployRaw deploys an already-encoded definition (JSON or XML,
// selected by contentType).
func (c *Client) DeployRaw(ctx context.Context, data []byte, contentType string) error {
	return c.do(ctx, http.MethodPost, "/definitions", &rawBody{data, contentType}, nil)
}

// Definitions lists deployed definition IDs.
func (c *Client) Definitions(ctx context.Context) ([]string, error) {
	var out []string
	err := c.do(ctx, http.MethodGet, "/definitions", nil, &out)
	return out, err
}

// Definition fetches one definition.
func (c *Client) Definition(ctx context.Context, id string) (*model.Process, error) {
	var buf bytes.Buffer
	if err := c.do(ctx, http.MethodGet, "/definitions/"+url.PathEscape(id), nil, &buf); err != nil {
		return nil, err
	}
	return model.DecodeJSON(buf.Bytes())
}

// VerifyResult is the soundness report of GET /definitions/{id}/verify.
type VerifyResult struct {
	Sound        bool   `json:"sound"`
	Bounded      bool   `json:"bounded"`
	Method       string `json:"method"`
	StateCount   int    `json:"stateCount"`
	Violations   any    `json:"violations"`
	DeadElements any    `json:"deadElements"`
	Warnings     any    `json:"warnings"`
}

// Verify soundness-checks a deployed definition.
func (c *Client) Verify(ctx context.Context, id string) (*VerifyResult, error) {
	var out VerifyResult
	err := c.do(ctx, http.MethodGet, "/definitions/"+url.PathEscape(id)+"/verify", nil, &out)
	return &out, err
}

// Token is one parked token position of an instance.
type Token struct {
	Element    string `json:"element"`
	Wait       string `json:"wait,omitempty"`
	WorkItemID string `json:"workItemId,omitempty"`
}

// Instance is a point-in-time instance view.
type Instance struct {
	ID        string         `json:"id"`
	ProcessID string         `json:"processId"`
	Status    string         `json:"status"`
	Vars      map[string]any `json:"vars,omitempty"`
	Tokens    []Token        `json:"tokens,omitempty"`
}

// StartInstance starts an instance of a deployed process.
func (c *Client) StartInstance(ctx context.Context, processID string, vars map[string]any) (*Instance, error) {
	var out Instance
	err := c.do(ctx, http.MethodPost, "/instances",
		map[string]any{"processId": processID, "vars": vars}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Instance fetches one instance.
func (c *Client) Instance(ctx context.Context, id string) (*Instance, error) {
	var out Instance
	if err := c.do(ctx, http.MethodGet, "/instances/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelInstance cancels an active instance.
func (c *Client) CancelInstance(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/instances/"+url.PathEscape(id), nil, nil)
}

// SetVariable sets one case variable on an active instance.
func (c *Client) SetVariable(ctx context.Context, id, name string, value any) error {
	return c.do(ctx, http.MethodPut,
		"/instances/"+url.PathEscape(id)+"/variables/"+url.PathEscape(name), value, nil)
}

// History returns the audit events of one instance (raw JSON objects).
func (c *Client) History(ctx context.Context, id string) ([]map[string]any, error) {
	var out []map[string]any
	err := c.do(ctx, http.MethodGet, "/instances/"+url.PathEscape(id)+"/history", nil, &out)
	return out, err
}

// InstanceSummary is one row of the paginated instance listing.
type InstanceSummary struct {
	ID        string `json:"id"`
	ProcessID string `json:"processId"`
	Status    string `json:"status"`
}

// InstancePage is one page of the instance listing; Total counts the
// full post-filter set, so callers can walk or sample it.
type InstancePage struct {
	Items  []InstanceSummary `json:"items"`
	Total  int               `json:"total"`
	Count  int               `json:"count"`
	Offset int               `json:"offset"`
	Limit  int               `json:"limit"`
}

// InstanceQuery filters and paginates the instance listing. Zero
// Limit means "server default" (everything); use -1 explicitly for an
// unbounded page.
type InstanceQuery struct {
	State  string // active|completed|cancelled|faulted, "" = all
	Offset int
	Limit  int
}

// Instances lists instances with state filtering and pagination.
func (c *Client) Instances(ctx context.Context, q InstanceQuery) (*InstancePage, error) {
	vals := url.Values{}
	if q.State != "" {
		vals.Set("state", q.State)
	}
	if q.Offset > 0 {
		vals.Set("offset", strconv.Itoa(q.Offset))
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/instances"
	if len(vals) > 0 {
		path += "?" + vals.Encode()
	}
	var out InstancePage
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Publish publishes a correlated message; it reports how many waiting
// subscriptions it reached and whether it was buffered for a future
// subscriber.
func (c *Client) Publish(ctx context.Context, name, key string, vars map[string]any) (delivered int, buffered bool, err error) {
	var out struct {
		Delivered int  `json:"delivered"`
		Buffered  bool `json:"buffered"`
	}
	err = c.do(ctx, http.MethodPost, "/messages",
		map[string]any{"name": name, "key": key, "vars": vars}, &out)
	return out.Delivered, out.Buffered, err
}

// Task is a work item as the API serialises it.
type Task struct {
	ID         string         `json:"id"`
	ProcessID  string         `json:"processId"`
	InstanceID string         `json:"instanceId"`
	ElementID  string         `json:"elementId"`
	Name       string         `json:"name,omitempty"`
	State      string         `json:"state"`
	Role       string         `json:"role,omitempty"`
	Assignee   string         `json:"assignee,omitempty"`
	Priority   int            `json:"priority,omitempty"`
	Data       map[string]any `json:"data,omitempty"`
	Outcome    map[string]any `json:"outcome,omitempty"`
	Reason     string         `json:"reason,omitempty"`
}

// UserTasks returns a user's worklist (allocated/started items) and
// offers — the legacy two-list shape of GET /tasks?user=.
func (c *Client) UserTasks(ctx context.Context, user string) (worklist, offered []Task, err error) {
	var out struct {
		Worklist []Task `json:"worklist"`
		Offered  []Task `json:"offered"`
	}
	err = c.do(ctx, http.MethodGet, "/tasks?user="+url.QueryEscape(user), nil, &out)
	return out.Worklist, out.Offered, err
}

// TaskQuery filters the paginated task listing; State is required by
// the server unless User alone is wanted (use UserTasks for that).
type TaskQuery struct {
	User   string
	State  string
	Offset int
	Limit  int
}

// TaskPage is one page of the filtered task listing.
type TaskPage struct {
	Items  []Task `json:"items"`
	Count  int    `json:"count"`
	Offset int    `json:"offset"`
	Limit  int    `json:"limit"`
}

// Tasks lists work items by state (optionally per user), paginated.
func (c *Client) Tasks(ctx context.Context, q TaskQuery) (*TaskPage, error) {
	vals := url.Values{}
	if q.User != "" {
		vals.Set("user", q.User)
	}
	if q.State != "" {
		vals.Set("state", q.State)
	}
	if q.Offset > 0 {
		vals.Set("offset", strconv.Itoa(q.Offset))
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	var out TaskPage
	if err := c.do(ctx, http.MethodGet, "/tasks?"+vals.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// taskAction posts one lifecycle action on a work item.
func (c *Client) taskAction(ctx context.Context, id, action string, body map[string]any) (*Task, error) {
	var out Task
	err := c.do(ctx, http.MethodPost, "/tasks/"+url.PathEscape(id)+"/"+action, body, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Claim claims an offered work item for a user.
func (c *Client) Claim(ctx context.Context, id, user string) (*Task, error) {
	return c.taskAction(ctx, id, "claim", map[string]any{"user": user})
}

// StartTask starts an allocated work item.
func (c *Client) StartTask(ctx context.Context, id, user string) (*Task, error) {
	return c.taskAction(ctx, id, "start", map[string]any{"user": user})
}

// CompleteTask completes a started work item with an outcome payload.
func (c *Client) CompleteTask(ctx context.Context, id, user string, outcome map[string]any) (*Task, error) {
	return c.taskAction(ctx, id, "complete", map[string]any{"user": user, "outcome": outcome})
}

// FailTask fails a started work item with a reason.
func (c *Client) FailTask(ctx context.Context, id, user, reason string) (*Task, error) {
	return c.taskAction(ctx, id, "fail", map[string]any{"user": user, "reason": reason})
}

// Delegate hands an item from its assignee to another user.
func (c *Client) Delegate(ctx context.Context, id, from, to string) (*Task, error) {
	return c.taskAction(ctx, id, "delegate", map[string]any{"user": from, "to": to})
}

// Release puts an allocated item back on offer.
func (c *Client) Release(ctx context.Context, id, user string) (*Task, error) {
	return c.taskAction(ctx, id, "release", map[string]any{"user": user})
}

// AddUser registers a user with roles in the organisational directory.
func (c *Client) AddUser(ctx context.Context, id string, roles ...string) error {
	return c.do(ctx, http.MethodPost, "/admin/users", map[string]any{"id": id, "roles": roles}, nil)
}

// Stats returns the engine statistics document.
func (c *Client) Stats(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.do(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Violation is one open SLA violation: a work item past its due time
// or an unsound deployed definition.
type Violation struct {
	Kind       string `json:"kind"`
	ID         string `json:"id"`
	InstanceID string `json:"instanceId,omitempty"`
	ProcessID  string `json:"processId,omitempty"`
	Detail     string `json:"detail,omitempty"`
	// Since is the item's due time, or when the definition was verified.
	Since string `json:"since"`
	// Detected is when the item's deadline fired, or when the
	// definition was verified.
	Detected string `json:"detected"`
}

// ViolationsReport is the GET /violations document.
type ViolationsReport struct {
	Items []Violation `json:"items"`
	Count int         `json:"count"`
}

// Violations fetches the open SLA violations.
func (c *Client) Violations(ctx context.Context) (*ViolationsReport, error) {
	var out ViolationsReport
	if err := c.do(ctx, http.MethodGet, "/violations", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot triggers a state snapshot on every shard.
func (c *Client) Snapshot(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.do(ctx, http.MethodPost, "/admin/snapshot", map[string]any{}, &out)
	return out, err
}

// ExportXES streams the full history as XES into w.
func (c *Client) ExportXES(ctx context.Context, w io.Writer) error {
	return c.do(ctx, http.MethodGet, "/history/xes", nil, w)
}
