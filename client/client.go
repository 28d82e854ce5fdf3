// Package client is the typed Go client of the ftdsed solve service.
// It shares the wire types of the service package, so a Go consumer
// submits ftdse.Problem values and receives service.JobStatus /
// service.JobResult documents without hand-rolled JSON.
//
// The client maps the service's backpressure onto a typed error:
// submissions rejected by a full queue return a *QueueFullError
// carrying the server's Retry-After hint. By default the error is
// surfaced immediately; WithRetry turns it into bounded, jittered
// waiting.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// Client talks to one ftdsed (or ftclusterd) instance, with optional
// retry. All methods are safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry retryPolicy

	mu  sync.Mutex // guards rng
	rng jitterSource
}

// Option configures a Client (see WithRetry).
type Option func(*Client)

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8385"). A nil httpClient uses http.DefaultClient.
func New(baseURL string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// QueueFullError reports a submission rejected by the service's
// backpressure (HTTP 429).
type QueueFullError struct {
	// RetryAfter is the server's estimate of when queue space frees up.
	RetryAfter time.Duration
	// Fingerprint identifies the rejected submission (when the server
	// reported it), so operators can correlate the rejection with later
	// resubmissions of the same problem.
	Fingerprint string
	// QueueDepth is the server's queue backlog at rejection time.
	QueueDepth int
}

func (e *QueueFullError) Error() string {
	msg := fmt.Sprintf("ftdsed queue full (retry after %v)", e.RetryAfter)
	if e.Fingerprint != "" {
		msg += fmt.Sprintf("; rejected fingerprint %s at queue depth %d", e.Fingerprint, e.QueueDepth)
	}
	return msg
}

// StatusError reports any other non-2xx answer.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("ftdsed: HTTP %d: %s", e.Code, e.Message)
}

// apiError converts a non-2xx response to a typed error.
func apiError(resp *http.Response) error {
	var body service.ErrorResponse
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Duration(body.RetryAfterS) * time.Second
		if after <= 0 {
			after = time.Second
		}
		return &QueueFullError{
			RetryAfter:  after,
			Fingerprint: body.Fingerprint,
			QueueDepth:  body.QueueDepth,
		}
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

// do runs one JSON request/response exchange, sending the encoded body
// raw (nil for none) and retrying per the configured policy. Retrying
// any of the service's endpoints is safe: reads are idempotent, and
// re-POSTing a submission coalesces onto the in-flight job (or hits the
// cache) by fingerprint.
func (c *Client) do(ctx context.Context, method, path string, raw []byte, out any) error {
	attempts := max(c.retry.attempts, 1)
	var last error
	for a := 0; a < attempts; a++ {
		err := c.once(ctx, method, c.base+path, raw, out)
		if err == nil {
			return nil
		}
		last = err
		wait, retryable := c.classify(err, a)
		if !retryable || ctx.Err() != nil {
			return err
		}
		if a == attempts-1 {
			break // out of attempts: skip the useless final sleep
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return last
		}
	}
	return last
}

// once runs a single JSON exchange against an absolute URL.
func (c *Client) once(ctx context.Context, method, url string, raw []byte, out any) error {
	var rd io.Reader
	if raw != nil {
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues one problem and returns immediately with the job's
// status — StateQueued, or StateDone when the result cache answered.
func (c *Client) Submit(ctx context.Context, p ftdse.Problem, opts service.SolveOptions) (service.JobStatus, error) {
	return c.submit(ctx, p, opts, "/solve")
}

// SubmitWait submits one problem and blocks until the job is terminal.
// Canceling ctx cancels the job on the server (cancel-on-disconnect);
// the call then reports the context error.
func (c *Client) SubmitWait(ctx context.Context, p ftdse.Problem, opts service.SolveOptions) (service.JobStatus, error) {
	return c.submit(ctx, p, opts, "/solve?wait=1")
}

func (c *Client) submit(ctx context.Context, p ftdse.Problem, opts service.SolveOptions, path string) (service.JobStatus, error) {
	body, err := submitBody(p, opts)
	if err != nil {
		return service.JobStatus{}, err
	}
	var st service.JobStatus
	if err := c.do(ctx, http.MethodPost, path, body, &st); err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}

// submitBody encodes one submission: the bytes json.Marshal makes of
// NewRequest(p, opts), with the Problem's document copied once,
// straight into the body. The Problem encodes its document on its
// first submission only.
func submitBody(p ftdse.Problem, opts service.SolveOptions) ([]byte, error) {
	req := service.SubmitRequest{Options: opts, TraceID: obs.NewTraceID()}
	return service.AppendRequest(nil, req, p.AppendDocument)
}

// SubmitBatch submits several problems atomically: either every job is
// admitted (or served from cache) or the whole batch fails, typically
// with *QueueFullError.
func (c *Client) SubmitBatch(ctx context.Context, reqs []service.SubmitRequest) ([]service.JobStatus, error) {
	body, err := json.Marshal(service.BatchRequest{Jobs: reqs})
	if err != nil {
		return nil, err
	}
	var resp service.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/solve/batch", body, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// NewRequest packages a problem's document and options for SubmitBatch,
// minting a trace ID so the submission is traceable end to end
// (through the coordinator's journal, the solving node's logs, the SSE
// stream and the final result) from the moment it leaves this process.
func NewRequest(p ftdse.Problem, opts service.SolveOptions) (service.SubmitRequest, error) {
	doc, err := p.AppendDocument(nil)
	if err != nil {
		return service.SubmitRequest{}, err
	}
	return service.SubmitRequest{Problem: doc, Options: opts, TraceID: obs.NewTraceID()}, nil
}

// Job fetches a job's status; the result document is embedded once the
// job is terminal.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Cancel cancels a job. A running solve stops within one scheduling
// pass and keeps its best-so-far design in the returned status.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &st)
	return st, err
}

// Result decodes a terminal status's embedded result document.
func Result(st service.JobStatus) (service.JobResult, error) {
	var res service.JobResult
	if len(st.Result) == 0 {
		return res, fmt.Errorf("job %s (%s) carries no result", st.ID, st.State)
	}
	err := json.Unmarshal(st.Result, &res)
	return res, err
}

// Stream subscribes to a job's SSE event stream, invoking onEvent for
// every incumbent solution as the search finds it (onEvent may be nil),
// and returns the final status delivered by the closing "done" event.
// The stream replays the full improvement history first, so late
// subscribers see every event.
func (c *Client) Stream(ctx context.Context, id string, onEvent func(service.ProgressEvent)) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, apiError(resp)
	}

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "":
			if data.Len() == 0 {
				continue
			}
			switch event {
			case "improvement":
				var ev service.ProgressEvent
				if err := json.Unmarshal(data.Bytes(), &ev); err != nil {
					return service.JobStatus{}, fmt.Errorf("decoding improvement event: %w", err)
				}
				if onEvent != nil {
					onEvent(ev)
				}
			case "done":
				var st service.JobStatus
				if err := json.Unmarshal(data.Bytes(), &st); err != nil {
					return service.JobStatus{}, fmt.Errorf("decoding done event: %w", err)
				}
				return st, nil
			}
			event, data = "", bytes.Buffer{}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return service.JobStatus{}, ctx.Err()
		}
		return service.JobStatus{}, err
	}
	return service.JobStatus{}, errors.New("event stream ended without a done event")
}

// Metrics scrapes the service's Prometheus text exposition into flat
// name → value pairs. Labeled samples key as name{label="value"}, and
// histograms contribute their _bucket/_sum/_count series.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp)
	}
	return obs.ParseText(io.LimitReader(resp.Body, 16<<20))
}

// Healthy reports whether the service answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err == nil
}
