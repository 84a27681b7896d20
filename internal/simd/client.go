package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// Client talks to a simd server with the retry discipline the server's
// admission control expects: shed responses (429/503) are retried after the
// server's Retry-After hint, transient failures (5xx, network errors) are
// retried with exponential backoff and jitter, and hard rejections
// (400/413) fail immediately — retrying a malformed request is noise.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (nil: a default client with no overall timeout —
	// per-attempt deadlines come from ctx).
	HTTP *http.Client
	// Retries bounds the retry attempts after the first try (<0: 0; default
	// when zero: 8).
	Retries int
	// BaseDelay seeds the exponential backoff (0: 100ms); MaxDelay caps it
	// (0: 5s). The actual sleep is jittered to half-to-full of the step so
	// synchronized clients do not re-stampede a recovering server.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Log, when non-nil, receives one line per retry.
	Log func(format string, args ...any)
}

// RunResult is a completed remote job.
type RunResult struct {
	// Metrics holds the canonical metrics bytes exactly as the server
	// stored them (partial-marked when Partial is set).
	Metrics []byte
	// Key is the job's content-hash identity.
	Key string
	// Source reports how the server produced the bytes: "simulated",
	// "cache" or "coalesced".
	Source string
	// Partial marks a deadline-expired job: Metrics covers a prefix of the
	// schedule.
	Partial bool
}

// ErrPartial accompanies a RunResult whose metrics are partial.
var ErrPartial = errors.New("simd: job deadline expired; metrics are partial")

// retryableStatus reports whether an HTTP status is worth another attempt.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return code >= 500 && code != http.StatusGatewayTimeout
}

func (c *Client) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Run submits a job and blocks until the server returns its result,
// retrying shed and transient failures. The returned metrics are the
// server's stored bytes verbatim.
func (c *Client) Run(ctx context.Context, req Request) (*RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("simd client: %w", err)
	}
	retries := c.Retries
	if retries == 0 {
		retries = 8
	}
	if retries < 0 {
		retries = 0
	}
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}

	var lastErr error
	delay := base
	for attempt := 0; ; attempt++ {
		res, retryable, hint, err := c.attempt(ctx, body)
		if err == nil || errors.Is(err, ErrPartial) {
			return res, err
		}
		lastErr = err
		if !retryable || attempt >= retries {
			return nil, fmt.Errorf("simd client: %w", lastErr)
		}
		sleep := hint
		if sleep <= 0 {
			// Exponential backoff with jitter in [delay/2, delay]: spread, but
			// never sooner than half the intended step.
			sleep = delay/2 + rand.N(delay/2+1)
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
		}
		c.logf("simd client: attempt %d failed (%v), retrying in %s", attempt+1, err, sleep)
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("simd client: %w (last attempt: %v)", context.Cause(ctx), lastErr)
		}
	}
}

// attempt performs one blocking submit. It returns the result on success
// (or partial), whether a failure is retryable, and the server's
// Retry-After hint if it sent one.
func (c *Client) attempt(ctx context.Context, body []byte) (*RunResult, bool, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, false, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		// Network-level failure: retryable unless the context is done.
		return nil, ctx.Err() == nil, 0, err
	}
	defer resp.Body.Close()
	b, err := readBody(resp)
	if err != nil {
		return nil, ctx.Err() == nil, 0, err
	}

	res := &RunResult{
		Metrics: b,
		Key:     resp.Header.Get("X-Simd-Key"),
		Source:  resp.Header.Get("X-Simd-Source"),
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return res, false, 0, nil
	case resp.StatusCode == http.StatusGatewayTimeout:
		res.Partial = true
		return res, false, 0, ErrPartial
	}
	hint := retryAfterHint(resp)
	err = fmt.Errorf("server returned %s: %s", resp.Status, compactError(b))
	return nil, retryableStatus(resp.StatusCode), hint, err
}

// maxReplyBody caps the bytes read from one reply.
const maxReplyBody = 64 << 20

// readBody reads a reply body: exactly Content-Length bytes into one
// allocation when the server declared a length within the cap, else up to
// the cap. A body cut short of its declared length is an error.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxReplyBody {
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxReplyBody))
}

// retryAfterHint parses the Retry-After header (seconds form; the server
// only sends that form).
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// compactError extracts the message from an error envelope, falling back to
// a truncated raw body.
func compactError(b []byte) string {
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &env) == nil && env.Error != "" {
		return env.Error
	}
	const limit = 200
	s := string(b)
	if len(s) > limit {
		s = s[:limit] + "…"
	}
	return s
}
