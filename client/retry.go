package client

import (
	"context"
	"errors"
	"math/rand"
	"net/url"
	"time"
)

// retryPolicy bounds the automatic retries of WithRetry.
type retryPolicy struct {
	attempts int
	maxWait  time.Duration
}

// defaultMaxWait caps one retry sleep when WithRetry is given no cap.
const defaultMaxWait = 30 * time.Second

// WithRetry makes the client retry failed exchanges automatically:
// submissions rejected by backpressure (HTTP 429) wait out the server's
// Retry-After hint — jittered upward by as much as half, so a thundering
// herd of equally rejected clients spreads out — and transport errors
// (connection refused, reset) back off exponentially from 100ms.
// Everything else (4xx validation errors, 5xx answers) still surfaces
// immediately: retrying cannot fix a bad request.
//
// attempts is the total number of tries (values < 2 leave the client
// effectively retry-free); maxWait caps a single sleep, <= 0 selecting
// 30s. The request context bounds the whole exchange including the
// sleeps, so a caller deadline still cuts the retry loop short.
func WithRetry(attempts int, maxWait time.Duration) Option {
	return func(c *Client) {
		if maxWait <= 0 {
			maxWait = defaultMaxWait
		}
		c.retry = retryPolicy{attempts: attempts, maxWait: maxWait}
	}
}

// jitterSource is a lazily seeded private rand (the process-global one
// is off-limits so tests elsewhere can seed deterministically).
type jitterSource struct {
	r *rand.Rand
}

// float64 returns a uniform [0,1) sample; callers hold c.mu.
func (j *jitterSource) float64() float64 {
	if j.r == nil {
		j.r = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return j.r.Float64()
}

// jitter scales a base wait by [1, 1.5): never shorter than asked (the
// server's Retry-After is a minimum), at most half again longer.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 1 + c.rng.float64()/2
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// classify decides whether a failed attempt is retryable and how long
// to wait before the next one. attempt is 0-based.
func (c *Client) classify(err error, attempt int) (time.Duration, bool) {
	if c.retry.attempts < 2 {
		return 0, false
	}
	var qf *QueueFullError
	switch {
	case errors.As(err, &qf):
		return min(c.jitter(qf.RetryAfter), c.retry.maxWait), true
	case transportError(err):
		backoff := 100 * time.Millisecond << attempt
		return min(c.jitter(backoff), c.retry.maxWait), true
	}
	return 0, false
}

// transportError reports whether err happened below HTTP: the request
// never produced a response, so nothing server-side decided anything
// and a later retry may well succeed.
func transportError(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// sleepCtx sleeps d or until ctx fires.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
