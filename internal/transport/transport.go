// Package transport is how this repository speaks HTTP to a `commuter
// serve` instance, stated once. Its three users — commuter.Dial, the
// cache-peer backend and the fleet client of internal/sweep — keep only
// their routes, payloads and error wording; whatever must ride on every
// outbound call has this one seam.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// maxBody bounds a buffered response body, mirroring the serve side's
// request bound: a TESTGEN entry for the heaviest pair is well under a
// megabyte, so 64 MiB is a defect detector, not a real limit — and a longer
// answer is an error saying so, never its first 64 MiB. A variable so that
// a test can lower it.
var maxBody int64 = 64 << 20

// Client issues requests against one server.
type Client struct {
	base string // scheme://host[:port][/prefix], no trailing slash
	hc   *http.Client
}

// New returns a client for the server at baseURL. timeout bounds each
// whole exchange, body included; zero means none, which a stream needs.
func New(baseURL string, timeout time.Duration) (*Client, error) {
	u, err := url.Parse(baseURL)
	switch {
	case err != nil:
		return nil, err
	case u.Scheme != "http" && u.Scheme != "https":
		return nil, errors.New("URL must be http:// or https://")
	case u.Host == "":
		return nil, errors.New("URL has no host")
	}
	return &Client{base: strings.TrimSuffix(baseURL, "/"), hc: &http.Client{Timeout: timeout}}, nil
}

// String is the server's base URL; CloseIdle drops idle connections to it.
func (c *Client) String() string { return c.base }
func (c *Client) CloseIdle()     { c.hc.CloseIdleConnections() }

// StatusError is a non-2xx answer: the request line, the status and the
// first 64 KiB of the body (the server's wire error, when it sent one).
type StatusError struct {
	Method, Path, Status string
	Body                 []byte
}

func (e *StatusError) Error() string {
	return e.Method + " " + e.Path + ": " + e.Status + ": " + string(bytes.TrimSpace(e.Body))
}

// RequestIDHeader carries a request's log-correlation id, in both
// directions: a server echoes it, and Do sends the one its context holds.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// WithRequestID returns ctx carrying the request id that every request Do
// makes under it sends, so a server's outbound calls on behalf of a request
// show up in the peers' logs under that request's id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// Do issues one request, a non-empty body as JSON, and returns the 2xx
// response, whose body the caller reads (it may be a stream) and closes.
// The caller's own cancellation surfaces as the bare context error.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if id, _ := ctx.Value(requestIDKey{}).(string); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, &StatusError{Method: method, Path: path, Status: resp.Status, Body: data}
	}
	return resp, nil
}

// Bytes is Do for a buffered answer: the whole body, which is an error when
// it is longer than maxBody. Reading to the end is also what returns the
// connection to the keep-alive pool.
func (c *Client) Bytes(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.Do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// One byte past the bound tells a body that ends there from a longer one.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err == nil && int64(len(data)) > maxBody {
		return nil, fmt.Errorf("%s %s: answer is longer than the %d-byte bound on a buffered body", method, path, maxBody)
	}
	return data, err
}
