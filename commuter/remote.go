package commuter

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/transport"
)

// Dial returns the remote binding of the Client interface: every call is
// translated to the versioned JSON wire format (internal/api) and
// executed by the `commuter serve` instance at baseURL, with sweeps
// streamed back as NDJSON. Dial itself performs no I/O — the first call
// does — so constructing a client is free and never blocks.
//
// Cancellation is end to end: cancelling a call's context aborts the
// HTTP request, the server observes the disconnect as its own context
// cancellation, and the sweep's workers stop just as a local sweep's
// would. Errors come back as the same "unknown X (known: ...)" messages
// the local binding produces.
func Dial(baseURL string) (Client, error) {
	// No timeout: a sweep streams for as long as it runs.
	t, err := transport.New(baseURL, 0)
	if err != nil {
		return nil, fmt.Errorf("commuter: dial %q: %w", baseURL, err)
	}
	return &remoteClient{t: t}, nil
}

type remoteClient struct{ t *transport.Client }

func (c *remoteClient) Close() error {
	c.t.CloseIdle()
	return nil
}

// remoteOptions validates that the options make sense for a remote call.
func remoteOptions(opts []Option) (callOptions, error) {
	o := buildOptions(opts)
	if o.cacheDir != "" || o.cache != nil {
		return o, &api.Error{Code: api.CodeBadRequest,
			Message: "commuter: WithCache applies to local clients; a server's cache is configured by `commuter serve -cache`"}
	}
	if o.fleet != "" {
		return o, &api.Error{Code: api.CodeBadRequest,
			Message: "commuter: WithFleet applies to local clients; a server joins a fleet via `commuter serve -fleet`"}
	}
	return o, nil
}

// do issues one request (POST with a JSON body, or GET when req is nil)
// and decodes one JSON response.
func (c *remoteClient) do(ctx context.Context, path string, req, resp any) error {
	method, body := http.MethodGet, []byte(nil)
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return fmt.Errorf("commuter: encode %s request: %w", path, err)
		}
		method = http.MethodPost
	}
	data, err := c.t.Bytes(ctx, method, path, body)
	if err != nil {
		return remoteError(ctx, path, err)
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("commuter: decode %s response: %w", path, err)
	}
	return nil
}

// remoteError words a failed exchange: the caller's cancellation stays
// the bare context error, a non-2xx answer is the wire error it carries
// (with a generic message for non-conforming bodies), anything else names
// the route.
func remoteError(ctx context.Context, path string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	var se *transport.StatusError
	if !errors.As(err, &se) {
		return fmt.Errorf("commuter: %s: %w", path, err)
	}
	var ae api.Error
	if json.Unmarshal(se.Body, &ae) == nil && ae.Message != "" {
		return &ae
	}
	return fmt.Errorf("commuter: server returned %s: %s", se.Status, strings.TrimSpace(string(se.Body)))
}

func (c *remoteClient) Specs(ctx context.Context) ([]SpecInfo, error) {
	var resp api.SpecsResponse
	if err := c.do(ctx, api.PathSpecs, nil, &resp); err != nil {
		return nil, err
	}
	if resp.Version != api.Version {
		return nil, api.Errorf(api.CodeVersionMismatch,
			"commuter: server speaks wire version %d, this client speaks %d", resp.Version, api.Version)
	}
	return resp.Specs, nil
}

func (c *remoteClient) Analyze(ctx context.Context, opA, opB string, opts ...Option) (Analysis, error) {
	o, err := remoteOptions(opts)
	if err != nil {
		return Analysis{}, err
	}
	var out Analysis
	req := api.AnalyzeRequest{Version: api.Version, OpA: opA, OpB: opB, Options: o.Options}
	if err := c.do(ctx, api.PathAnalyze, &req, &out); err != nil {
		return Analysis{}, err
	}
	return out, nil
}

func (c *remoteClient) GenerateTests(ctx context.Context, opA, opB string, opts ...Option) (TestSet, error) {
	o, err := remoteOptions(opts)
	if err != nil {
		return TestSet{}, err
	}
	var out TestSet
	req := api.TestgenRequest{Version: api.Version, OpA: opA, OpB: opB, Options: o.Options}
	if err := c.do(ctx, api.PathTestgen, &req, &out); err != nil {
		return TestSet{}, err
	}
	// The setup content address is a local memo excluded from the wire
	// format; recompute it so remote-obtained test sets are pre-grouped
	// for Check exactly like locally generated ones.
	for i := range out.Tests {
		out.Tests[i].SetupID = out.Tests[i].Setup.Fingerprint()
	}
	return out, nil
}

func (c *remoteClient) Check(ctx context.Context, kernelName string, tests []TestCase, opts ...Option) (CheckSummary, error) {
	o, err := remoteOptions(opts)
	if err != nil {
		return CheckSummary{}, err
	}
	var out CheckSummary
	req := api.CheckRequest{Version: api.Version, Kernel: kernelName, Tests: tests, Options: o.Options}
	if err := c.do(ctx, api.PathCheck, &req, &out); err != nil {
		return CheckSummary{}, err
	}
	return out, nil
}

func (c *remoteClient) Sweep(ctx context.Context, opts ...Option) (*SweepResult, error) {
	return drainSweep(c.SweepStream(ctx, opts...))
}

func (c *remoteClient) SweepStream(ctx context.Context, opts ...Option) iter.Seq2[SweepUpdate, error] {
	return func(yield func(SweepUpdate, error) bool) {
		o, err := remoteOptions(opts)
		if err != nil {
			yield(SweepUpdate{}, err)
			return
		}
		body, err := json.Marshal(api.SweepRequest{Version: api.Version, Options: o.Options})
		if err != nil {
			yield(SweepUpdate{}, fmt.Errorf("commuter: encode sweep request: %w", err))
			return
		}
		hres, err := c.t.Do(ctx, http.MethodPost, api.PathSweep, body)
		if err != nil {
			yield(SweepUpdate{}, remoteError(ctx, api.PathSweep, err))
			return
		}
		// Closing the body on early exit aborts the server-side sweep:
		// the server sees the disconnect as context cancellation.
		defer hres.Body.Close()

		dec := json.NewDecoder(hres.Body)
		for {
			var fr api.Frame
			if err := dec.Decode(&fr); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					yield(SweepUpdate{}, cerr)
				} else if errors.Is(err, io.EOF) {
					yield(SweepUpdate{}, errors.New("commuter: sweep stream ended without a terminal frame"))
				} else {
					yield(SweepUpdate{}, fmt.Errorf("commuter: sweep stream: %w", err))
				}
				return
			}
			switch fr.Type {
			case api.FrameUpdate:
				if fr.Pair == nil {
					yield(SweepUpdate{}, errors.New("commuter: sweep update frame carried no pair"))
					return
				}
				if !yield(SweepUpdate{Pair: fr.Pair, Progress: fr.Progress}, nil) {
					return
				}
			case api.FrameResult:
				if fr.Result == nil {
					yield(SweepUpdate{}, errors.New("commuter: sweep result frame carried no result"))
					return
				}
				yield(SweepUpdate{Result: fr.Result.ToSweep()}, nil)
				return
			case api.FrameError:
				err := error(fr.Error)
				if fr.Error == nil {
					err = errors.New("commuter: sweep error frame carried no error")
				} else if fr.Error.Code == api.CodeCanceled && ctx.Err() != nil {
					err = ctx.Err()
				}
				yield(SweepUpdate{}, err)
				return
			default:
				// Unknown frame types from a same-version server are
				// additive extensions; skip them.
			}
		}
	}
}
