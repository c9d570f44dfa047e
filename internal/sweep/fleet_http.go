package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"repro/internal/transport"
)

// FleetClient is the worker's side of the fleet coordination protocol:
// claim leases (with piggybacked renew/release), post completed results,
// read sweep status. Implementations must be safe for concurrent use —
// RunFleet posts results from every executor goroutine.
type FleetClient interface {
	Claim(ctx context.Context, req FleetClaimRequest) (FleetClaimResponse, error)
	Report(ctx context.Context, req FleetResultRequest) (FleetResultResponse, error)
	Status(ctx context.Context, sw FleetSweepSpec, withResults bool) (FleetStatusResponse, error)
}

// httpFleetClient speaks the fleet routes of a coordinator `commuter
// serve` instance.
type httpFleetClient struct{ coord *transport.Client }

// NewHTTPFleetClient returns a FleetClient for the coordinator at
// baseURL (scheme://host[:port]).
func NewHTTPFleetClient(baseURL string) (FleetClient, error) {
	coord, err := transport.New(baseURL, peerTimeout)
	if err != nil {
		return nil, fmt.Errorf("sweep: fleet coordinator %q is not an http(s) URL", baseURL)
	}
	return &httpFleetClient{coord: coord}, nil
}

// call sends one request (POST with req as its JSON body, GET when req is
// nil) and decodes the JSON response; a non-2xx answer surfaces the body
// (the coordinator's wire error) in the error.
func (c *httpFleetClient) call(ctx context.Context, path string, req, resp any) error {
	method, body := http.MethodGet, []byte(nil)
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return err
		}
		method = http.MethodPost
	}
	data, err := c.coord.Bytes(ctx, method, path, body)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fleet coordinator %s: %w", c.coord, err)
	}
	return json.Unmarshal(data, resp)
}

func (c *httpFleetClient) Claim(ctx context.Context, req FleetClaimRequest) (FleetClaimResponse, error) {
	var resp FleetClaimResponse
	err := c.call(ctx, FleetClaimPath, req, &resp)
	return resp, err
}

func (c *httpFleetClient) Report(ctx context.Context, req FleetResultRequest) (FleetResultResponse, error) {
	var resp FleetResultResponse
	err := c.call(ctx, FleetResultPath, req, &resp)
	return resp, err
}

func (c *httpFleetClient) Status(ctx context.Context, sw FleetSweepSpec, withResults bool) (FleetStatusResponse, error) {
	// The sweep identity travels as the JSON it is everywhere else
	// (strings, bools and ints: Marshal cannot fail); url.Values escapes it.
	data, _ := json.Marshal(sw)
	q := url.Values{"sweep": {string(data)}}
	if withResults {
		q.Set("results", "1")
	}
	var resp FleetStatusResponse
	err := c.call(ctx, FleetStatusPath+"?"+q.Encode(), nil, &resp)
	return resp, err
}
