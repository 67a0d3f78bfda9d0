package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"vita/internal/trajectory"
)

// Client is the remote counterpart of Dataset: the same operator methods
// with the same request/response types, executed by a running vitaserve
// daemon. Query parameters are rendered with full float64 round-trip
// precision, so a remote query sees bit-identical parameters — and returns
// bit-identical results — to a local one. Every request asks for the row
// body (see wire.go), which range and traj answer with; JSON is accepted from
// any endpoint.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:7617".
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// ClientOptions tunes the HTTP transport behind a Client. The zero value
// keeps stdlib defaults, which cap idle connections at 2 per host — far too
// few for a load generator fanning hundreds of concurrent requests at one
// server (every extra request pays a fresh TCP handshake).
type ClientOptions struct {
	// Timeout bounds one whole request (dial + write + read). Zero means no
	// timeout.
	Timeout time.Duration
	// MaxIdleConnsPerHost raises the per-host idle keep-alive pool (stdlib
	// default 2). Set it to at least the expected concurrency.
	MaxIdleConnsPerHost int
	// MaxConnsPerHost caps total connections per host, 0 = unlimited. Use it
	// to hold a closed-loop load test at exactly N connections.
	MaxConnsPerHost int
}

// NewClient returns a Client for the server at base with a dedicated
// transport tuned by opts. The transport is a clone of
// http.DefaultTransport, so proxy and TLS environment handling carry over.
func NewClient(base string, opts ClientOptions) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	if opts.MaxIdleConnsPerHost > 0 {
		tr.MaxIdleConnsPerHost = opts.MaxIdleConnsPerHost
		if tr.MaxIdleConns > 0 && tr.MaxIdleConns < opts.MaxIdleConnsPerHost {
			tr.MaxIdleConns = opts.MaxIdleConnsPerHost
		}
	}
	tr.MaxConnsPerHost = opts.MaxConnsPerHost
	return &Client{
		Base: base,
		HTTP: &http.Client{Transport: tr, Timeout: opts.Timeout},
	}
}

// Range executes a range query on the server.
func (c *Client) Range(q RangeRequest) (*RangeResponse, error) {
	return call(c, "range", q, new(RangeResponse))
}

// KNN executes a k-nearest-neighbors query on the server.
func (c *Client) KNN(q KNNRequest) (*KNNResponse, error) {
	return call(c, "knn", q, new(KNNResponse))
}

// Density executes a snapshot-density query on the server.
func (c *Client) Density(q DensityRequest) (*DensityResponse, error) {
	return call(c, "density", q, new(DensityResponse))
}

// Traj executes a trajectory-retrieval query on the server.
func (c *Client) Traj(q TrajRequest) (*TrajResponse, error) {
	return call(c, "traj", q, new(TrajResponse))
}

// Dwell executes a dwell-time query on the server.
func (c *Client) Dwell(q DwellRequest) (*DwellResponse, error) {
	return call(c, "dwell", q, new(DwellResponse))
}

// Info fetches the dataset summary from the server.
func (c *Client) Info(trace bool) (*InfoResponse, error) {
	return call(c, "info", infoRequest(trace), new(InfoResponse))
}

// Watch replays a standing range query on the server.
func (c *Client) Watch(q WatchRequest) (*WatchResponse, error) {
	return call(c, "watch", q, new(WatchResponse))
}

// call sends the request q to the operator called name and decodes the
// answer into resp.
func call[Q request[Q], R Response](c *Client, name string, q Q, resp R) (R, error) {
	op := OperatorNamed(name)
	if err := c.get(op.path, encode(q), resp, op.rows(resp)); err != nil {
		var none R
		return none, err
	}
	return resp, nil
}

// Health fetches the server's liveness and build identity (/healthz).
func (c *Client) Health() (*Health, error) {
	var resp Health
	if err := c.get("/healthz", nil, &resp, nil); err != nil {
		return nil, err
	}
	return &resp, nil
}

// get issues one request and decodes its answer into out; rows is where the
// row body's samples go, nil for an endpoint that returns none. The body is
// read to EOF before it is closed, whatever the outcome, so the connection
// goes back to the keep-alive pool instead of being torn down.
func (c *Client) get(path string, v url.Values, out any, rows *[]trajectory.Sample) error {
	u := strings.TrimRight(c.Base, "/") + path
	if len(v) > 0 {
		u += "?" + v.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("serve: GET %s: %w", path, err)
	}
	req.Header.Set("Accept", vtbMediaType+", application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	res, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: GET %s: %w", path, err)
	}
	defer res.Body.Close()
	buf := getBodyBuf()
	defer bodyBufs.Put(buf)
	if _, err := buf.ReadFrom(res.Body); err != nil {
		return fmt.Errorf("serve: %s: read response: %w", path, err)
	}
	if res.StatusCode != http.StatusOK {
		var e errorBody
		if json.Unmarshal(buf.Bytes(), &e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s: %s (HTTP %d)", path, e.Error, res.StatusCode)
		}
		return fmt.Errorf("serve: %s: HTTP %d", path, res.StatusCode)
	}
	switch ct := res.Header.Get("Content-Type"); {
	case ct != vtbMediaType:
		err = json.Unmarshal(buf.Bytes(), out)
	case rows == nil:
		err = fmt.Errorf("a %s body from an endpoint that returns no rows", ct)
	default:
		err = decodeRowsBody(buf.Bytes(), out, rows)
	}
	if err != nil {
		return fmt.Errorf("serve: %s: decode response: %w", path, err)
	}
	return nil
}
