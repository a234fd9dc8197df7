package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"stateowned/internal/serve"
)

// maxControlBody bounds how much of a control-plane reply the client
// will read — acks and statuses are small; anything larger is a bug.
const maxControlBody = 1 << 20

// ShardClient is the router's and coordinator's handle on one replica:
// its position in the fleet, its base URL, and the HTTP client to reach
// it with. NewRouter gives a client without one of its own a LegClient.
// Tests swap HTTP's Transport for an in-process round-tripper, so the
// whole fleet runs without listeners.
type ShardClient struct {
	Index int
	Base  string
	HTTP  *http.Client
}

// LegClient returns an HTTP client for a router's legs and its
// coordinator's control calls, on a transport of its own that keeps
// enough idle connections to each replica for every read admission
// lets in at once plus one hedge each: 2 × adm's MaxInFlight, after
// Normalize. With admission off (nil adm) it sizes for
// serve.DefaultMaxInFlight, 512 idle connections per replica. Go's
// default transport keeps two per host: under concurrent reads, every
// leg past the second would dial a connection and close it afterwards.
func LegClient(adm *serve.AdmissionConfig) *http.Client {
	reads := serve.DefaultMaxInFlight
	if adm != nil {
		reads = adm.Normalize().MaxInFlight
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no cap across replicas; the per-replica one holds
	tr.MaxIdleConnsPerHost = 2 * reads
	return &http.Client{Transport: tr}
}

func (c *ShardClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Get issues a data-plane GET (path must start with "/") and returns
// the raw response: the router passes status, body and headers through,
// not a decoded struct.
func (c *ShardClient) Get(ctx context.Context, path string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// call issues one control-plane request (path plus an optional raw
// query) and decodes the 200 body into out. Any other status is an
// error carrying the shard's own explanation (e.g. the validation-gate
// quarantine reason on a failed stage).
func (c *ShardClient) call(ctx context.Context, method, path, query string, out any) error {
	url := c.Base + path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("shard %d: %w", c.Index, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	if err != nil {
		return fmt.Errorf("shard %d: reading %s: %w", c.Index, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorBody
		_ = json.Unmarshal(body, &e)
		return fmt.Errorf("shard %d: %s %d: %s", c.Index, path, resp.StatusCode, e.Error)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("shard %d: decoding %s: %w", c.Index, path, err)
	}
	return nil
}

// control issues one POST to a control-plane path with a ?gen= operand
// and decodes the ack.
func (c *ShardClient) control(ctx context.Context, path string, gen int) (StageAck, error) {
	var ack StageAck
	err := c.call(ctx, http.MethodPost, path, "gen="+strconv.Itoa(gen), &ack)
	return ack, err
}

// Stage asks the shard to build and hold generation gen (phase one).
func (c *ShardClient) Stage(ctx context.Context, gen int) (StageAck, error) {
	return c.control(ctx, StagePath, gen)
}

// Commit asks the shard to publish its staged generation (phase two).
func (c *ShardClient) Commit(ctx context.Context, gen int) (StageAck, error) {
	return c.control(ctx, CommitPath, gen)
}

// Abort asks the shard to discard its staged generation.
func (c *ShardClient) Abort(ctx context.Context, gen int) (StageAck, error) {
	return c.control(ctx, AbortPath, gen)
}

// Status fetches the shard's control-plane self-description.
func (c *ShardClient) Status(ctx context.Context) (ShardStatus, error) {
	var st ShardStatus
	err := c.call(ctx, http.MethodGet, StatusPath, "", &st)
	return st, err
}
