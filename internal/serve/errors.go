package serve

import (
	"bytes"
	"encoding/json"
)

// ErrorBody is the canonical JSON error envelope: every /v1 error
// response in the serving stack — the single-process server, the fleet
// shards and the fleet router alike — is this shape, produced by this
// package and nothing else. Status echoes the HTTP status code in the
// body so a client that lost the transport status line (a proxy log, a
// replayed capture) can still classify the failure.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// JSONBody encodes v exactly as the serving layer encodes every
// response body: two-space indent, trailing newline.
func JSONBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
