package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
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
// response body: two-space indent, trailing newline. The fleet router
// encodes its own error envelopes with it, so they match the serving
// layer's.
func JSONBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON writes v as an indented JSON response — the response-writer
// form of jsonResponse for handlers that live outside this package's
// containment spine (the fleet router and shard control plane).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := JSONBody(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError writes the canonical error envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	body, err := JSONBody(ErrorBody{Error: msg, Status: status})
	if err != nil {
		// The envelope itself cannot fail to encode; keep a last-resort
		// plain body anyway rather than panicking in an error path.
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
