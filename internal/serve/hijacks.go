package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"stateowned/internal/hijack"
)

// --- /v1/hijacks -------------------------------------------------------------

// HijacksResponse is the generation's routing-adversary detection
// report: every observed origin change against the registered
// ownership, optionally filtered. Detections is never null; an honest
// generation answers with an empty list.
type HijacksResponse struct {
	Generation int                `json:"generation"`
	Monitors   int                `json:"monitors"`
	Count      int                `json:"count"`
	Detections []hijack.Detection `json:"detections"`
}

// hijacksFor extracts the generation's detection report, materializing
// the canonical 404 for sources that carry none (static index-only
// sources, mirroring graphFor).
func hijacksFor(v *View) (*hijack.Report, Response) {
	if v.Hijacks == nil {
		return nil, ErrorResponse(http.StatusNotFound,
			"hijack detection unavailable: this source serves no routing observations")
	}
	return v.Hijacks, Response{}
}

func (s *Server) handleHijacks(v *View, _ *http.Request, q url.Values) Response {
	rep, errResp := hijacksFor(v)
	if rep == nil {
		return errResp
	}

	var victim uint64
	if raw := q.Get("victim"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 32)
		if err != nil || n == 0 {
			return ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid ASN %q", raw))
		}
		victim = n
	}
	var cc string
	if raw := q.Get("cc"); raw != "" {
		cc = CanonicalCC(raw)
		if len(cc) != 2 || cc[0] < 'A' || cc[0] > 'Z' || cc[1] < 'A' || cc[1] > 'Z' {
			return ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid country code %q", raw))
		}
	}
	crossBorder := -1 // -1 = no filter
	if raw := q.Get("cross_border"); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid cross_border value %q (want true or false)", raw))
		}
		if b {
			crossBorder = 1
		} else {
			crossBorder = 0
		}
	}

	body := HijacksResponse{
		Generation: v.Gen,
		Monitors:   rep.Monitors,
		Detections: []hijack.Detection{},
	}
	for _, d := range rep.Detections {
		if victim != 0 && uint64(d.Victim) != victim {
			continue
		}
		if cc != "" && d.VictimCountry != cc {
			continue
		}
		if crossBorder >= 0 && d.CrossBorder != (crossBorder == 1) {
			continue
		}
		body.Detections = append(body.Detections, d)
	}
	body.Count = len(body.Detections)
	return JSONResponse(http.StatusOK, body)
}

// canonBoolParam normalizes a boolean query value for cache keys: every
// spelling strconv.ParseBool accepts collapses to 0/1, malformed values
// stay raw so distinct garbage stays distinct.
func canonBoolParam(raw string) string {
	if raw == "" {
		return ""
	}
	b, err := strconv.ParseBool(raw)
	if err != nil {
		return "raw:" + raw
	}
	if b {
		return "1"
	}
	return "0"
}
