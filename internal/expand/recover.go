package expand

import (
	"strings"

	"stateowned/internal/ccodes"
	"stateowned/internal/confirm"
	"stateowned/internal/nameutil"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// genericStems are brand stems too common to identify a company.
var genericStems = map[string]bool{
	"TELECOM": true, "TELE": true, "TEL": true, "NATIONAL": true,
	"MOBILE": true, "MOBI": true, "FIBER": true, "NET": true,
	"AIRLINK": true, "CELL": true, "INTERNET": true, "GLOBAL": true,
	"DIGITAL": true, "BROADBAND": true,
}

// brandStem extracts the distinctive uppercase stem the registry AS-name
// convention uses ("SINGTEL" from "SingTel"), or "" when the stem is too
// generic or collides with the country name.
func brandStem(name, cc string) string {
	toks := nameutil.Tokens(name)
	if len(toks) == 0 {
		return ""
	}
	stem := strings.ToUpper(toks[0])
	if len(stem) > 10 {
		stem = stem[:10]
	}
	return validStem(stem, cc)
}

// validStem rejects stems too short, too common, or identical to a word
// of the country's name ("UGANDA-" prefixes half of Uganda's AS names —
// no identity signal).
func validStem(stem, cc string) string {
	if len(stem) < 5 || genericStems[stem] {
		return ""
	}
	if c, ok := ccodes.ByCode(cc); ok {
		for _, t := range nameutil.Tokens(c.Name) {
			// Compare under the AS-name convention's 10-character
			// truncation: "AFGHANISTA" is still the country word.
			up := strings.ToUpper(t)
			if len(up) > 10 {
				up = up[:10]
			}
			if up == stem {
				return ""
			}
		}
	}
	return stem
}

// recoverSiblings implements the analyst-style sibling recovery of §6:
// while investigating a company, the paper's authors noticed ASNs whose
// registry AS names carry the company's brand even though their WHOIS
// organization records differ (typically after acquisitions), and
// contributed those missing sibling links back to AS2Org. It returns
// the in-country WHOIS records, read through the registry's
// per-country index, whose AS name starts with the company's brand stem
// but that AS2Org did not cluster with the known ASNs.
func recoverSiblings(reg *whois.Registry, c *confirm.Confirmed, known []world.ASN) []world.ASN {
	if reg == nil || len(known) == 0 {
		return nil
	}
	stem := brandStem(c.Company.Name, c.Company.Country)
	if stem == "" {
		// Try the primary AS's registry name instead: the candidate
		// name may be a stale legal name while the AS names carry the
		// brand.
		if rec, ok := reg.Lookup(known[0]); ok {
			if i := strings.IndexByte(rec.ASName, '-'); i >= 5 {
				stem = validStem(rec.ASName[:i], c.Company.Country)
			}
		}
	}
	if stem == "" {
		return nil
	}
	knownSet := make(map[world.ASN]bool, len(known))
	for _, a := range known {
		knownSet[a] = true
	}
	var out []world.ASN
	for _, asn := range reg.ASNsIn(c.Company.Country) {
		if knownSet[asn] {
			continue
		}
		if rec, _ := reg.Lookup(asn); strings.HasPrefix(rec.ASName, stem+"-") {
			out = append(out, asn)
		}
	}
	return out
}
