// Package expand implements stage 3 of the paper's pipeline (§6): mapping
// confirmed state-owned Internet operators to AS numbers, expanding each
// organization with its AS2Org sibling ASNs, and assembling the final
// dataset in the exact schema of the paper's Listing 1 (JSON export; the
// paper also ships SQLite, which the stdlib-only constraint replaces with
// JSON — the paper's interchange format).
package expand

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"stateowned/internal/as2org"
	"stateowned/internal/candidates"
	"stateowned/internal/ccodes"
	"stateowned/internal/confirm"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// OrgRecord is one state-owned organization, field-for-field the JSON
// object of the paper's Listing 1.
type OrgRecord struct {
	ConglomerateName     string   `json:"conglomerate_name"`
	OrgID                string   `json:"org_id"`
	OrgName              string   `json:"org_name"`
	OwnershipCC          string   `json:"ownership_cc"`
	OwnershipCountryName string   `json:"ownership_country_name"`
	RIR                  string   `json:"rir"`
	Source               string   `json:"source"`
	Quote                string   `json:"quote"`
	QuoteLang            string   `json:"quote_lang"`
	URL                  string   `json:"url"`
	AdditionalInfo       string   `json:"additional_info"`
	Inputs               []string `json:"inputs"`
	ParentOrg            string   `json:"parent_org,omitempty"`
	TargetCC             string   `json:"target_cc,omitempty"`
	TargetCountryName    string   `json:"target_country_name,omitempty"`
}

// IsForeignSubsidiary reports whether the record describes a foreign
// subsidiary (operates in TargetCC, owned by OwnershipCC).
func (r *OrgRecord) IsForeignSubsidiary() bool {
	return r.TargetCC != "" && r.TargetCC != r.OwnershipCC
}

// OperatingCountry returns where the organization's ASes run: the target
// country for subsidiaries, the ownership country otherwise.
func (r *OrgRecord) OperatingCountry() string {
	if r.TargetCC != "" {
		return r.TargetCC
	}
	return r.OwnershipCC
}

// OrgASNs is the second Listing-1 object: the ASNs an organization owns.
type OrgASNs struct {
	OrgID string      `json:"org_id"`
	ASNs  []world.ASN `json:"asn"`
}

// MinorityRecord extends the paper's dataset with the §7 minority
// bookkeeping (the paper reports these in prose and Figure 6).
type MinorityRecord struct {
	OrgName string      `json:"org_name"`
	CC      string      `json:"cc"`
	Owner   string      `json:"owner_cc"`
	Share   float64     `json:"share"`
	ASNs    []world.ASN `json:"asn"`
}

// Dataset is the final data product.
type Dataset struct {
	Organizations []OrgRecord      `json:"organizations"`
	ASNs          []OrgASNs        `json:"asns"`
	Minority      []MinorityRecord `json:"minority_state_owned,omitempty"`
}

// Options tweaks stage-3 behavior (ablations flip these).
type Options struct {
	// DisableSiblingExpansion skips the AS2Org expansion (ablation).
	DisableSiblingExpansion bool
	// WHOIS, when set, enables the analyst-style sibling recovery the
	// paper describes contributing back to AS2Org: WHOIS records in the
	// company's country whose AS names share the company's distinctive
	// brand stem are adopted as siblings even when registered under a
	// different (post-acquisition) organization.
	WHOIS *whois.Registry
}

// Run assembles the dataset from the stage-2 result.
func Run(res *confirm.Result, m *as2org.Mapping, opts Options) *Dataset {
	ds := &Dataset{}
	claimed := map[world.ASN]bool{}
	rec := newRecoverer(opts.WHOIS)

	for i := range res.Confirmed {
		c := &res.Confirmed[i]
		asns := append([]world.ASN(nil), c.Company.ASNs...)
		if !opts.DisableSiblingExpansion {
			for _, a := range c.Company.ASNs {
				asns = append(asns, m.Siblings(a)...)
			}
			asns = append(asns, rec.recover(c, asns)...)
		}
		asns = dedupeASNs(asns)
		var free []world.ASN
		for _, a := range asns {
			if !claimed[a] {
				claimed[a] = true
				free = append(free, a)
			}
		}
		if len(free) == 0 {
			continue // company without (unclaimed) ASNs: documented, not in the AS dataset
		}

		orgID := fmt.Sprintf("ORG-%04d", len(ds.Organizations)+1)
		if org, ok := m.OrgOf(free[0]); ok {
			orgID = org.ID
		}
		operCountry := c.Company.Country
		ownCC := c.Owner
		rec := OrgRecord{
			ConglomerateName:     conglomerateOf(c),
			OrgID:                orgID,
			OrgName:              c.Company.Name,
			OwnershipCC:          ownCC,
			OwnershipCountryName: countryName(ownCC),
			RIR:                  rirOf(operCountry),
			Source:               c.Source.String(),
			Quote:                c.Quote,
			QuoteLang:            c.Lang,
			URL:                  c.URL,
			Inputs:               c.Company.Sources.Letters(),
		}
		if c.ForeignSubsidiary {
			rec.TargetCC = operCountry
			rec.TargetCountryName = countryName(operCountry)
			rec.ParentOrg = c.ParentName
			if rec.ParentOrg == "" {
				rec.AdditionalInfo = "foreign ownership established from ownership documents"
			}
		}
		ds.Organizations = append(ds.Organizations, rec)
		ds.ASNs = append(ds.ASNs, OrgASNs{OrgID: rec.OrgID, ASNs: free})
	}

	for i := range res.Minority {
		mr := &res.Minority[i]
		ds.Minority = append(ds.Minority, MinorityRecord{
			OrgName: mr.Company.Name,
			CC:      mr.Company.Country,
			Owner:   mr.Owner,
			Share:   mr.Share,
			ASNs:    append([]world.ASN(nil), mr.Company.ASNs...),
		})
	}
	return ds
}

func conglomerateOf(c *confirm.Confirmed) string {
	if c.ParentName != "" {
		return c.ParentName
	}
	return c.Company.Name
}

func countryName(cc string) string {
	if c, ok := ccodes.ByCode(cc); ok {
		return c.Name
	}
	return cc
}

func rirOf(cc string) string {
	if c, ok := ccodes.ByCode(cc); ok {
		return c.RIR.String()
	}
	return "UNKNOWN"
}

func dedupeASNs(asns []world.ASN) []world.ASN {
	seen := map[world.ASN]bool{}
	out := asns[:0]
	for _, a := range asns {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// AllASNs returns every state-owned ASN in the dataset, sorted.
func (d *Dataset) AllASNs() []world.ASN {
	var out []world.ASN
	for _, oa := range d.ASNs {
		out = append(out, oa.ASNs...)
	}
	return dedupeASNs(out)
}

// NumForeignSubsidiaryASNs counts ASNs belonging to foreign-subsidiary
// organizations.
func (d *Dataset) NumForeignSubsidiaryASNs() int {
	n := 0
	for i := range d.Organizations {
		if d.Organizations[i].IsForeignSubsidiary() {
			n += len(d.ASNs[i].ASNs)
		}
	}
	return n
}

// OwnerCountries returns the distinct countries owning dataset
// organizations, sorted.
func (d *Dataset) OwnerCountries() []string {
	seen := map[string]bool{}
	for _, o := range d.Organizations {
		seen[o.OwnershipCC] = true
	}
	out := make([]string, 0, len(seen))
	for cc := range seen {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// InputsOf reconstructs an organization's input-source set.
func (d *Dataset) InputsOf(i int) candidates.SourceSet {
	var ss candidates.SourceSet
	for _, l := range d.Organizations[i].Inputs {
		for _, s := range candidates.AllSources() {
			if s.Letter() == l {
				ss = ss.Add(s)
			}
		}
	}
	return ss
}

// Export writes the dataset as indented JSON.
func (d *Dataset) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Import reads a dataset back from JSON.
func Import(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("expand: decoding dataset: %w", err)
	}
	if len(d.Organizations) != len(d.ASNs) {
		return nil, fmt.Errorf("expand: %d organizations but %d ASN groups",
			len(d.Organizations), len(d.ASNs))
	}
	return &d, nil
}
