// Package ccodes provides the ISO 3166-1 alpha-2 country table used across
// the simulator: country codes, display names, UN macro-regions and the
// Regional Internet Registry (RIR) that serves each country.
//
// The paper groups results by RIR (Table 4, Figure 4) and by continent
// (Figure 1, §8), so both groupings are first-class here. The table is
// intentionally static data: it is the one piece of the real world that a
// synthetic reproduction can embed verbatim.
package ccodes

import (
	"fmt"
	"sort"
)

// RIR identifies one of the five Regional Internet Registries.
type RIR uint8

// The five RIRs, plus RIRUnknown for territories with no clear delegation.
const (
	RIRUnknown RIR = iota
	AFRINIC
	APNIC
	ARIN
	LACNIC
	RIPE
)

// String returns the registry's canonical name.
func (r RIR) String() string {
	switch r {
	case AFRINIC:
		return "AFRINIC"
	case APNIC:
		return "APNIC"
	case ARIN:
		return "ARIN"
	case LACNIC:
		return "LACNIC"
	case RIPE:
		return "RIPE"
	default:
		return "UNKNOWN"
	}
}

// AllRIRs lists the five registries in the order the paper's tables use.
func AllRIRs() []RIR { return []RIR{APNIC, RIPE, ARIN, AFRINIC, LACNIC} }

// Region is a UN macro-region (continent-level grouping).
type Region uint8

// Macro-regions used for prevalence modelling and Figure 1 commentary.
const (
	RegionUnknown Region = iota
	Africa
	Asia
	Europe
	NorthAmerica
	LatinAmerica
	Oceania
)

// String returns the region's display name.
func (g Region) String() string {
	switch g {
	case Africa:
		return "Africa"
	case Asia:
		return "Asia"
	case Europe:
		return "Europe"
	case NorthAmerica:
		return "North America"
	case LatinAmerica:
		return "Latin America"
	case Oceania:
		return "Oceania"
	default:
		return "Unknown"
	}
}

// Country is one ISO 3166-1 entry enriched with the groupings the pipeline
// and the analysis stages need.
type Country struct {
	Code      string // ISO 3166-1 alpha-2
	Name      string
	Region    Region
	Subregion string
	RIR       RIR
	// Population is a coarse national population estimate (thousands),
	// used by the world generator to size subscriber bases and address
	// allocations. Accuracy does not matter; relative order does.
	Population int
}

// table is the embedded country dataset. Codes follow ISO 3166-1; the RIR
// column follows the NRO's country-to-RIR delegation. The source groups
// it by registry; init sorts it by code, once, and every accessor reads
// it in that order.
var table = []Country{
	// --- AFRINIC ---
	{"AO", "Angola", Africa, "Middle Africa", AFRINIC, 32866},
	{"BF", "Burkina Faso", Africa, "Western Africa", AFRINIC, 20903},
	{"BI", "Burundi", Africa, "Eastern Africa", AFRINIC, 11891},
	{"BJ", "Benin", Africa, "Western Africa", AFRINIC, 12123},
	{"BW", "Botswana", Africa, "Southern Africa", AFRINIC, 2352},
	{"CD", "DR Congo", Africa, "Middle Africa", AFRINIC, 89561},
	{"CF", "Central African Republic", Africa, "Middle Africa", AFRINIC, 4830},
	{"CG", "Congo", Africa, "Middle Africa", AFRINIC, 5518},
	{"CI", "Cote d'Ivoire", Africa, "Western Africa", AFRINIC, 26378},
	{"CM", "Cameroon", Africa, "Middle Africa", AFRINIC, 26546},
	{"CV", "Cabo Verde", Africa, "Western Africa", AFRINIC, 556},
	{"DJ", "Djibouti", Africa, "Eastern Africa", AFRINIC, 988},
	{"DZ", "Algeria", Africa, "Northern Africa", AFRINIC, 43851},
	{"EG", "Egypt", Africa, "Northern Africa", AFRINIC, 102334},
	{"ER", "Eritrea", Africa, "Eastern Africa", AFRINIC, 3546},
	{"ET", "Ethiopia", Africa, "Eastern Africa", AFRINIC, 114964},
	{"GA", "Gabon", Africa, "Middle Africa", AFRINIC, 2226},
	{"GH", "Ghana", Africa, "Western Africa", AFRINIC, 31073},
	{"GM", "Gambia", Africa, "Western Africa", AFRINIC, 2417},
	{"GN", "Guinea", Africa, "Western Africa", AFRINIC, 13133},
	{"GQ", "Equatorial Guinea", Africa, "Middle Africa", AFRINIC, 1403},
	{"GW", "Guinea-Bissau", Africa, "Western Africa", AFRINIC, 1968},
	{"KE", "Kenya", Africa, "Eastern Africa", AFRINIC, 53771},
	{"KM", "Comoros", Africa, "Eastern Africa", AFRINIC, 870},
	{"LR", "Liberia", Africa, "Western Africa", AFRINIC, 5058},
	{"LS", "Lesotho", Africa, "Southern Africa", AFRINIC, 2142},
	{"LY", "Libya", Africa, "Northern Africa", AFRINIC, 6871},
	{"MA", "Morocco", Africa, "Northern Africa", AFRINIC, 36911},
	{"MG", "Madagascar", Africa, "Eastern Africa", AFRINIC, 27691},
	{"ML", "Mali", Africa, "Western Africa", AFRINIC, 20251},
	{"MR", "Mauritania", Africa, "Western Africa", AFRINIC, 4650},
	{"MU", "Mauritius", Africa, "Eastern Africa", AFRINIC, 1272},
	{"MW", "Malawi", Africa, "Eastern Africa", AFRINIC, 19130},
	{"MZ", "Mozambique", Africa, "Eastern Africa", AFRINIC, 31255},
	{"NA", "Namibia", Africa, "Southern Africa", AFRINIC, 2541},
	{"NE", "Niger", Africa, "Western Africa", AFRINIC, 24207},
	{"NG", "Nigeria", Africa, "Western Africa", AFRINIC, 206140},
	{"RW", "Rwanda", Africa, "Eastern Africa", AFRINIC, 12952},
	{"SC", "Seychelles", Africa, "Eastern Africa", AFRINIC, 98},
	{"SD", "Sudan", Africa, "Northern Africa", AFRINIC, 43849},
	{"SL", "Sierra Leone", Africa, "Western Africa", AFRINIC, 7977},
	{"SN", "Senegal", Africa, "Western Africa", AFRINIC, 16744},
	{"SO", "Somalia", Africa, "Eastern Africa", AFRINIC, 15893},
	{"SS", "South Sudan", Africa, "Eastern Africa", AFRINIC, 11194},
	{"ST", "Sao Tome and Principe", Africa, "Middle Africa", AFRINIC, 219},
	{"SZ", "Eswatini", Africa, "Southern Africa", AFRINIC, 1160},
	{"TD", "Chad", Africa, "Middle Africa", AFRINIC, 16426},
	{"TG", "Togo", Africa, "Western Africa", AFRINIC, 8279},
	{"TN", "Tunisia", Africa, "Northern Africa", AFRINIC, 11819},
	{"TZ", "Tanzania", Africa, "Eastern Africa", AFRINIC, 59734},
	{"UG", "Uganda", Africa, "Eastern Africa", AFRINIC, 45741},
	{"ZA", "South Africa", Africa, "Southern Africa", AFRINIC, 59309},
	{"ZM", "Zambia", Africa, "Eastern Africa", AFRINIC, 18384},
	{"ZW", "Zimbabwe", Africa, "Eastern Africa", AFRINIC, 14863},

	// --- APNIC ---
	{"AF", "Afghanistan", Asia, "Southern Asia", APNIC, 38928},
	{"AU", "Australia", Oceania, "Australia and New Zealand", APNIC, 25500},
	{"BD", "Bangladesh", Asia, "Southern Asia", APNIC, 164689},
	{"BN", "Brunei", Asia, "South-Eastern Asia", APNIC, 437},
	{"BT", "Bhutan", Asia, "Southern Asia", APNIC, 772},
	{"CN", "China", Asia, "Eastern Asia", APNIC, 1439324},
	{"FJ", "Fiji", Oceania, "Melanesia", APNIC, 896},
	{"FM", "Micronesia", Oceania, "Micronesia", APNIC, 115},
	{"HK", "Hong Kong", Asia, "Eastern Asia", APNIC, 7497},
	{"ID", "Indonesia", Asia, "South-Eastern Asia", APNIC, 273524},
	{"IN", "India", Asia, "Southern Asia", APNIC, 1380004},
	{"JP", "Japan", Asia, "Eastern Asia", APNIC, 126476},
	{"KH", "Cambodia", Asia, "South-Eastern Asia", APNIC, 16719},
	{"KI", "Kiribati", Oceania, "Micronesia", APNIC, 119},
	{"KP", "North Korea", Asia, "Eastern Asia", APNIC, 25779},
	{"KR", "South Korea", Asia, "Eastern Asia", APNIC, 51269},
	{"LA", "Laos", Asia, "South-Eastern Asia", APNIC, 7276},
	{"LK", "Sri Lanka", Asia, "Southern Asia", APNIC, 21413},
	{"MM", "Myanmar", Asia, "South-Eastern Asia", APNIC, 54410},
	{"MN", "Mongolia", Asia, "Eastern Asia", APNIC, 3278},
	{"MO", "Macao", Asia, "Eastern Asia", APNIC, 649},
	{"MV", "Maldives", Asia, "Southern Asia", APNIC, 541},
	{"MY", "Malaysia", Asia, "South-Eastern Asia", APNIC, 32366},
	{"NP", "Nepal", Asia, "Southern Asia", APNIC, 29137},
	{"NR", "Nauru", Oceania, "Micronesia", APNIC, 11},
	{"NZ", "New Zealand", Oceania, "Australia and New Zealand", APNIC, 4822},
	{"PG", "Papua New Guinea", Oceania, "Melanesia", APNIC, 8947},
	{"PH", "Philippines", Asia, "South-Eastern Asia", APNIC, 109581},
	{"PK", "Pakistan", Asia, "Southern Asia", APNIC, 220892},
	{"SB", "Solomon Islands", Oceania, "Melanesia", APNIC, 687},
	{"SG", "Singapore", Asia, "South-Eastern Asia", APNIC, 5850},
	{"TH", "Thailand", Asia, "South-Eastern Asia", APNIC, 69800},
	{"TL", "Timor-Leste", Asia, "South-Eastern Asia", APNIC, 1318},
	{"TO", "Tonga", Oceania, "Polynesia", APNIC, 106},
	{"TV", "Tuvalu", Oceania, "Polynesia", APNIC, 12},
	{"TW", "Taiwan", Asia, "Eastern Asia", APNIC, 23817},
	{"VN", "Vietnam", Asia, "South-Eastern Asia", APNIC, 97339},
	{"VU", "Vanuatu", Oceania, "Melanesia", APNIC, 307},
	{"WS", "Samoa", Oceania, "Polynesia", APNIC, 198},

	// --- ARIN ---
	{"AG", "Antigua and Barbuda", LatinAmerica, "Caribbean", ARIN, 98},
	{"BM", "Bermuda", NorthAmerica, "Northern America", ARIN, 62},
	{"BS", "Bahamas", LatinAmerica, "Caribbean", ARIN, 393},
	{"CA", "Canada", NorthAmerica, "Northern America", ARIN, 37742},
	{"GD", "Grenada", LatinAmerica, "Caribbean", ARIN, 113},
	{"GL", "Greenland", NorthAmerica, "Northern America", RIPE, 57},
	{"JM", "Jamaica", LatinAmerica, "Caribbean", ARIN, 2961},
	{"KN", "Saint Kitts and Nevis", LatinAmerica, "Caribbean", ARIN, 53},
	{"LC", "Saint Lucia", LatinAmerica, "Caribbean", ARIN, 184},
	{"US", "United States", NorthAmerica, "Northern America", ARIN, 331003},
	{"VC", "Saint Vincent", LatinAmerica, "Caribbean", ARIN, 111},

	// --- LACNIC ---
	{"AR", "Argentina", LatinAmerica, "South America", LACNIC, 45196},
	{"BB", "Barbados", LatinAmerica, "Caribbean", LACNIC, 287},
	{"BO", "Bolivia", LatinAmerica, "South America", LACNIC, 11673},
	{"BR", "Brazil", LatinAmerica, "South America", LACNIC, 212559},
	{"BZ", "Belize", LatinAmerica, "Central America", LACNIC, 398},
	{"CL", "Chile", LatinAmerica, "South America", LACNIC, 19116},
	{"CO", "Colombia", LatinAmerica, "South America", LACNIC, 50883},
	{"CR", "Costa Rica", LatinAmerica, "Central America", LACNIC, 5094},
	{"CU", "Cuba", LatinAmerica, "Caribbean", LACNIC, 11327},
	{"DO", "Dominican Republic", LatinAmerica, "Caribbean", LACNIC, 10848},
	{"EC", "Ecuador", LatinAmerica, "South America", LACNIC, 17643},
	{"GT", "Guatemala", LatinAmerica, "Central America", LACNIC, 17916},
	{"GY", "Guyana", LatinAmerica, "South America", LACNIC, 787},
	{"HN", "Honduras", LatinAmerica, "Central America", LACNIC, 9905},
	{"HT", "Haiti", LatinAmerica, "Caribbean", LACNIC, 11403},
	{"MX", "Mexico", LatinAmerica, "Central America", LACNIC, 128933},
	{"NI", "Nicaragua", LatinAmerica, "Central America", LACNIC, 6625},
	{"PA", "Panama", LatinAmerica, "Central America", LACNIC, 4315},
	{"PE", "Peru", LatinAmerica, "South America", LACNIC, 32972},
	{"PY", "Paraguay", LatinAmerica, "South America", LACNIC, 7133},
	{"SR", "Suriname", LatinAmerica, "South America", LACNIC, 587},
	{"SV", "El Salvador", LatinAmerica, "Central America", LACNIC, 6486},
	{"TT", "Trinidad and Tobago", LatinAmerica, "Caribbean", LACNIC, 1399},
	{"UY", "Uruguay", LatinAmerica, "South America", LACNIC, 3474},
	{"VE", "Venezuela", LatinAmerica, "South America", LACNIC, 28436},

	// --- RIPE ---
	{"AD", "Andorra", Europe, "Southern Europe", RIPE, 77},
	{"AE", "United Arab Emirates", Asia, "Western Asia", RIPE, 9890},
	{"AL", "Albania", Europe, "Southern Europe", RIPE, 2878},
	{"AM", "Armenia", Asia, "Western Asia", RIPE, 2963},
	{"AT", "Austria", Europe, "Western Europe", RIPE, 9006},
	{"AZ", "Azerbaijan", Asia, "Western Asia", RIPE, 10139},
	{"BA", "Bosnia and Herzegovina", Europe, "Southern Europe", RIPE, 3281},
	{"BE", "Belgium", Europe, "Western Europe", RIPE, 11590},
	{"BG", "Bulgaria", Europe, "Eastern Europe", RIPE, 6948},
	{"BH", "Bahrain", Asia, "Western Asia", RIPE, 1702},
	{"BY", "Belarus", Europe, "Eastern Europe", RIPE, 9449},
	{"CH", "Switzerland", Europe, "Western Europe", RIPE, 8655},
	{"CY", "Cyprus", Europe, "Southern Europe", RIPE, 1207},
	{"CZ", "Czechia", Europe, "Eastern Europe", RIPE, 10709},
	{"DE", "Germany", Europe, "Western Europe", RIPE, 83784},
	{"DK", "Denmark", Europe, "Northern Europe", RIPE, 5792},
	{"EE", "Estonia", Europe, "Northern Europe", RIPE, 1327},
	{"ES", "Spain", Europe, "Southern Europe", RIPE, 46755},
	{"FI", "Finland", Europe, "Northern Europe", RIPE, 5541},
	{"FR", "France", Europe, "Western Europe", RIPE, 65274},
	{"GB", "United Kingdom", Europe, "Northern Europe", RIPE, 67886},
	{"GE", "Georgia", Asia, "Western Asia", RIPE, 3989},
	{"GR", "Greece", Europe, "Southern Europe", RIPE, 10423},
	{"HR", "Croatia", Europe, "Southern Europe", RIPE, 4105},
	{"HU", "Hungary", Europe, "Eastern Europe", RIPE, 9660},
	{"IE", "Ireland", Europe, "Northern Europe", RIPE, 4938},
	{"IL", "Israel", Asia, "Western Asia", RIPE, 8656},
	{"IM", "Isle of Man", Europe, "Northern Europe", RIPE, 85},
	{"IQ", "Iraq", Asia, "Western Asia", RIPE, 40223},
	{"IR", "Iran", Asia, "Southern Asia", RIPE, 83993},
	{"IS", "Iceland", Europe, "Northern Europe", RIPE, 341},
	{"IT", "Italy", Europe, "Southern Europe", RIPE, 60462},
	{"JO", "Jordan", Asia, "Western Asia", RIPE, 10203},
	{"KG", "Kyrgyzstan", Asia, "Central Asia", RIPE, 6524},
	{"KW", "Kuwait", Asia, "Western Asia", RIPE, 4271},
	{"KZ", "Kazakhstan", Asia, "Central Asia", RIPE, 18777},
	{"LB", "Lebanon", Asia, "Western Asia", RIPE, 6825},
	{"LI", "Liechtenstein", Europe, "Western Europe", RIPE, 38},
	{"LT", "Lithuania", Europe, "Northern Europe", RIPE, 2722},
	{"LU", "Luxembourg", Europe, "Western Europe", RIPE, 626},
	{"LV", "Latvia", Europe, "Northern Europe", RIPE, 1886},
	{"MC", "Monaco", Europe, "Western Europe", RIPE, 39},
	{"MD", "Moldova", Europe, "Eastern Europe", RIPE, 4034},
	{"ME", "Montenegro", Europe, "Southern Europe", RIPE, 628},
	{"MK", "North Macedonia", Europe, "Southern Europe", RIPE, 2083},
	{"MT", "Malta", Europe, "Southern Europe", RIPE, 442},
	{"NL", "Netherlands", Europe, "Western Europe", RIPE, 17135},
	{"NO", "Norway", Europe, "Northern Europe", RIPE, 5421},
	{"OM", "Oman", Asia, "Western Asia", RIPE, 5107},
	{"PL", "Poland", Europe, "Eastern Europe", RIPE, 37847},
	{"PS", "Palestine", Asia, "Western Asia", RIPE, 5101},
	{"PT", "Portugal", Europe, "Southern Europe", RIPE, 10197},
	{"QA", "Qatar", Asia, "Western Asia", RIPE, 2881},
	{"RO", "Romania", Europe, "Eastern Europe", RIPE, 19238},
	{"RS", "Serbia", Europe, "Southern Europe", RIPE, 8737},
	{"RU", "Russia", Europe, "Eastern Europe", RIPE, 145934},
	{"SA", "Saudi Arabia", Asia, "Western Asia", RIPE, 34814},
	{"SE", "Sweden", Europe, "Northern Europe", RIPE, 10099},
	{"SI", "Slovenia", Europe, "Southern Europe", RIPE, 2079},
	{"SK", "Slovakia", Europe, "Eastern Europe", RIPE, 5460},
	{"SM", "San Marino", Europe, "Southern Europe", RIPE, 34},
	{"SY", "Syria", Asia, "Western Asia", RIPE, 17501},
	{"TJ", "Tajikistan", Asia, "Central Asia", RIPE, 9538},
	{"TM", "Turkmenistan", Asia, "Central Asia", RIPE, 6031},
	{"TR", "Turkey", Asia, "Western Asia", RIPE, 84339},
	{"UA", "Ukraine", Europe, "Eastern Europe", RIPE, 43734},
	{"UZ", "Uzbekistan", Asia, "Central Asia", RIPE, 33469},
	{"YE", "Yemen", Asia, "Western Asia", RIPE, 29826},
}

var byCode map[string]*Country

func init() {
	sort.Slice(table, func(i, j int) bool { return table[i].Code < table[j].Code })
	byCode = make(map[string]*Country, len(table))
	for i := range table {
		c := &table[i]
		if _, dup := byCode[c.Code]; dup {
			panic(fmt.Sprintf("ccodes: duplicate country code %q", c.Code))
		}
		byCode[c.Code] = c
	}
}

// ByCode returns the country for an ISO alpha-2 code.
func ByCode(code string) (Country, bool) {
	c, ok := byCode[code]
	if !ok {
		return Country{}, false
	}
	return *c, true
}

// MustByCode is ByCode but panics on unknown codes; used for embedded
// scenario data that must reference valid countries.
func MustByCode(code string) Country {
	c, ok := ByCode(code)
	if !ok {
		panic(fmt.Sprintf("ccodes: unknown country code %q", code))
	}
	return c
}

// All returns every country, sorted by code. The returned slice is a copy.
func All() []Country {
	return append([]Country(nil), table...)
}

// InRIR returns the countries served by the given registry, sorted by code.
func InRIR(r RIR) []Country {
	var out []Country
	for _, c := range table {
		if c.RIR == r {
			out = append(out, c)
		}
	}
	return out
}

// InRegion returns the countries in the given macro-region, sorted by code.
func InRegion(g Region) []Country {
	var out []Country
	for _, c := range table {
		if c.Region == g {
			out = append(out, c)
		}
	}
	return out
}

// Count reports the total number of countries in the table.
func Count() int { return len(table) }
