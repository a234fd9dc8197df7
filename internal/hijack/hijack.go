// Package hijack generates seeded adversarial routing campaigns and
// detects their footprint in collected monitor paths.
//
// A campaign plan is a pure function of the world, the topology and the
// (severity, seed, ROV fraction) knobs: the full campaign roster is drawn
// once from the deterministic RNG and severity only selects a prefix of
// it, so raising severity strictly adds campaigns (detected origin
// changes are monotone non-decreasing). ROV deployment comes from the
// nested per-AS thresholds in world/topology, so raising the fraction
// strictly adds validators (hijack recall is monotone non-increasing).
//
// Detection is deliberately plan-blind: it reads only the observed paths
// and the registered ownership ground truth, flagging every (origin,
// observed-origin) mismatch. An independent naive re-scan of the same
// observations must reproduce the report byte-for-byte — the
// differential battery holds the package to that contract.
package hijack

import (
	"slices"
	"sort"

	"stateowned/internal/bgp"
	"stateowned/internal/rng"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// Config are the adversary knobs threaded from the pipeline Config.
type Config struct {
	// Severity in [0,1] selects how much of the campaign roster runs:
	// 0 disables the adversary, 1 runs the full roster.
	Severity float64
	// Seed draws the campaign roster. Zero derives it from the world
	// seed so plain runs stay reproducible without extra flags.
	Seed uint64
	// ROVFraction in [0,1] is the deployment fraction fed to
	// topology.ROVDeployment.
	ROVFraction float64
}

// Plan is one generation's adversary: the selected campaigns plus the
// ROV deployment set that gates them.
type Plan struct {
	Campaigns   []bgp.Campaign
	ROV         map[world.ASN]bool
	ROVFraction float64
}

// rosterDivisor bounds the full roster at one campaign per this many
// eligible origins — severity 1.0 hijacks ~12% of routed origins.
const rosterDivisor = 8

// NewPlan draws the campaign plan for one world. The roster size and
// every draw depend only on (world, topology, cfg.Seed); cfg.Severity
// takes a prefix of the roster and cfg.ROVFraction materializes the
// validator set, so both knobs move monotonically.
func NewPlan(w *world.World, g *topology.Graph, cfg Config) *Plan {
	p := &Plan{ROVFraction: cfg.ROVFraction}
	if cfg.Severity > 0 {
		p.ROV = g.ROVDeployment(w, cfg.ROVFraction)
	} else {
		p.ROV = map[world.ASN]bool{}
	}

	var origins []world.ASN
	for _, asn := range g.ASes() {
		if as, ok := w.AS(asn); ok && len(as.Prefixes) > 0 {
			origins = append(origins, asn)
		}
	}
	slices.Sort(origins)
	hijackers := append([]world.ASN(nil), g.ASes()...)
	slices.Sort(hijackers)
	if len(origins) == 0 || len(hijackers) < 2 {
		return p
	}

	seed := cfg.Seed
	if seed == 0 {
		seed = w.Seed
	}
	r := rng.New(seed).Sub("hijack/plan")

	rosterMax := len(origins) / rosterDivisor
	if rosterMax < 1 {
		rosterMax = 1
	}
	want := int(cfg.Severity*float64(rosterMax) + 0.5)
	if cfg.Severity > 0 && want < 1 {
		want = 1
	}
	if want > rosterMax {
		want = rosterMax
	}

	// Draw the FULL roster regardless of severity, then keep a prefix:
	// that is what makes severity s a strict subset of severity s' > s.
	pool := append([]world.ASN(nil), origins...)
	roster := make([]bgp.Campaign, 0, rosterMax)
	for len(roster) < rosterMax && len(pool) > 0 {
		vi := r.Intn(len(pool))
		victim := pool[vi]
		pool[vi] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]

		hijacker := victim
		for tries := 0; hijacker == victim && tries < 16; tries++ {
			hijacker = hijackers[r.Intn(len(hijackers))]
		}
		if hijacker == victim {
			continue
		}

		c := bgp.Campaign{Victim: victim, Hijacker: hijacker}
		switch x := r.Float64(); {
		case x < 0.45:
			c.Kind = bgp.ExactPrefix
		case x < 0.80:
			c.Kind = bgp.SubPrefix
		default:
			c.Kind = bgp.ForgedPath
			// Fabricate 1-2 upstream hops from the victim's real
			// providers — the classic type-N forgery mimics a
			// plausible route. No providers means a bare forged
			// adjacency (hijacker, victim).
			if provs := g.Providers(victim); len(provs) > 0 {
				k := 1
				if len(provs) > 1 && r.Intn(2) == 1 {
					k = 2
				}
				perm := r.Perm(len(provs))
				for i := 0; i < k; i++ {
					c.Forged = append(c.Forged, provs[perm[i]])
				}
			}
		}
		roster = append(roster, c)
	}
	if cfg.Severity > 0 {
		if want > len(roster) {
			want = len(roster)
		}
		p.Campaigns = roster[:want]
	}
	return p
}

// Adversary packages the plan for the BGP collector.
func (p *Plan) Adversary() *bgp.Adversary {
	if p == nil || len(p.Campaigns) == 0 {
		return nil
	}
	return &bgp.Adversary{Campaigns: p.Campaigns, ROV: p.ROV}
}

// Victims lists the campaign victim origins, sorted ascending — the
// origin set the detection pass scans.
func (p *Plan) Victims() []world.ASN {
	out := make([]world.ASN, 0, len(p.Campaigns))
	for _, c := range p.Campaigns {
		out = append(out, c.Victim)
	}
	slices.Sort(out)
	return out
}

// Detection records one observed origin change: prefixes registered to
// Victim were seen originating from Observed by Monitors vantage points.
type Detection struct {
	Victim           world.ASN `json:"victim"`
	Observed         world.ASN `json:"observed_origin"`
	Monitors         int       `json:"monitors"`
	VictimCountry    string    `json:"victim_country"`
	ObservedCountry  string    `json:"observed_country,omitempty"`
	VictimStateOwned bool      `json:"victim_state_owned"`
	CrossBorder      bool      `json:"cross_border"`
}

// Report is the generation's detection output, served at /v1/hijacks.
// It is a pure function of observations and ground truth: an honest run
// and a fully-ROV-gated run produce byte-identical reports.
type Report struct {
	Monitors   int         `json:"monitors"`
	Detections []Detection `json:"detections"`
}

// Detect scans the collected paths for the given origins and flags every
// path whose terminal AS differs from the origin it was collected for —
// a MOAS-style origin change against the registry. The scan never reads
// the campaign plan, so sub-prefix and exact-prefix hijacks are caught
// where monitors adopted them while forged-path announcements (which
// keep the registered origin on the wire) evade it, exactly as in
// operational origin-based detection.
func Detect(mp *bgp.MonitorPaths, origins []world.ASN, w *world.World) *Report {
	rep := &Report{Detections: []Detection{}}
	if mp == nil {
		return rep
	}
	rep.Monitors = len(mp.Monitors)
	type change struct{ victim, observed world.ASN }
	counts := make(map[change]int)
	for mi := range mp.Monitors {
		for _, origin := range origins {
			p := mp.Path(mi, origin)
			if len(p) == 0 {
				continue
			}
			if obs := p[len(p)-1]; obs != origin {
				counts[change{origin, obs}]++
			}
		}
	}
	for ch, n := range counts {
		d := Detection{Victim: ch.victim, Observed: ch.observed, Monitors: n}
		if as, ok := w.AS(ch.victim); ok {
			d.VictimCountry = as.Country
		}
		if as, ok := w.AS(ch.observed); ok {
			d.ObservedCountry = as.Country
		}
		_, d.VictimStateOwned = w.TrueStateOwnedAS(ch.victim)
		d.CrossBorder = d.ObservedCountry != "" && d.VictimCountry != "" &&
			d.ObservedCountry != d.VictimCountry
		rep.Detections = append(rep.Detections, d)
	}
	sort.Slice(rep.Detections, func(i, j int) bool {
		a, b := rep.Detections[i], rep.Detections[j]
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		return a.Observed < b.Observed
	})
	return rep
}

// Detected counts the plan's campaigns whose exact (victim → hijacker)
// origin change appears in the report.
func (p *Plan) Detected(rep *Report) int {
	seen := make(map[[2]world.ASN]bool, len(rep.Detections))
	for _, d := range rep.Detections {
		seen[[2]world.ASN{d.Victim, d.Observed}] = true
	}
	n := 0
	for _, c := range p.Campaigns {
		if seen[[2]world.ASN{c.Victim, c.Hijacker}] {
			n++
		}
	}
	return n
}

// Recall is Detected over all planned campaigns (0 when none are
// planned). Forged-path campaigns stay in the denominator: evading
// origin-based detection is part of what the metric measures.
func (p *Plan) Recall(rep *Report) float64 {
	if len(p.Campaigns) == 0 {
		return 0
	}
	return float64(p.Detected(rep)) / float64(len(p.Campaigns))
}
