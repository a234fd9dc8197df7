package world

import "testing"

// TestCalibrationBands regenerates the full-scale default world and checks
// the ground-truth aggregates stay inside bands around the paper's
// published numbers. These are the quantities the whole reproduction is
// calibrated against; if a generator change drifts them, the experiment
// tables drift too.
func TestCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale world generation")
	}
	w := Generate(Config{Seed: 42, Scale: 1.0})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}

	stateASes, subASes := 0, 0
	companies := map[string]bool{}
	stateCountries := map[string]bool{}
	var stateAddr, totalAddr, usAddr uint64
	for _, asn := range w.ASNList {
		a := w.ASes[asn]
		n := a.NumAddresses()
		totalAddr += n
		if a.Country == "US" {
			usAddr += n
		}
		if owner, ok := w.TrueStateOwnedAS(asn); ok {
			stateASes++
			stateAddr += n
			companies[a.OperatorID] = true
			if a.Country == owner {
				stateCountries[owner] = true
			}
			if _, sub := trueForeignSubsidiaryAS(w, asn); sub {
				subASes++
			}
		}
	}

	check := func(name string, got, lo, hi int) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %d, want in [%d, %d]", name, got, lo, hi)
		} else {
			t.Logf("%s = %d (band [%d, %d])", name, got, lo, hi)
		}
	}
	// Paper: 989 state-owned ASes, 193 foreign-subsidiary ASes, 302
	// companies, 123 countries. The ground truth should be in the same
	// regime (the pipeline then recovers most of it).
	check("state-owned ASes (paper 989)", stateASes, 600, 1200)
	check("foreign-subsidiary ASes (paper 193)", subASes, 150, 260)
	check("state-owned companies (paper 302)", len(companies), 210, 380)
	check("state-owned countries (paper 123)", len(stateCountries), 105, 140)
	check("total ASes (paper sees 68k; scaled world)", len(w.ASNList), 8000, 20000)

	stateFrac := float64(stateAddr) / float64(totalAddr)
	exUS := float64(stateAddr) / float64(totalAddr-usAddr)
	t.Logf("state address share = %.3f (paper 0.17), ex-US = %.3f (paper 0.25)", stateFrac, exUS)
	if stateFrac < 0.12 || stateFrac > 0.30 {
		t.Errorf("state address share %.3f outside [0.12, 0.30]", stateFrac)
	}
	// The US-exclusion effect is the paper's sharpest global claim:
	// removing the US raises the share by roughly 1.5x.
	if ratio := exUS / stateFrac; ratio < 1.25 || ratio > 1.75 {
		t.Errorf("US-exclusion ratio %.2f outside [1.25, 1.75] (paper 25/17 = 1.47)", ratio)
	}
}
