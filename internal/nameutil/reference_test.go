package nameutil

// The string forms of the name comparisons. Production code compares
// prepared names; tests keep these one-line wrappers for readability.

func Similarity(a, b string) float64 { return Prepare(a).Similarity(Prepare(b)) }

func TokenSetSimilarity(a, b string) float64 {
	return Prepare(a).TokenSetSimilarity(Prepare(b))
}

// referenceTokenSetSimilarity is TokenSetSimilarity as it stood before
// names were prepared, kept verbatim — both names re-tokenized into
// fresh hash sets per call — as the differential oracle for
// Name.TokenSetSimilarity.
func referenceTokenSetSimilarity(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	weight := func(tok string) float64 {
		if genericTokens[tok] {
			return 0.25
		}
		return 1.0
	}
	setA := make(map[string]bool, len(ta))
	for _, t := range ta {
		setA[t] = true
	}
	setB := make(map[string]bool, len(tb))
	for _, t := range tb {
		setB[t] = true
	}
	var inter, wA, wB float64
	for t := range setA {
		if setB[t] {
			inter += weight(t)
		}
		wA += weight(t)
	}
	for t := range setB {
		wB += weight(t)
	}
	union := wA + wB - inter
	if union == 0 {
		return 0
	}
	jaccard := inter / union
	// Containment handles brand-vs-legal asymmetry: "Optus" is fully
	// contained in "SingTel Optus Pty Limited". Discounted so that exact
	// matches still rank above containments.
	minW := wA
	if wB < minW {
		minW = wB
	}
	containment := 0.0
	if minW > 0 {
		containment = 0.8 * inter / minW
	}
	if containment > jaccard {
		return containment
	}
	return jaccard
}

// referenceSimilarity is Similarity as it stood before names were
// prepared, kept verbatim (four Tokens calls per comparison), as the
// differential oracle for Name.Similarity.
func referenceSimilarity(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" {
		return 0
	}
	ts := referenceTokenSetSimilarity(a, b)
	jw := JaroWinkler(na, nb)
	if ts > jw {
		return ts
	}
	return jw
}
