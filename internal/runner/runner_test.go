package runner

import (
	"errors"
	"strings"
	"testing"

	"stateowned/internal/faults"
)

func TestDoSucceedsFirstAttempt(t *testing.T) {
	h := NewHealth(0)
	v, ok := Do(h, DefaultBackoff(), "geo", func(int) (int, error) { return 7, nil })
	if !ok || v != 7 {
		t.Fatalf("Do = (%v, %v), want (7, true)", v, ok)
	}
	sh := h.Source("geo")
	if sh.Status != Healthy || sh.Attempts != 1 || sh.Retries != 0 {
		t.Errorf("unexpected health row: %+v", sh)
	}
}

func TestDoRetriesTransientThenRecovers(t *testing.T) {
	h := NewHealth(0.3)
	calls := 0
	v, ok := Do(h, DefaultBackoff(), "orbis", func(attempt int) (string, error) {
		calls++
		if attempt <= 2 {
			return "", &faults.TransientError{Source: "orbis", Attempt: attempt}
		}
		return "data", nil
	})
	if !ok || v != "data" {
		t.Fatalf("Do = (%q, %v), want recovery", v, ok)
	}
	if calls != 3 {
		t.Errorf("build called %d times, want 3", calls)
	}
	sh := h.Source("orbis")
	if sh.Status != Degraded {
		t.Errorf("status %v after retries, want degraded", sh.Status)
	}
	if sh.Retries != 2 {
		t.Errorf("retries = %d, want 2", sh.Retries)
	}
	// Deterministic exponential backoff: 1 + 2 units.
	if sh.BackoffUnits != 3 {
		t.Errorf("backoff units = %d, want 3", sh.BackoffUnits)
	}
}

func TestDoTripsBreakerOnPersistentTimeouts(t *testing.T) {
	h := NewHealth(0.9)
	calls := 0
	_, ok := Do(h, DefaultBackoff(), "orbis", func(attempt int) (int, error) {
		calls++
		return 0, &faults.TransientError{Source: "orbis", Attempt: attempt}
	})
	if ok {
		t.Fatal("Do reported success despite persistent timeouts")
	}
	if calls != DefaultBackoff().MaxAttempts {
		t.Errorf("build called %d times, want %d", calls, DefaultBackoff().MaxAttempts)
	}
	if h.Source("orbis").Status != Unavailable {
		t.Error("source not marked unavailable")
	}
	if got := h.UnavailableSources(); len(got) != 1 || got[0] != "orbis" {
		t.Errorf("UnavailableSources = %v", got)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	h := NewHealth(0)
	calls := 0
	_, ok := Do(h, DefaultBackoff(), "whois", func(int) (int, error) {
		calls++
		return 0, errors.New("schema violation")
	})
	if ok || calls != 1 {
		t.Fatalf("permanent error retried: ok=%v calls=%d", ok, calls)
	}
}

func TestBackoffDelaysCapped(t *testing.T) {
	b := Backoff{MaxAttempts: 6, BaseUnits: 1, MaxUnits: 4}
	want := []int{1, 2, 4, 4, 4}
	for i, w := range want {
		if d := b.Delay(i + 1); d != w {
			t.Errorf("Delay(%d) = %d, want %d", i+1, d, w)
		}
	}
}

// TestBackoffDelaySaturates proves the delay never leaves [BaseUnits,
// MaxUnits] however many attempts pile up: a shift past the word width
// would wrap to a negative delay at attempt 64 and to zero beyond it.
func TestBackoffDelaySaturates(t *testing.T) {
	b := Backoff{BaseUnits: 1, MaxUnits: 8}
	for _, tc := range []struct{ attempt, want int }{
		{1, 1}, {4, 8}, {63, 8}, {64, 8}, {65, 8}, {1000, 8},
	} {
		if d := b.Delay(tc.attempt); d != tc.want {
			t.Errorf("Delay(%d) = %d, want %d", tc.attempt, d, tc.want)
		}
	}
}

func TestHealthAccounting(t *testing.T) {
	h := NewHealth(0.4)
	h.NoteDamage("whois", faults.Damage{Dropped: 10, Corrupted: 4})
	h.NoteQuarantined("whois", 4)
	h.NoteDamage("geo", faults.Damage{})
	h.MarkUnavailable("orbis", "circuit open")
	h.MarkStage("stage1-candidates", true, "orbis unavailable")
	h.MarkStage("stage2-confirm", false, "")

	if got := h.DegradedSources(); len(got) != 2 {
		t.Errorf("DegradedSources = %v, want whois+orbis", got)
	}
	if h.Source("geo").Status != Healthy {
		t.Error("zero damage degraded a source")
	}
	if h.Quarantined() != 4 || h.Dropped() != 10 {
		t.Errorf("totals wrong: quarantined=%d dropped=%d", h.Quarantined(), h.Dropped())
	}
	if len(h.DegradedStages()) != 1 {
		t.Errorf("DegradedStages = %v", h.DegradedStages())
	}
	out := h.Render()
	for _, want := range []string{"whois", "unavailable", "stage1-candidates", "summary:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render misses %q:\n%s", want, out)
		}
	}
}

func TestStatusNeverDowngrades(t *testing.T) {
	h := NewHealth(1)
	h.MarkUnavailable("bgp", "all monitors dark")
	h.NoteDamage("bgp", faults.Damage{Dropped: 3})
	if h.Source("bgp").Status != Unavailable {
		t.Error("recording damage downgraded an unavailable source")
	}
}
