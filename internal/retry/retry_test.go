package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNormalizeDefaults(t *testing.T) {
	if got, want := (Policy{}).Normalize(), (Policy{Base: 25 * time.Millisecond, Max: time.Second, Attempts: 5}); got != want {
		t.Errorf("zero policy normalizes to %+v, want %+v", got, want)
	}
	set := Policy{Base: time.Millisecond, Max: 3 * time.Millisecond, Attempts: 2}
	if got := set.Normalize(); got != set {
		t.Errorf("a fully set policy changed: %+v", got)
	}
}

// TestBackoff: no wait before the first attempt, then Base doubling, capped
// at Max (including a Max that is not a power-of-two multiple of Base, and a
// Base already above it).
func TestBackoff(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 65 * time.Millisecond}
	for k, want := range []time.Duration{0, 10, 20, 40, 65, 65, 65} {
		if got := p.Backoff(k); got != want*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", k, got, want*time.Millisecond)
		}
	}
	if got := (Policy{Base: time.Second, Max: time.Millisecond}).Backoff(1); got != time.Millisecond {
		t.Errorf("Base above Max backs off %v, want Max", got)
	}
}

// TestDoAttempts: Do stops at the first success, and otherwise makes exactly
// Attempts tries and returns the last error.
func TestDoAttempts(t *testing.T) {
	p := Policy{Base: time.Microsecond, Max: time.Microsecond, Attempts: 4}
	calls := 0
	if err := p.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	}); err != nil || calls != 3 {
		t.Errorf("success on try 3: %d calls, err %v", calls, err)
	}
	calls = 0
	err := p.Do(func() error {
		calls++
		return fmt.Errorf("try %d", calls)
	})
	if calls != 4 || err == nil || err.Error() != "try 4" {
		t.Errorf("persistent failure: %d calls, err %v; want 4 calls and the last error", calls, err)
	}
}
