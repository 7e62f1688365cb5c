package core

import (
	"math"
	"testing"
	"time"
)

// TestNextBackoffSaturates: the retry pause doubles but must cap at
// MaxRetryBackoff — a generous Retries budget cannot escalate into
// multi-hour sleeps, and a huge duration cannot overflow.
func TestNextBackoffSaturates(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 64; i++ {
		d = NextBackoff(d)
		if d > MaxRetryBackoff {
			t.Fatalf("step %d: backoff %v exceeds cap %v", i, d, MaxRetryBackoff)
		}
	}
	if d != MaxRetryBackoff {
		t.Errorf("backoff settled at %v, want %v", d, MaxRetryBackoff)
	}
	if got := NextBackoff(MaxRetryBackoff); got != MaxRetryBackoff {
		t.Errorf("NextBackoff(cap) = %v, want %v", got, MaxRetryBackoff)
	}
	if got := NextBackoff(time.Duration(math.MaxInt64)); got != MaxRetryBackoff {
		t.Errorf("NextBackoff(MaxInt64) = %v, want %v (overflow guard)", got, MaxRetryBackoff)
	}
	if got := NextBackoff(time.Millisecond); got != 2*time.Millisecond {
		t.Errorf("NextBackoff(1ms) = %v, want 2ms", got)
	}
}
