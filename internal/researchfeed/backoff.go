package researchfeed

import (
	"time"

	"otfair/internal/rng"
)

// RetryPolicy is the deterministic, seeded, jittered exponential backoff
// the feed retries fetch attempts under. The schedule is a pure function
// of the policy: two feeds with equal policies retry at byte-identical
// offsets, which is what lets the outage scenario assert the exact retry
// timeline instead of sleeping and hoping.
type RetryPolicy struct {
	// Attempts is the total number of fetch attempts per Feed.Fetch
	// (default 3; 1 = no retries).
	Attempts int
	// Base is the pre-jitter delay before the first retry; it doubles
	// per retry (default 200ms).
	Base time.Duration
	// Max caps the pre-jitter delay (default 30s).
	Max time.Duration
	// Seed drives the jitter (default 1). The jitter keeps a fleet of
	// feeds from retrying in lockstep while staying reproducible: delay
	// i is min(Max, Base<<i) scaled into [1/2, 1) by a splitmix64 draw
	// keyed on (Seed, i).
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Base <= 0 {
		p.Base = 200 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 30 * time.Second
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Delay returns the wait before retry number retry (0-based: the wait
// between the first and second attempt is Delay(0)).
func (p RetryPolicy) Delay(retry int) time.Duration {
	p = p.withDefaults()
	if retry < 0 {
		retry = 0
	}
	d := p.Base
	for i := 0; i < retry && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	u := rng.New(p.Seed).Split(uint64(retry) + 1).Float64()
	return time.Duration((0.5 + 0.5*u) * float64(d))
}
