package serve

import (
	"sync"
	"time"
)

// After is the injectable timer the server's waiting paths run on: the
// admission queue's deadline and the per-request handler budget both
// wait on the channel it returns and call stop once the wait is over.
// Production uses TimerAfter; tests inject a hand-fired channel and a
// no-op stop so overload scenarios are deterministic and finish in
// microseconds — the same reason latency accounting runs on the
// virtual-unit Clock.
type After func(d time.Duration) (c <-chan time.Time, stop func() bool)

// TimerAfter is the production After: a runtime timer and its Stop.
// The module's go line keeps the pre-1.23 timer semantics, under which
// a timer nobody stops stays live until it fires, so a request that
// finishes early would otherwise leave its budget timer behind.
func TimerAfter(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Admission-control bounds. The defaults are deliberately permissive:
// they exist to survive floods, not to throttle normal traffic.
const (
	// DefaultMaxInFlight is the admitted-concurrency bound when
	// AdmissionConfig.MaxInFlight is 0.
	DefaultMaxInFlight = 256
	// DefaultMaxQueue is the wait-queue bound when MaxQueue is 0.
	DefaultMaxQueue = 256
	// DefaultQueueWait is the queue deadline when QueueWait is 0.
	DefaultQueueWait = 100 * time.Millisecond
	// DefaultRetryAfter is the Retry-After hint when RetryAfter is 0.
	DefaultRetryAfter = 1 * time.Second
	// MaxInFlightCap clamps MaxInFlight and MaxQueue: beyond it, more
	// concurrency only deepens collapse (and the slot channel's
	// allocation would grow without bound).
	MaxInFlightCap = 1 << 16
)

// AdmissionConfig bounds how much concurrent work the server accepts
// before it starts shedding load. The policy is shed-don't-collapse: a
// bounded number of requests run, a bounded number wait briefly for a
// slot, and everything beyond that is refused immediately with 503 +
// Retry-After so admitted requests keep their latency.
type AdmissionConfig struct {
	// MaxInFlight is the number of concurrently admitted requests
	// (0 = DefaultMaxInFlight; clamped to MaxInFlightCap).
	MaxInFlight int
	// MaxQueue is how many requests may wait for a slot beyond
	// MaxInFlight (0 = DefaultMaxQueue; negative = no queue, shed
	// immediately when saturated).
	MaxQueue int
	// QueueWait is the longest a queued request waits for a slot before
	// being shed (0 = DefaultQueueWait; negative = no waiting).
	QueueWait time.Duration
	// RetryAfter is the Retry-After hint attached to shed responses
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration
}

// Normalize resolves zero values to defaults and clamps out-of-range
// values into safe bounds. It never rejects: any input produces a
// config a Limiter can run on without panicking or deadlocking (the
// FuzzAdmissionConfig contract; cmd/serve additionally exits 2 on
// negative flag values before ever building a config).
func (c AdmissionConfig) Normalize() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxInFlight > MaxInFlightCap {
		c.MaxInFlight = MaxInFlightCap
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = DefaultMaxQueue
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue > MaxInFlightCap:
		c.MaxQueue = MaxInFlightCap
	}
	switch {
	case c.QueueWait == 0:
		c.QueueWait = DefaultQueueWait
	case c.QueueWait < 0:
		// No waiting means the queue is unusable: shed at saturation.
		c.QueueWait = 0
		c.MaxQueue = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Verdict is the outcome of an admission attempt.
type Verdict uint8

// Admission outcomes.
const (
	// Admitted means a slot was acquired; the caller must release it.
	Admitted Verdict = iota
	// ShedQueueFull means both the in-flight slots and the wait queue
	// were saturated: the request was refused without waiting.
	ShedQueueFull
	// ShedTimeout means the request waited QueueWait without a slot
	// freeing up and was refused.
	ShedTimeout
	// ShedCanceled means the client gave up (context canceled) while
	// queued.
	ShedCanceled
)

// Limiter is the bounded in-flight admission controller: a slot channel
// caps concurrently admitted requests, a counted wait queue absorbs
// short bursts, and everything beyond that is shed. A nil *Limiter
// admits everything (admission control off), so callers never branch.
type Limiter struct {
	cfg   AdmissionConfig
	after After
	slots chan struct{}
	// free is release bound once, so that Acquire hands it out without
	// allocating a method value per request.
	free func()

	mu            sync.Mutex
	queued        int
	admitted      uint64
	shedQueueFull uint64
	shedTimeout   uint64
	shedCanceled  uint64
}

// NewLimiter builds a limiter for the normalized config; after nil
// selects TimerAfter.
func NewLimiter(cfg AdmissionConfig, after After) *Limiter {
	cfg = cfg.Normalize()
	if after == nil {
		after = TimerAfter
	}
	l := &Limiter{cfg: cfg, after: after, slots: make(chan struct{}, cfg.MaxInFlight)}
	l.free = l.release
	return l
}

// done is a context-shaped dependency: the caller's cancellation
// channel. Taking just the channel (not a context.Context) keeps the
// limiter independent of request plumbing.
type done <-chan struct{}

// Acquire tries to admit one request: immediately if a slot is free,
// after a bounded wait if the queue has room, otherwise shedding. On
// Admitted the returned release must be called exactly once when the
// request's work is finished; on every other verdict release is nil.
func (l *Limiter) Acquire(cancel done) (release func(), v Verdict) {
	if l == nil {
		return func() {}, Admitted
	}
	select {
	case l.slots <- struct{}{}:
		l.count(&l.admitted)
		return l.free, Admitted
	default:
	}
	l.mu.Lock()
	if l.queued >= l.cfg.MaxQueue {
		l.shedQueueFull++
		l.mu.Unlock()
		return nil, ShedQueueFull
	}
	l.queued++
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.queued--
		l.mu.Unlock()
	}()
	expired, stop := l.after(l.cfg.QueueWait)
	defer stop()
	select {
	case l.slots <- struct{}{}:
		l.count(&l.admitted)
		return l.free, Admitted
	case <-expired:
		l.count(&l.shedTimeout)
		return nil, ShedTimeout
	case <-cancel:
		l.count(&l.shedCanceled)
		return nil, ShedCanceled
	}
}

// release frees one admitted slot.
func (l *Limiter) release() { <-l.slots }

// count bumps one counter under the limiter lock.
func (l *Limiter) count(c *uint64) {
	l.mu.Lock()
	*c++
	l.mu.Unlock()
}

// RetryAfterSeconds is the whole-second Retry-After hint for shed
// responses (minimum 1: a zero header would invite an immediate retry
// into the same overload).
func (l *Limiter) RetryAfterSeconds() int {
	if l == nil {
		return 0
	}
	sec := int((l.cfg.RetryAfter + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// AdmissionStats is the limiter's accounting snapshot, merged into the
// /metrics body.
type AdmissionStats struct {
	// MaxInFlight and MaxQueue echo the normalized bounds.
	MaxInFlight int `json:"max_in_flight"`
	MaxQueue    int `json:"max_queue"`
	// Queued is the instantaneous wait-queue depth.
	Queued int `json:"queued"`
	// Admitted counts requests that got a slot; the Shed* counters
	// partition the refusals by cause.
	Admitted      uint64 `json:"admitted"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedTimeout   uint64 `json:"shed_timeout"`
	ShedCanceled  uint64 `json:"shed_canceled"`
}

// Stats snapshots the limiter accounting; a nil limiter reports zeroes.
func (l *Limiter) Stats() AdmissionStats {
	if l == nil {
		return AdmissionStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return AdmissionStats{
		MaxInFlight:   l.cfg.MaxInFlight,
		MaxQueue:      l.cfg.MaxQueue,
		Queued:        l.queued,
		Admitted:      l.admitted,
		ShedQueueFull: l.shedQueueFull,
		ShedTimeout:   l.shedTimeout,
		ShedCanceled:  l.shedCanceled,
	}
}
