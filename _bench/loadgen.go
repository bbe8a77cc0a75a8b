package main

import (
	"math/rand"
	"sort"
	"time"
)

// clock is the load generator's view of time, so tests can drive it with
// a virtual clock and a handler that "stalls" by advancing it.
type clock interface {
	now() time.Duration // since the schedule's start
	sleepUntil(t time.Duration)
}

// wallClock is the real clock, anchored at the schedule's start.
type wallClock struct{ t0 time.Time }

func newWallClock() wallClock                  { return wallClock{t0: time.Now()} }
func (c wallClock) now() time.Duration         { return time.Since(c.t0) }
func (c wallClock) sleepUntil(t time.Duration) { time.Sleep(t - c.now()) }

// loadResult is what one open-loop schedule measured.
type loadResult struct {
	LatencyMs  []float64 // per request: from its due time to its response
	LateMs     []float64 // per request: how far behind schedule it was sent
	BacklogMax int       // most requests due but unanswered at any send
	Errors     int       // requests whose send returned an error
}

// openLoop sends request i no earlier than due[i] (ascending offsets from
// the clock's start), one at a time as on a single connection: a request
// whose turn comes while an earlier one is still outstanding waits for it.
// Each latency is measured from the request's due time, so a stalled
// response is charged to every request queued behind it, not hidden by a
// generator that simply sends later.
func openLoop(c clock, due []time.Duration, send func(i int) error) loadResult {
	res := loadResult{LatencyMs: make([]float64, len(due)), LateMs: make([]float64, len(due))}
	for i, d := range due {
		if c.now() < d {
			c.sleepUntil(d)
		}
		start := c.now()
		// Requests i.. that are already due, this one included.
		if backlog := sort.Search(len(due), func(j int) bool { return due[j] > start }) - i; backlog > res.BacklogMax {
			res.BacklogMax = backlog
		}
		if err := send(i); err != nil {
			res.Errors++
		}
		res.LatencyMs[i] = ms(c.now() - d)
		res.LateMs[i] = ms(start - d)
	}
	return res
}

// poissonSchedule returns due times for requests whose gaps are drawn
// exponentially with the given means, from a seeded source: arrivals of
// independent events at a fixed average rate. The first request is due at
// zero.
func poissonSchedule(rng *rand.Rand, meanGaps []time.Duration) []time.Duration {
	due := make([]time.Duration, len(meanGaps))
	var t time.Duration
	for i, g := range meanGaps {
		due[i] = t
		t += time.Duration(rng.ExpFloat64() * float64(g))
	}
	return due
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
