package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// virtualClock is a clock that moves only when the generator sleeps or
// the fake handler spends time.
type virtualClock struct{ t time.Duration }

func (c *virtualClock) now() time.Duration { return c.t }
func (c *virtualClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

const msD = time.Millisecond

// A handler that stalls on one request must have the stall charged to
// every request queued behind it, measured from their due times.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	c := &virtualClock{}
	due := []time.Duration{0, 100 * msD, 200 * msD, 300 * msD, 400 * msD, 700 * msD}
	res := openLoop(c, due, func(i int) error {
		if i == 1 {
			c.t += 500 * msD // the stall
		} else {
			c.t += 10 * msD
		}
		return nil
	})
	// Request 1 answers at 600 ms; 2, 3 and 4 were due at 200-400 ms and
	// wait for it; 5 is due after the queue has drained.
	wantLatency := []float64{10, 500, 410, 320, 230, 10}
	wantLate := []float64{0, 0, 400, 310, 220, 0}
	if !reflect.DeepEqual(res.LatencyMs, wantLatency) {
		t.Errorf("latencies %v, want %v", res.LatencyMs, wantLatency)
	}
	if !reflect.DeepEqual(res.LateMs, wantLate) {
		t.Errorf("lateness %v, want %v", res.LateMs, wantLate)
	}
	if res.BacklogMax != 3 {
		t.Errorf("backlog max %d, want 3 (requests 2-4 due at 600 ms)", res.BacklogMax)
	}
}

// The same property over a real connection and the wall clock: the first
// response stalls, and the requests due during the stall report it.
func TestOpenLoopStallOverHTTP(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := newConn()
	defer client.CloseIdleConnections()
	due := []time.Duration{0, 20 * msD, 40 * msD}
	res := openLoop(newWallClock(), due, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	if res.Errors != 0 {
		t.Fatalf("%d requests failed", res.Errors)
	}
	for i, d := range due {
		if floor := ms(stall - d); res.LatencyMs[i] < floor {
			t.Errorf("request %d latency %.1f ms, want at least %.1f ms", i, res.LatencyMs[i], floor)
		}
	}
	if res.BacklogMax != 2 {
		t.Errorf("backlog max %d, want 2 (requests 1 and 2 due when 0 answers)", res.BacklogMax)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	gaps := []time.Duration{msD, msD, msD, msD}
	a := poissonSchedule(rand.New(rand.NewSource(7)), gaps)
	b := poissonSchedule(rand.New(rand.NewSource(7)), gaps)
	if !reflect.DeepEqual(a, b) || a[0] != 0 {
		t.Fatalf("schedules %v and %v: want equal, starting at 0", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule %v is not ascending", a)
		}
	}
}
