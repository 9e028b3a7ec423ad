package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule draws arrival offsets of a Poisson process with the given
// rate (events per second) over dur: exponential inter-arrival gaps from
// rng, so the same seed gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// opTiming is what the open loop records per operation, all as offsets from
// the phase start.
type opTiming struct {
	Due  time.Duration // when the schedule said to send
	Sent time.Duration // when a generator actually sent it
	Done time.Duration // when the reply (or error) came back
	Err  error
}

// latency is timed from the due time: a stall in the system is charged to
// every operation it delayed, not only to the one that hit it.
func (o opTiming) latency() time.Duration { return o.Done - o.Due }

// queueWait is how long the operation waited for a free generator.
func (o opTiming) queueWait() time.Duration { return o.Sent - o.Due }

// runOpenLoop fires do(i) for every due[i] on an arrival schedule that does
// not wait for replies: workers generators take operations in schedule order,
// sleep until each is due, and send it. When every generator is busy the
// next operation goes out late; that wait is part of its latency (it is
// timed from due) and is reported separately as the generator's lateness.
func runOpenLoop(due []time.Duration, workers int, do func(i int) error) []opTiming {
	out := make([]opTiming, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := do(i)
				out[i] = opTiming{Due: due[i], Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
