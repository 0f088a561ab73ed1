package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// answer is what the system under test returned for one operation, already
// checked against the goldens: Fail is empty when it was right.
type answer struct {
	Fail string
	// Produced is the §4.4 cost the operation paid (objects produced).
	Produced float64
	// ServerMS is the time the daemon itself reports for the request.
	ServerMS float64
}

// doFunc performs one operation. The loops below own all timing, so tests can
// substitute a fake.
type doFunc func(op) answer

// sample is one timed operation.
type sample struct {
	op op
	answer
	// Latency runs from the send (closed loop) or from the due time (open
	// loop) to the complete, decoded reply.
	Latency time.Duration
	// Lag is how long after its due time the request left (open loop).
	Lag time.Duration
}

// closedLoop sends ops from one shared list through `clients` callers, each
// sending its next operation only when the previous one has been answered. It
// returns when the whole list is answered.
func closedLoop(ops []op, clients int, do doFunc) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				sent := time.Now()
				a := do(ops[i])
				samples[i] = sample{op: ops[i], answer: a, Latency: time.Since(sent)}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// openLoop sends each operation at its due time whether or not earlier ones
// have been answered, over at most `conns` connections. Latency is timed from
// the due time, not from the send: when the system stalls, the requests that
// queue behind the stall are charged the wait a real user would have had.
func openLoop(ops []op, conns int, do doFunc) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	// Sized to the number of sends, so the scheduler never waits on a worker.
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(ops[i].Due)
				sent := time.Now()
				a := do(ops[i])
				samples[i] = sample{op: ops[i], answer: a, Latency: time.Since(due), Lag: sent.Sub(due)}
			}
		}()
	}
	for i := range ops {
		time.Sleep(time.Until(start.Add(ops[i].Due)))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, time.Since(start)
}
