package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// ErrClosed is returned to predictions still pending when the server is
// closed.
var ErrClosed = errors.New("server: closed")

// predictJob is one single-row prediction waiting to join a coalesced
// batch. done is closed by the dispatcher after y (or err) is set.
type predictJob struct {
	x    []float64
	y    int
	err  error
	done chan struct{}
}

// coalescer turns concurrent single-row predictions into PredictBatch
// calls. One dispatcher goroutine collects jobs: it takes the first
// arrival and whatever is already queued behind it, then may wait up to
// the window for stragglers, and flushes when the batch reaches
// maxBatch rows or the wait ends. The window is a cap, paid only while
// waits catch companions: once they stop catching any, dispatches flush
// without waiting until queued companions show up again (see run). An
// isolated request therefore flushes at once, while a burst of
// concurrent ones still coalesces. A zero window never waits; arrivals
// queued at dispatch time still coalesce.
//
// The point is not only throughput (one snapshot load / lock
// acquisition amortised over the batch — the scorer's batch path is
// exactly the hot path PR 4 tuned) but consistency: every row in a
// coalesced batch is answered from one model state even while a
// trainer thread keeps mutating the live model.
type coalescer struct {
	scorer   serve.Scorer
	window   time.Duration
	maxBatch int

	jobs      chan *predictJob
	stop      chan struct{} // closed by close(): dispatcher begins shutdown
	stopped   chan struct{} // closed by run() after the final queue drain
	closeOnce sync.Once

	batches atomic.Uint64 // PredictBatch dispatches issued
	rows    atomic.Uint64 // rows answered through those dispatches
	waits   atomic.Uint64 // dispatches that waited out the whole window
}

func newCoalescer(sc serve.Scorer, window time.Duration, maxBatch, queue int) *coalescer {
	c := &coalescer{
		scorer:   sc,
		window:   window,
		maxBatch: maxBatch,
		// The job queue mirrors the admission bound: admitted requests
		// always find a slot, so enqueueing never blocks a handler for
		// long, and the select below stays honest.
		jobs:    make(chan *predictJob, queue+maxBatch),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go c.run()
	return c
}

func (c *coalescer) close() { c.closeOnce.Do(func() { close(c.stop) }) }

// predict submits one row and waits for its coalesced answer.
func (c *coalescer) predict(ctx context.Context, x []float64) (int, error) {
	j := &predictJob{x: x, done: make(chan struct{})}
	select {
	case c.jobs <- j:
	case <-c.stop:
		return 0, ErrClosed
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	// An enqueued job is normally resolved by the dispatcher, but the
	// buffered jobs channel leaves a shutdown race: predict can win the
	// enqueue select against <-c.stop after run()'s final drain has
	// already emptied the queue, and then nothing will ever close done.
	// stopped (closed strictly after that drain) bounds the wait: once
	// it fires, one non-blocking recheck of done tells answered from
	// abandoned.
	select {
	case <-j.done:
		return j.y, j.err
	case <-c.stopped:
		select {
		case <-j.done:
			return j.y, j.err
		default:
			return 0, ErrClosed
		}
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// run is the dispatcher loop.
func (c *coalescer) run() {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		// Fail whatever is still queued so no handler waits forever,
		// then close stopped so late enqueuers stop waiting too.
		for {
			select {
			case j := <-c.jobs:
				j.err = ErrClosed
				close(j.done)
			default:
				close(c.stopped)
				return
			}
		}
	}()
	batch := make([]*predictJob, 0, c.maxBatch)
	X := make([][]float64, 0, c.maxBatch)
	preds := make([]int, 0, c.maxBatch)
	// credit is how many empty waits the dispatcher will still pay. It
	// starts at one, so the first request of a cold burst waits for the
	// rest. A wait that catches k companions sets it to k, an empty wait
	// halves it, and a free drain that finds companions lifts it to at
	// least one. Without credit a dispatch flushes at once, except that
	// after maxBatch such dispatches in a row the next one waits anyway:
	// a burst whose first request came alone still coalesces, and an
	// isolated caller pays the window at most once per maxBatch requests.
	credit, unwaited := 1, 0
	for {
		// Block for the first job of the next batch.
		var first *predictJob
		select {
		case first = <-c.jobs:
		case <-c.stop:
			return
		}
		batch = append(batch[:0], first)

		// Drain whatever is already queued, for free.
		for len(batch) < c.maxBatch {
			select {
			case j := <-c.jobs:
				batch = append(batch, j)
				continue
			default:
			}
			break
		}
		if len(batch) > 1 || unwaited >= c.maxBatch {
			credit = max(credit, 1)
		}

		// With credit, wait out the window for stragglers: the latency
		// the caller trades for batch efficiency.
		if credit > 0 && c.window > 0 && len(batch) < c.maxBatch {
			if timer == nil {
				timer = time.NewTimer(c.window)
			} else {
				timer.Reset(c.window)
			}
			drained := len(batch)
		fill:
			for len(batch) < c.maxBatch {
				select {
				case j := <-c.jobs:
					batch = append(batch, j)
				case <-timer.C:
					c.waits.Add(1)
					break fill
				case <-c.stop:
					// Flush what we have before exiting: these
					// callers were admitted, they get answers.
					c.flush(batch, X, preds)
					return
				}
			}
			timer.Stop()
			if caught := len(batch) - drained; caught > 0 {
				credit = caught
			} else {
				credit /= 2
			}
			unwaited = 0
		} else {
			unwaited++
		}

		c.flush(batch, X, preds)
	}
}

// flush answers one collected batch through a single PredictBatch call.
func (c *coalescer) flush(batch []*predictJob, X [][]float64, preds []int) {
	if len(batch) == 0 {
		return
	}
	X = X[:0]
	for _, j := range batch {
		X = append(X, j.x)
	}
	preds = c.scorer.PredictBatch(X, preds[:0])
	c.batches.Add(1)
	c.rows.Add(uint64(len(batch)))
	for i, j := range batch {
		j.y = preds[i]
		close(j.done)
	}
}
