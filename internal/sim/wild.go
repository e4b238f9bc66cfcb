package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Wild is the run core shared by the engines whose schedule is not theirs to
// choose: the concurrent engine (the Go runtime picks) and both wirings of
// the TCP engine (the network picks). Each worker goroutine delivers on its
// own lane; Wild adds what those lanes share — the in-flight counter whose
// zero is distributed quiescence, the global step budget, one telemetry
// track behind a mutex, the observer serialized into one causally
// consistent linearization, and the stop protocol that seals it the instant
// the verdict is decided.
//
// A message counts as in flight from its send until its delivery (including
// the counting of the sends it triggers) ends, so zero means no message
// exists anywhere and none can ever be created.
type Wild struct {
	k        *Kernel
	obs      *SerializedObserver
	inFlight counter
	steps    atomic.Int64
	tr       *obs.Track
	trMu     sync.Mutex

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}
	verdict  Verdict
	err      error
}

// NewWild builds the kernel and the shared core for a wild run. source names
// the schedule's origin in the telemetry (e.g. "wild-tcp"); seed and shards
// are reported with it.
func NewWild(g *graph.G, p protocol.Protocol, opts *Options, source string, seed int64, shards int) (*Wild, error) {
	k, err := NewKernel(g, p, opts)
	if err != nil {
		return nil, err
	}
	w := &Wild{k: k, obs: k.Serialize(), stopCh: make(chan struct{})}
	if opts.Obs != nil {
		opts.Obs.Configure(p.Name(), source, seed, shards)
		w.tr = opts.Obs.Tracks(1)[0]
	}
	return w, nil
}

// Lane returns a lane for one worker goroutine, carrying its sends on t.
func (w *Wild) Lane(t Transport) *Lane {
	l := w.k.Partial(w.tr, t)
	l.mu = &w.trMu
	l.inFlight = &w.inFlight
	return l
}

// Inject sends sigma0 through l. Call it before any worker starts.
func (w *Wild) Inject(l *Lane) error { return w.k.Inject(l) }

// Go runs f on a goroutine that Wait waits for.
func (w *Wild) Go(f func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		f()
	}()
}

// deliver runs one delivery on a worker's lane under the global step budget
// and decides the verdict when the delivery ends the run. It reports whether
// the worker should go on.
func (w *Wild) deliver(l *Lane, f Flight) bool {
	// Decrement strictly after the resulting sends were counted, so the
	// counter can only reach zero when the whole system is silent.
	defer w.inFlight.dec()
	if err := w.k.Admit(int(w.steps.Add(1)) - 1); err != nil {
		w.Finish(0, err)
		return false
	}
	done, err := l.Deliver(f.Edge, f.Msg, false)
	switch {
	case err != nil:
		w.Finish(0, err)
		return false
	case done:
		w.Finish(Terminated, nil)
		return false
	}
	return true
}

// Serve is a worker loop: it delivers flights from mb on l until the
// mailbox closes or the run's verdict stops the worker.
func (w *Wild) Serve(l *Lane, mb *Mailbox) {
	for {
		f, ok := mb.Pop()
		if !ok || !w.deliver(l, f) {
			return
		}
	}
}

// Finish decides the run's verdict (v is 0 with a non-nil err on failure);
// only the first call counts. It seals the observer before publishing the
// verdict, so a recorded schedule never includes the post-decision drain of
// still-queued messages.
func (w *Wild) Finish(v Verdict, err error) {
	w.stopOnce.Do(func() {
		w.obs.Seal()
		w.verdict = v
		w.err = err
		close(w.stopCh)
	})
}

// Stopped reports whether the verdict has been decided.
func (w *Wild) Stopped() bool {
	select {
	case <-w.stopCh:
		return true
	default:
		return false
	}
}

// Wait blocks until the verdict is decided — by Finish, or by quiescence,
// which a watcher detects on the in-flight counter — then runs teardown to
// unblock the workers, waits for every goroutine started with Go, and
// returns the closed result. Its PeakInFlight is the counter's high-water
// mark, in-flight plus in-processing messages.
func (w *Wild) Wait(teardown func()) (*Result, error) {
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		if w.inFlight.waitZero() {
			w.Finish(Quiescent, nil)
		}
	}()
	<-w.stopCh
	teardown()
	w.wg.Wait()
	// Unblock the watcher if the run ended with messages still queued
	// (termination or failure), so no goroutine outlives the run.
	w.inFlight.release()
	watcher.Wait()
	res := w.k.Close(w.verdict)
	res.Metrics.PeakInFlight = int(w.inFlight.peak)
	return res, w.err
}

// counter is an in-flight message counter with a wait-for-zero operation.
// Its high-water mark is tracked in the same O(1) update.
type counter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int64
	peak     int64
	released bool
}

func (c *counter) inc() { c.add(1) }
func (c *counter) dec() { c.add(-1) }

func (c *counter) add(delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	c.n += delta
	if c.n > c.peak {
		c.peak = c.n
	}
	if c.n == 0 {
		c.cond.Broadcast()
	}
}

func (c *counter) lazyInit() {
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
}

// waitZero blocks until the counter reaches zero (true) or is released
// (false).
func (c *counter) waitZero() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	for c.n != 0 && !c.released {
		c.cond.Wait()
	}
	return !c.released
}

// release wakes all waiters regardless of the count.
func (c *counter) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lazyInit()
	c.released = true
	c.cond.Broadcast()
}

// Mailbox is an unbounded FIFO queue of flights for many producers and one
// consumer. The asynchronous model has unbounded links, so a bounded channel
// could deadlock on a cycle; this is the standard mutex+cond queue.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Flight
	closed bool
}

// NewMailbox returns an empty open mailbox.
func NewMailbox() *Mailbox {
	mb := &Mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// Push appends f; a closed mailbox discards it.
func (mb *Mailbox) Push(f Flight) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.items = append(mb.items, f)
	mb.cond.Signal()
}

// Pop blocks until a flight is available (true) or the mailbox is closed and
// empty (false).
func (mb *Mailbox) Pop() (Flight, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.items) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.items) == 0 {
		return Flight{}, false
	}
	f := mb.items[0]
	mb.items = mb.items[1:]
	return f, true
}

// Close wakes the consumer; Pop then drains what is left and reports false.
func (mb *Mailbox) Close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}
