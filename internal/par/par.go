// Package par is the process's one core budget: a pool of persistent
// workers, at most GOMAXPROCS-1 of them and started on first use, behind
// one primitive, For, and its twin for bodies that can fail, ForErr.
// The GEMM kernels and layer passes, the mirror's seal and open fan-out,
// training-batch loading and the PM device's chunked copy all fan out
// through it, so loops that run concurrently or nest inside one another
// share the cores instead of each sizing a pool of its own.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loop is the state one For shares with the workers that join it.
type loop struct {
	next     atomic.Int64 // start of the next unclaimed range
	n, grain int
	body     func(lo, hi int)       // For's body, or nil
	bodyErr  func(lo, hi int) error // ForErr's body, or nil
	failed   atomic.Bool            // a bodyErr range failed; err holds its error
	err      error
	joined   sync.WaitGroup // workers that joined this loop

	// want is how many more workers the loop takes while it is on
	// pool.open; 0 once it is off. Under pool.mu.
	want int

	// With a join probe set: when the loop forked, how long after that
	// its first worker started (0 until one does), and how many ranges
	// workers ran.
	forked time.Time
	late   atomic.Int64
	helped atomic.Int64
}

// joinProbe, when set, is told of every For that hands ranges to
// workers, when it returns: how late the first worker started on it
// (0 if none did), how many ranges workers ran, and of how many.
var joinProbe atomic.Pointer[func(late time.Duration, helped, ranges int)]

// pool is the worker set. Each worker is a goroutine fed through a
// one-deep channel, and is either idle (its channel on the idle stack)
// or busy running a loop's ranges; busy never exceeds GOMAXPROCS-1.
var pool struct {
	mu      sync.Mutex
	idle    []chan *loop
	busy    int
	started int
	open    []*loop // loops whose callers are still claiming ranges
}

var loops = sync.Pool{New: func() any { return new(loop) }}

// For runs body over [0, n) in ranges of grain indices (the last may be
// shorter) and returns once every range has run. The caller claims
// ranges itself, from a shared cursor, and so does every pool worker
// that is idle when For starts or turns idle while ranges remain, up to
// GOMAXPROCS-1 of them, or fewer when there are fewer ranges. Because a
// range goes only to a worker that starts on it at once, For never
// waits on work nobody has started: a body may call For, or wait on a
// range claimed before its own, and concurrent loops split the pool
// rather than oversubscribe it. Ranges run concurrently in no fixed
// order, so body must write only the outputs of its own range. On one
// core, or when n fits in one range, body runs once over [0, n) on the
// caller. For allocates nothing once the pool has started.
func For(n, grain int, body func(lo, hi int)) {
	forLoop(n, grain, body, nil)
}

// ForErr is For over a body that can fail: it returns the first error a
// range returns, and starts no range after it (ranges already running
// finish), or nil once every range has run.
func ForErr(n, grain int, body func(lo, hi int) error) error {
	return forLoop(n, grain, nil, body)
}

// forLoop runs body or bodyErr, whichever is not nil, as For describes,
// and returns bodyErr's first error.
func forLoop(n, grain int, body func(lo, hi int), bodyErr func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	grain = max(grain, 1)
	procs := runtime.GOMAXPROCS(0)
	helpers := min(procs, (n+grain-1)/grain) - 1
	if helpers <= 0 {
		if body == nil {
			return bodyErr(0, n)
		}
		body(0, n)
		return nil
	}
	l := loops.Get().(*loop)
	l.n, l.grain, l.body, l.bodyErr = n, grain, body, bodyErr
	l.next.Store(0)
	probe := joinProbe.Load()
	if probe != nil {
		l.forked = time.Now()
	}

	pool.mu.Lock()
	for pool.started < procs-1 {
		work := make(chan *loop, 1)
		go serve(work)
		pool.idle = append(pool.idle, work)
		pool.started++
	}
	for helpers > 0 && len(pool.idle) > 0 && pool.busy < procs-1 {
		work := pool.idle[len(pool.idle)-1]
		pool.idle = pool.idle[:len(pool.idle)-1]
		pool.busy++
		helpers--
		l.joined.Add(1)
		work <- l
	}
	if l.want = helpers; helpers > 0 {
		pool.open = append(pool.open, l)
	}
	pool.mu.Unlock()

	l.run(false)

	pool.mu.Lock()
	l.close()
	pool.mu.Unlock()
	l.joined.Wait()
	if probe != nil {
		(*probe)(time.Duration(l.late.Swap(0)), int(l.helped.Swap(0)), (n+grain-1)/grain)
	}
	err := l.err
	l.body, l.bodyErr, l.err, l.forked = nil, nil, nil, time.Time{}
	l.failed.Store(false)
	loops.Put(l)
	return err
}

// run claims and runs ranges until none are left. The first range to
// fail records its error and moves the cursor to the end, so no range
// starts after it. helper is set on a worker.
func (l *loop) run(helper bool) {
	if helper && !l.forked.IsZero() {
		l.late.CompareAndSwap(0, int64(max(time.Since(l.forked), 1)))
	}
	for {
		lo := int(l.next.Add(int64(l.grain))) - l.grain
		if lo >= l.n {
			return
		}
		hi := min(lo+l.grain, l.n)
		if helper && !l.forked.IsZero() {
			l.helped.Add(1)
		}
		if l.body != nil {
			l.body(lo, hi)
		} else if err := l.bodyErr(lo, hi); err != nil && l.failed.CompareAndSwap(false, true) {
			l.err = err
			l.next.Store(int64(l.n))
		}
	}
}

// close takes l off the open list, if it is on it. Callers hold
// pool.mu.
func (l *loop) close() {
	if l.want == 0 {
		return
	}
	l.want = 0
	for i, o := range pool.open {
		if o == l {
			last := len(pool.open) - 1
			pool.open[i], pool.open[last] = pool.open[last], nil
			pool.open = pool.open[:last]
			return
		}
	}
}

// joinOpen returns an open loop with ranges left for a worker that has
// just finished one, counting it in, or nil if there is none or the
// pool is over GOMAXPROCS-1 busy workers. Callers hold pool.mu.
func joinOpen() *loop {
	if pool.busy > runtime.GOMAXPROCS(0)-1 {
		return nil
	}
	for len(pool.open) > 0 {
		l := pool.open[0]
		if l.next.Load() >= int64(l.n) {
			l.close()
			continue
		}
		if l.want == 1 {
			l.close()
		} else {
			l.want--
		}
		l.joined.Add(1)
		return l
	}
	return nil
}

// serve is a worker: it runs the loops handed to it through work, then
// any open loop it can join. It goes idle before it reports a loop
// done: the other order would let the caller return and issue its next
// For while the worker still looks busy, and that loop would start on
// its caller alone.
func serve(work chan *loop) {
	for l := range work {
		for l != nil {
			l.run(true)
			pool.mu.Lock()
			next := joinOpen()
			if next == nil {
				pool.busy--
				pool.idle = append(pool.idle, work)
			}
			pool.mu.Unlock()
			l.joined.Done()
			l = next
		}
	}
}
