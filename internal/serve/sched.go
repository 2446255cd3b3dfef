// Fair-share scheduler: the multi-tenant replacement for the server's
// single FIFO job channel.
//
// # Policy (exact, test-asserted)
//
// Jobs wait in per-tenant FIFO queues. When a runner frees up, the
// scheduler dispatches from the first tenant *strictly after* the
// last-dispatched tenant in cyclic lexicographic name order whose
// queue is non-empty and whose running-job count is below its
// max_active quota (0 = unlimited); within a tenant, strictly FIFO.
// A fresh daemon behaves as if the last-dispatched tenant were the
// empty name, so the lexicographically first tenant goes first.
//
// With tenancy off every job belongs to the empty tenant, so the
// policy degenerates to exactly the old daemon's single FIFO queue —
// the behavioral parity the tenancy feature is gated on.
//
// Admission is two-tiered: the global capacity (QueueDepth plus any
// recovered jobs) refuses with ErrQueueFull (HTTP 503, "try another
// daemon"), a tenant's max_queued quota refuses with
// ErrTenantQueueFull (HTTP 429, "you specifically are over quota").
package serve

import (
	"sort"
	"sync"
)

// scheduler holds the per-tenant queues. All methods are safe for
// concurrent use.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int
	closed   bool
	queues   map[string][]*Job
	size     int            // jobs waiting across all queues
	active   map[string]int // running jobs per tenant
	last     string         // last-dispatched tenant

	// limits resolves a tenant's (maxActive, maxQueued) quotas at
	// enqueue/dispatch time, so a hot-reloaded tenants file applies to
	// queued work without a restart. Never nil.
	limits func(tenant string) (maxActive, maxQueued int)
	// onChange observes a tenant's (active, queued) occupancy after
	// every mutation — the metrics gauges' single write path. May be
	// nil.
	onChange func(tenant string, active, queued int)
	// onDispatch observes each dispatch for the per-tenant dispatch
	// counter. May be nil.
	onDispatch func(tenant string)
}

func newScheduler(capacity int, limits func(string) (int, int)) *scheduler {
	if limits == nil {
		limits = func(string) (int, int) { return 0, 0 }
	}
	q := &scheduler{
		capacity: capacity,
		queues:   make(map[string][]*Job),
		active:   make(map[string]int),
		limits:   limits,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue admits a job to its tenant's queue. force bypasses both
// admission quotas — recovery requeues must never be refused by a
// queue that was sized to hold them.
func (q *scheduler) enqueue(j *Job, force bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	if !force {
		if q.size >= q.capacity {
			return ErrQueueFull
		}
		if _, maxQueued := q.limits(j.tenant); maxQueued > 0 && len(q.queues[j.tenant]) >= maxQueued {
			return ErrTenantQueueFull
		}
	}
	q.queues[j.tenant] = append(q.queues[j.tenant], j)
	q.size++
	q.notifyChange(j.tenant)
	q.cond.Broadcast()
	return nil
}

// dispatch blocks until a job is eligible under the fair-share policy,
// then claims it (incrementing its tenant's active count). It returns
// nil once the scheduler is closed — the runner's exit signal.
func (q *scheduler) dispatch() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil
		}
		if j := q.pickLocked(); j != nil {
			return j
		}
		q.cond.Wait()
	}
}

// pickLocked implements the documented policy: cyclic lexicographic
// scan starting strictly after the last-dispatched tenant, skipping
// tenants at their max_active cap; FIFO within the chosen tenant.
func (q *scheduler) pickLocked() *Job {
	if q.size == 0 {
		return nil
	}
	names := make([]string, 0, len(q.queues))
	for t, l := range q.queues {
		if len(l) > 0 {
			names = append(names, t)
		}
	}
	sort.Strings(names)
	start := sort.SearchStrings(names, q.last) // first index >= last
	if start < len(names) && names[start] == q.last {
		start++ // strictly after
	}
	for k := 0; k < len(names); k++ {
		t := names[(start+k)%len(names)]
		if maxActive, _ := q.limits(t); maxActive > 0 && q.active[t] >= maxActive {
			continue
		}
		list := q.queues[t]
		j := list[0]
		if len(list) == 1 {
			delete(q.queues, t)
		} else {
			q.queues[t] = list[1:]
		}
		q.size--
		q.active[t]++
		q.last = t
		q.notifyChange(t)
		if q.onDispatch != nil {
			q.onDispatch(t)
		}
		return j
	}
	return nil
}

// release returns a tenant's runner slot after its job finished and
// wakes the dispatchers — the tenant may have queued work that was
// skipped while it sat at max_active.
func (q *scheduler) release(tenant string) {
	q.mu.Lock()
	q.active[tenant]--
	if q.active[tenant] <= 0 {
		delete(q.active, tenant)
	}
	q.notifyChange(tenant)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// remove drops a still-queued job (cancellation), reporting whether it
// was found. Unlike the old channel queue, a cancelled job frees its
// slot immediately instead of being skipped at dispatch time.
func (q *scheduler) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.queues[j.tenant]
	for i, cand := range list {
		if cand == j {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(q.queues, j.tenant)
			} else {
				q.queues[j.tenant] = list
			}
			q.size--
			q.notifyChange(j.tenant)
			q.cond.Broadcast()
			return true
		}
	}
	return false
}

// close stops dispatching; blocked dispatchers return nil.
func (q *scheduler) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// drain empties every queue, returning the undispatched jobs (for
// interrupted-marking at shutdown). Call after close.
func (q *scheduler) drain() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	names := make([]string, 0, len(q.queues))
	for t := range q.queues {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		out = append(out, q.queues[t]...)
		delete(q.queues, t)
		q.notifyChange(t)
	}
	q.size = 0
	return out
}

// queued returns the total waiting-job count; capacityCap the bound.
func (q *scheduler) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

func (q *scheduler) capacityCap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capacity
}

func (q *scheduler) notifyChange(tenant string) {
	if q.onChange != nil {
		q.onChange(tenant, q.active[tenant], len(q.queues[tenant]))
	}
}
