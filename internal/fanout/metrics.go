package fanout

import (
	"time"

	"repro/internal/obs"
)

// coordMetrics is the coordinator's metric surface, exported on the
// slimcodemlx -metrics-addr listener. The coordinator is a single
// goroutine, so shard and endpoint gauges are recomputed from its state
// once per scheduling round rather than maintained incrementally; the
// obs handles themselves are atomic, so a concurrent scrape always
// reads a consistent last-round snapshot. A nil registry yields nil
// handles and every method below no-ops.
type coordMetrics struct {
	shards      *obs.GaugeVec   // phase: pending | submitted | job_done
	merged      *obs.Gauge      // shards appended to the output so far
	endpoints   *obs.GaugeVec   // state: alive | dead
	epEvents    *obs.CounterVec // event: death | readmission
	resubmits   *obs.Counter
	outputBytes *obs.Gauge
	pollSeconds *obs.Histogram
	follows     *obs.CounterVec // event: started
}

func newCoordMetrics(r *obs.Registry) *coordMetrics {
	return &coordMetrics{
		shards: r.GaugeVec("slimcodemlx_shards",
			"Unmerged shards by phase (pending in the queue, submitted to a daemon, job_done awaiting merge).", "phase"),
		merged: r.Gauge("slimcodemlx_shards_merged",
			"Shards appended to the merged output, in shard order."),
		endpoints: r.GaugeVec("slimcodemlx_endpoints",
			"Configured daemon endpoints by health state.", "state"),
		epEvents: r.CounterVec("slimcodemlx_endpoint_events_total",
			"Endpoint health transitions (death: stopped answering; readmission: a re-probe brought it back).", "event"),
		resubmits: r.Counter("slimcodemlx_shard_resubmits_total",
			"Shards returned to the queue after a daemon died, lost the job, or reported it failed."),
		outputBytes: r.Gauge("slimcodemlx_output_bytes",
			"Durable size of the merged output file."),
		pollSeconds: r.Histogram("slimcodemlx_poll_seconds",
			"Round-trip latency of one job-status call against a daemon (made when a follow stream ends).", nil),
		follows: r.CounterVec("slimcodemlx_follow_streams_total",
			"Follow-mode result streams (started: stream opened).", "event"),
	}
}

// update recomputes the phase and health gauges from the coordinator's
// current state; called once per scheduling round.
func (m *coordMetrics) update(c *coord) {
	var pending, submitted, jobDone float64
	for i := c.next; i < len(c.shards); i++ {
		switch c.shards[i].phase {
		case shardPending:
			pending++
		case shardSubmitted:
			submitted++
		case shardJobDone:
			jobDone++
		}
	}
	m.shards.With("pending").Set(pending)
	m.shards.With("submitted").Set(submitted)
	m.shards.With("job_done").Set(jobDone)
	m.merged.Set(float64(c.next))
	var alive, dead float64
	for _, ep := range c.eps {
		if ep.alive {
			alive++
		} else {
			dead++
		}
	}
	m.endpoints.With("alive").Set(alive)
	m.endpoints.With("dead").Set(dead)
	m.outputBytes.Set(float64(c.offset))
}

// observePoll records one job-status round trip.
func (m *coordMetrics) observePoll(d time.Duration) {
	m.pollSeconds.Observe(d.Seconds())
}
