// Package serving adds an open-loop request-level inference-serving layer
// on top of the internal/sim event engine. Seeded Poisson (or trace-file)
// arrivals feed a pluggable scheduler — FIFO, priority, or shortest-job-
// first — that forms continuous batches per model replica; each request
// runs one prefill step and then iterative decode steps with KV-cache
// accounting against the replica GPU's memory, and its response ships back
// to the host over the network model.
//
// Everything is deterministic: randomness only enters through the seeded
// workload generator, request routing and queue order break ties by request
// ID, and observers (telemetry, span traces) record without scheduling — so
// a serving run carries a replayable EventDigest exactly like a training
// run.
package serving

import (
	"fmt"

	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/timeline"
)

// tokenWireBytes is the wire size of one token ID (the serving layer moves
// token streams, not activations).
const tokenWireBytes = 4

// Config describes one serving run.
type Config struct {
	// Model is a zoo transformer name (gpt2, bert, t5small, flant5small,
	// llama32-1b).
	Model string `json:"model"`
	// Replicas is the number of model instances, one per GPU, default all
	// GPUs in the topology.
	Replicas int `json:"replicas,omitempty"`
	// Scheduler is the admission policy: fifo (default), priority, or sjf.
	Scheduler string `json:"scheduler,omitempty"`
	// MaxBatch caps the continuous batch per replica (default 8).
	MaxBatch int `json:"max_batch,omitempty"`
	// Arrivals parameterizes the synthetic workload; ignored when Workload
	// is set explicitly.
	Arrivals ArrivalConfig `json:"arrivals"`
	// Workload, when non-nil, is the explicit request trace (see
	// LoadWorkload). Requests must be sorted by arrival; IDs are
	// renumbered 0..n-1.
	Workload []Request `json:"workload,omitempty"`
}

// reqStat tracks one request's observed lifecycle.
type reqStat struct {
	replica    int
	arrival    sim.VTime
	firstToken sim.VTime
	done       sim.VTime
	finished   bool
}

// Cluster is a running serving simulation: per-GPU replicas fed by one
// arrival source through the host link.
type Cluster struct {
	eng  sim.Engine
	net  network.Network
	cfg  Config
	pol  Policy
	cost *costModel
	host network.NodeID
	reps []*replica
	obs  task.Observers

	// Stretch optionally scales step durations per replica GPU, sampled at
	// step start (fault injection's straggler model). Nil means factor 1.
	Stretch func(gpu int, at sim.VTime) float64

	// Spans, when set, receives one request-lifetime span per completed
	// request on a per-replica "requests.gpuN" track.
	Spans *spantrace.Recorder

	// Phases, when set, receives one compute record per replica step, on
	// the replica's GPU index: the run's phase record store.
	Phases *timeline.Timeline

	reqs      []Request
	stats     []reqStat
	completed int
	generated int
}

// New builds a serving cluster over an engine, a network, and a GPU spec.
// The workload is materialized here (generated from cfg.Arrivals unless
// cfg.Workload is set) and validated: every request must fit a replica's KV
// budget on its own, or the run could stall.
func New(eng sim.Engine, net network.Network, topo *network.Topology,
	spec *gpu.Spec, cfg Config) (*Cluster, error) {
	gpus := topo.GPUs()
	if cfg.Replicas == 0 {
		cfg.Replicas = len(gpus)
	}
	if cfg.Replicas < 1 || cfg.Replicas > len(gpus) {
		return nil, fmt.Errorf("serving: %d replicas for %d GPUs",
			cfg.Replicas, len(gpus))
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("serving: max batch %d", cfg.MaxBatch)
	}
	pol, err := PolicyByName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	cfg.Scheduler = pol.Name()
	cost, err := newCostModel(cfg.Model, spec)
	if err != nil {
		return nil, err
	}
	budget := cost.kvBudget()
	if budget <= 0 {
		return nil, fmt.Errorf(
			"serving: %s weights (%.1f GiB) exceed %s memory",
			cfg.Model, cost.weightBytes/(1<<30), spec.Name)
	}

	reqs := cfg.Workload
	if reqs == nil {
		reqs, err = GenerateWorkload(cfg.Arrivals)
		if err != nil {
			return nil, err
		}
	} else {
		reqs = append([]Request(nil), reqs...)
	}
	var prev sim.VTime
	for i := range reqs {
		r := &reqs[i]
		r.ID = i
		if r.Arrival.Before(prev) {
			return nil, fmt.Errorf(
				"serving: request %d arrives at %v before its predecessor",
				i, r.Arrival)
		}
		prev = r.Arrival
		if r.PromptTokens < 1 || r.OutputTokens < 1 {
			return nil, fmt.Errorf(
				"serving: request %d needs positive token counts", i)
		}
		need := float64(r.PromptTokens+r.OutputTokens) * cost.kvPerToken
		if need > budget {
			return nil, fmt.Errorf(
				"serving: request %d KV need %.0f bytes exceeds budget %.0f",
				i, need, budget)
		}
	}

	c := &Cluster{
		eng: eng, net: net, cfg: cfg, pol: pol, cost: cost,
		host:  topo.Host(),
		reqs:  reqs,
		stats: make([]reqStat, len(reqs)),
	}
	for i := 0; i < cfg.Replicas; i++ {
		c.reps = append(c.reps, &replica{
			c: c, idx: i, node: gpus[i], kvBudget: budget,
		})
	}
	return c, nil
}

// Observe registers a task observer for the synthesized per-step compute
// tasks; call before Start. Observers record only — registering any number
// of them leaves the event schedule (and the replay digest) unchanged.
func (c *Cluster) Observe(o task.Observer) {
	c.obs = append(c.obs, o)
}

// Start arms the arrival source. Each arrival routes to the least-loaded
// replica (fewest outstanding tokens, ties to the lowest index) and the
// prompt ships host→GPU before the request can be queued.
func (c *Cluster) Start() {
	i := 0
	sim.Feed(c.eng, func() (sim.VTime, func(sim.VTime) error, bool) {
		if i >= len(c.reqs) {
			return 0, nil, false
		}
		id := i
		i++
		return c.reqs[id].Arrival, func(now sim.VTime) error {
			return c.arrive(id, now)
		}, true
	})
}

// arrive routes one request and ships its prompt to the chosen replica.
func (c *Cluster) arrive(id int, now sim.VTime) error {
	req := &c.reqs[id]
	best := c.reps[0]
	for _, r := range c.reps[1:] {
		if r.outstandingTokens < best.outstandingTokens {
			best = r
		}
	}
	best.outstandingTokens += req.PromptTokens + req.OutputTokens
	c.stats[id].replica = best.idx
	c.stats[id].arrival = now
	bytes := float64(req.PromptTokens) * tokenWireBytes
	c.net.Send(c.host, best.node, bytes, func(end sim.VTime) {
		// Admission errors surface through the engine: a failed invariant
		// aborts the run rather than silently dropping the request.
		if err := best.enqueue(id, end); err != nil {
			c.fail(err)
		}
	})
	return nil
}

// fail schedules an immediately failing event so invariant violations in
// network callbacks (which cannot return errors) stop the engine.
func (c *Cluster) fail(err error) {
	sim.ScheduleFunc(c.eng, c.eng.CurrentTime(),
		func(sim.VTime) error { return err })
}

// finish marks a request complete once its response lands on the host.
func (c *Cluster) finish(id int, now sim.VTime) {
	st := &c.stats[id]
	if st.finished {
		c.fail(fmt.Errorf("serving: request %d finished twice", id))
		return
	}
	st.finished = true
	st.done = now
	c.completed++
	if c.Spans != nil {
		req := &c.reqs[id]
		c.Spans.AddSpan(
			fmt.Sprintf("requests.gpu%d", st.replica),
			fmt.Sprintf("req%d-p%d-o%d", id, req.PromptTokens,
				req.OutputTokens),
			spantrace.Request, st.arrival, now)
	}
}

// Metrics summarizes the finished run. It errors if any request never
// completed (the engine drained without serving everything — a scheduling
// bug, since admission reserves full KV footprints).
func (c *Cluster) Metrics() (*Metrics, error) {
	m := &Metrics{
		Scheduler: c.cfg.Scheduler,
		Replicas:  len(c.reps),
		MaxBatch:  c.cfg.MaxBatch,
		Requests:  len(c.reqs),
		Completed: c.completed,
	}
	if c.completed != len(c.reqs) {
		return nil, fmt.Errorf("serving: %d of %d requests incomplete",
			len(c.reqs)-c.completed, len(c.reqs))
	}
	if len(c.reqs) == 0 {
		return m, nil
	}

	first := c.stats[0].arrival
	var last sim.VTime
	lat := make([]float64, 0, len(c.reqs))
	ttft := make([]float64, 0, len(c.reqs))
	m.PerRequest = make([]RequestMetric, len(c.reqs))
	for i := range c.reqs {
		req, st := &c.reqs[i], &c.stats[i]
		if st.done.After(last) {
			last = st.done
		}
		lat = append(lat, (st.done - st.arrival).Seconds())
		ttft = append(ttft, (st.firstToken - st.arrival).Seconds())
		m.PerRequest[i] = RequestMetric{
			ID:            i,
			Replica:       st.replica,
			ArrivalSec:    st.arrival.Seconds(),
			FirstTokenSec: st.firstToken.Seconds(),
			DoneSec:       st.done.Seconds(),
			PromptTokens:  req.PromptTokens,
			OutputTokens:  req.OutputTokens,
		}
	}
	m.MakespanSec = (last - first).Seconds()
	span := (c.reqs[len(c.reqs)-1].Arrival - c.reqs[0].Arrival).Seconds()
	if span > 0 {
		m.OfferedRPS = float64(len(c.reqs)-1) / span
	}
	if m.MakespanSec > 0 {
		m.ThroughputRPS = float64(c.completed) / m.MakespanSec
		m.TokensPerSec = float64(c.generated) / m.MakespanSec
	}
	m.Latency = summarize(lat)
	m.TTFT = summarize(ttft)
	m.GeneratedTokens = c.generated

	for _, r := range c.reps {
		rs := ReplicaStat{
			Replica:     r.idx,
			Served:      r.served,
			Steps:       r.steps,
			BusySec:     r.busySec,
			KVPeakBytes: r.kvPeak,
			QueuePeak:   r.queuePeak,
		}
		if r.steps > 0 {
			rs.MeanBatch = float64(r.batchOccupancy) / float64(r.steps)
		}
		if m.MakespanSec > 0 {
			rs.Utilization = r.busySec / m.MakespanSec
		}
		m.PerReplica = append(m.PerReplica, rs)
		m.Steps += r.steps
	}
	var occ int
	for _, r := range c.reps {
		occ += r.batchOccupancy
	}
	if m.Steps > 0 {
		m.MeanBatch = float64(occ) / float64(m.Steps)
		m.BatchingEfficiency = m.MeanBatch / float64(m.MaxBatch)
	}
	for _, r := range c.reps {
		if r.kvPeak > m.KVPeakBytes {
			m.KVPeakBytes = r.kvPeak
		}
	}
	return m, nil
}
