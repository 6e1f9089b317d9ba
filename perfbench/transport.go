package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/flowsim"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/traffic"
)

// transportParams sizes transport-churn-12k: a permutation of equal flows
// on the sharded transport engine with multipath failover, under Poisson
// switch churn.
type transportParams struct {
	Topo             abccc
	FlowKiB          int
	Shards, Workers  int
	MTBFSec, MTTRSec float64
	HorizonSec       float64
	// WalkPairs is how many flows the traced run walks with core.NextHop.
	WalkPairs int
}

// transportChurn is one child's run of transport-churn-12k.
type transportChurn struct {
	p     transportParams
	t     *core.ABCCC
	flows []traffic.Flow
	plan  *failure.FaultPlan
	cfg   packetsim.TransportConfig
	res   packetsim.TransportResult
	reg   *obs.Registry
	prof  *obs.ShardProfile
}

func newTransportChurn(tiny bool) instance {
	p := transportParams{Topo: abccc{16, 2, 2}, FlowKiB: 64, Shards: 8, Workers: 2,
		MTBFSec: 2e-3, MTTRSec: 5e-3, HorizonSec: 50e-3, WalkPairs: 4096}
	if tiny {
		p.Topo, p.FlowKiB, p.Shards, p.WalkPairs = abccc{4, 1, 2}, 16, 4, 16
	}
	return &transportChurn{p: p}
}

func (w *transportChurn) params() any { return w.p }

func (w *transportChurn) setup(seed int64, tr *tracer) error {
	t, err := w.p.Topo.build(tr)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	id := tr.begin("traffic.Permutation")
	flows := traffic.Permutation(t.Network().NumServers(), rng)
	for i := range flows {
		flows[i].Bytes = int64(w.p.FlowKiB) << 10
	}
	tr.end(id, 0)
	var plan *failure.FaultPlan
	err = tr.do("failure.Schedule", func() (err error) {
		plan, err = failure.Schedule(t.Network(), failure.ScheduleConfig{
			Kinds:      []failure.Kind{failure.Switches},
			MTBFSec:    w.p.MTBFSec,
			MTTRSec:    w.p.MTTRSec,
			HorizonSec: w.p.HorizonSec,
		}, rng)
		return err
	})
	if err != nil {
		return err
	}
	w.t, w.flows, w.plan = t, flows, plan
	w.cfg = packetsim.DefaultTransport()
	w.cfg.Faults = plan
	w.cfg.Multipath = true
	return nil
}

func (w *transportChurn) run(tr *tracer) (int64, error) {
	opts := packetsim.ShardOpts{Shards: w.p.Shards, Workers: w.p.Workers}
	if tr != nil {
		w.reg, w.prof = obs.NewRegistry(), obs.NewShardProfile()
		w.cfg.Link.Metrics, opts.Profile = w.reg, w.prof
	}
	err := tr.do("packetsim.RunTransportSharded", func() (err error) {
		w.res, err = packetsim.RunTransportSharded(w.t, w.flows, w.cfg, opts)
		return err
	})
	// Every flow has the same size, so a completed flow delivered exactly
	// this many distinct data packets.
	perFlow := (int64(w.p.FlowKiB)<<10 + int64(w.cfg.Link.MTU) - 1) / int64(w.cfg.Link.MTU)
	return int64(w.res.CompletedFlows) * perFlow, err
}

func (w *transportChurn) stats() any {
	return struct {
		Flows, FaultEvents int
		packetsim.TransportResult
	}{len(w.flows), w.plan.Len(), w.res}
}

func (w *transportChurn) checks() []check {
	return transportChecks(len(w.flows), w.res)
}

// transportChecks holds for any seed: every flow either completes or gives
// up after its timeout budget.
func transportChecks(flows int, res packetsim.TransportResult) []check {
	return []check{
		expect("transport.flows_accounted", res.CompletedFlows+res.FailedFlows == flows,
			"completed %d + failed %d vs %d flows", res.CompletedFlows, res.FailedFlows, flows),
	}
}

func (w *transportChurn) probe(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	err := tr.do("flowsim.RoutePaths", func() error {
		_, err := flowsim.RoutePaths(w.t, w.flows)
		return err
	})
	if err != nil {
		return nil, err
	}
	servers := w.t.Network().Servers()
	id := tr.begin("topology.ParallelPaths")
	for _, f := range w.flows {
		w.t.ParallelPaths(servers[f.Src], servers[f.Dst])
	}
	tr.end(id, len(w.flows))

	pairs := make([][2]int, 0, w.p.WalkPairs)
	for _, f := range w.flows[:min(w.p.WalkPairs, len(w.flows))] {
		pairs = append(pairs, [2]int{f.Src, f.Dst})
	}
	if m["core.nexthop_ns"], err = nextHopWalks(w.t, pairs, tr); err != nil {
		return nil, err
	}

	m["core.build_s"], m["core.alloc_mb"] = tr.medianDur("core.Build"), tr.medianAllocMB("core.Build")
	m["traffic.gen_s"], m["traffic.alloc_mb"] = tr.medianDur("traffic.Permutation"), tr.medianAllocMB("traffic.Permutation")
	m["failure.plan_s"], m["failure.alloc_mb"] = tr.medianDur("failure.Schedule"), tr.medianAllocMB("failure.Schedule")
	m["flowsim.route_s"], m["flowsim.alloc_mb"] = tr.medianDur("flowsim.RoutePaths"), tr.medianAllocMB("flowsim.RoutePaths")
	m["topology.paths_s"], m["topology.alloc_mb"] = tr.medianDur("topology.ParallelPaths"), tr.medianAllocMB("topology.ParallelPaths")

	run := "packetsim.RunTransportSharded"
	m["packetsim.run_s"], m["packetsim.alloc_mb"] = tr.medianDur(run), tr.medianAllocMB(run)
	for k, v := range shardProfileLayers(w.prof, m["packetsim.run_s"]) {
		m[k] = v
	}
	if sent := w.reg.Counter(packetsim.MetricDataSent).Value(); sent > 0 {
		m["packetsim.retransmit_frac"] = float64(w.res.Retransmits) / float64(sent)
	}
	return m, nil
}

// shardProfileLayers turns a sharded run's profile into the packetsim.*
// per-layer metrics; runS is the engine call's host time.
func shardProfileLayers(prof *obs.ShardProfile, runS float64) map[string]float64 {
	m := map[string]float64{}
	var busy, wait, events, out int64
	for _, s := range prof.Summary() {
		busy += s.BusyNs
		wait += s.WaitNs
		events += s.Events
		out += s.HandoffOut
	}
	windows := map[int64]bool{}
	for _, w := range prof.Windows() {
		windows[w.Window] = true
	}
	m["packetsim.busy_s"] = float64(busy) / 1e9
	m["packetsim.wait_s"] = float64(wait) / 1e9
	if busy+wait > 0 {
		m["packetsim.wait_frac"] = float64(wait) / float64(busy+wait)
	}
	m["packetsim.events"] = float64(events)
	m["packetsim.windows"] = float64(len(windows))
	if events > 0 {
		m["packetsim.ns_per_event"] = runS * 1e9 / float64(events)
		m["packetsim.handoff_frac"] = float64(out) / float64(events)
	}
	m["packetsim.imbalance"] = prof.ImbalanceIndex()
	return m
}
