package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/surv"
	"repro/internal/topology"
)

const (
	hourSec = 3600.0
	daySec  = 24 * hourSec
	yearSec = 365 * daySec
)

// survParams sizes surv-churn-98k: repairable switch and link churn
// replayed at connectivity level.
type survParams struct {
	Topo            abccc
	HorizonDays     float64
	Trials, Workers int
	// Per-class mean lifetime and repair time.
	SwitchMTBFYears, SwitchMTTRHours float64
	LinkMTBFYears, LinkMTTRHours     float64
}

func (p survParams) trialConfig(seed int64) surv.TrialConfig {
	return surv.TrialConfig{
		Classes: []failure.ClassRate{
			{Kind: failure.Switches, MTBFSec: p.SwitchMTBFYears * yearSec, MTTRSec: p.SwitchMTTRHours * hourSec},
			{Kind: failure.Links, MTBFSec: p.LinkMTBFYears * yearSec, MTTRSec: p.LinkMTTRHours * hourSec},
		},
		Churn:      true,
		HorizonSec: p.HorizonDays * daySec,
		Trials:     p.Trials,
		Seed:       seed,
		Workers:    p.Workers,
	}
}

// survChurn is one child's run of surv-churn-98k.
type survChurn struct {
	p    survParams
	t    *core.ABCCC
	cfg  surv.TrialConfig
	res  *surv.Stats
	plan []*failure.FaultPlan // regenerated trial plans, for checks and probes
}

func newSurvChurn(tiny bool) instance {
	p := survParams{Topo: abccc{32, 2, 2}, HorizonDays: 5, Trials: 2, Workers: 2,
		SwitchMTBFYears: 5, SwitchMTTRHours: 24, LinkMTBFYears: 10, LinkMTTRHours: 1}
	if tiny {
		// A small network needs a long horizon to see any events.
		p.Topo, p.HorizonDays = abccc{4, 1, 2}, 365
	}
	return &survChurn{p: p}
}

func (w *survChurn) params() any { return w.p }

// setup only builds the topology: RunTrials draws trial i's fault plan from
// its base seed plus i itself. The base seed is the input seed times the
// trial count, so consecutive input seeds (the children of a run) replay
// disjoint sets of plans.
func (w *survChurn) setup(seed int64, tr *tracer) error {
	t, err := w.p.Topo.build(tr)
	if err != nil {
		return err
	}
	w.t, w.cfg, w.plan = t, w.p.trialConfig(seed*int64(w.p.Trials)), nil
	return nil
}

func (w *survChurn) run(tr *tracer) (int64, error) {
	err := tr.do("surv.RunTrials", func() (err error) {
		w.res, err = surv.RunTrials(w.t.Network(), w.cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	var events int64
	for _, r := range w.res.Trials {
		events += int64(r.Events)
	}
	return events, nil
}

// survTrial is the part of a trial's result the record keeps: the full
// result holds +Inf times, which JSON cannot carry.
type survTrial struct {
	Events                                   int
	Partitioned                              bool
	FirstPartitionSec                        float64 // -1 when never partitioned
	MinReachableFrac                         float64
	FinalReachableFrac                       float64
	FinalLargestFrac                         float64
	FinalAliveServers, FinalServerComponents int64
}

func (w *survChurn) stats() any {
	out := make([]survTrial, len(w.res.Trials))
	for i, r := range w.res.Trials {
		first := r.FirstPartitionSec
		if math.IsInf(first, 1) {
			first = -1
		}
		last := r.Curve[len(r.Curve)-1]
		out[i] = survTrial{r.Events, r.Partitioned, first, r.MinReachableFrac,
			r.FinalReachableFrac, r.FinalLargestFrac, last.AliveServers, int64(last.ServerComps)}
	}
	return out
}

// plans regenerates every trial's fault plan exactly as RunTrials draws it.
func (w *survChurn) plans(tr *tracer) ([]*failure.FaultPlan, error) {
	if w.plan != nil {
		return w.plan, nil
	}
	plans := make([]*failure.FaultPlan, w.cfg.Trials)
	for i := range plans {
		rng := rand.New(rand.NewSource(w.cfg.Seed + int64(i)))
		err := tr.do("failure.Schedule", func() (err error) {
			plans[i], err = failure.Schedule(w.t.Network(), failure.ScheduleConfig{
				HorizonSec: w.cfg.HorizonSec,
				Classes:    w.cfg.Classes,
			}, rng)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("regenerate trial %d plan: %w", i, err)
		}
	}
	w.plan = plans
	return plans, nil
}

func (w *survChurn) checks() []check {
	plans, err := w.plans(nil)
	if err != nil {
		return []check{expect("surv.plans", false, "%v", err)}
	}
	return survChecks(w.t.Network(), plans, w.cfg.HorizonSec, w.res)
}

// survChecks holds for any seed: each trial replayed the events of its
// plan inside the horizon, and its end state matches a from-scratch BFS
// over the network with those events applied.
func survChecks(net *topology.Network, plans []*failure.FaultPlan, horizonSec float64, res *surv.Stats) []check {
	if len(plans) != len(res.Trials) {
		return []check{expect("surv.trials", false, "%d plans vs %d trials", len(plans), len(res.Trials))}
	}
	var out []check
	for i, plan := range plans {
		r := res.Trials[i]
		view := graph.NewView(net.Graph())
		events := 0
		for _, e := range plan.Events {
			if e.TimeSec >= horizonSec {
				break
			}
			e.Apply(view)
			events++
		}
		largest, pairs := serverComponents(net, view)
		total := float64(net.NumServers())
		wantLargest := float64(largest) / total
		wantReach := float64(pairs) / (total * (total - 1) / 2)
		out = append(out,
			expect(fmt.Sprintf("surv.trial%d_events", i), r.Events == events,
				"replayed %d events, plan has %d inside the horizon", r.Events, events),
			expect(fmt.Sprintf("surv.trial%d_largest", i), r.FinalLargestFrac == wantLargest,
				"final largest fraction %v, BFS gives %v", r.FinalLargestFrac, wantLargest),
			expect(fmt.Sprintf("surv.trial%d_reachable", i), r.FinalReachableFrac == wantReach,
				"final reachable fraction %v, BFS gives %v", r.FinalReachableFrac, wantReach))
	}
	return out
}

// serverComponents runs BFS from every alive server not yet reached and
// returns the largest component's server count and the reachable server
// pairs.
func serverComponents(net *topology.Network, view *graph.View) (largest, pairs int64) {
	g := net.Graph()
	seen := make([]bool, g.NumNodes())
	scratch := graph.NewBFSScratch(g.NumNodes())
	for _, s := range net.Servers() {
		if seen[s] || !view.NodeUp(s) {
			continue
		}
		r := g.BFSScratched(s, view, scratch)
		var size int64
		for _, v := range net.Servers() {
			if r.Dist[v] != graph.Unreachable {
				seen[v] = true
				size++
			}
		}
		largest = max(largest, size)
		pairs += size * (size - 1) / 2
	}
	return largest, pairs
}

func (w *survChurn) probe(tr *tracer) (map[string]float64, error) {
	plans, err := w.plans(tr)
	if err != nil {
		return nil, err
	}
	net := w.t.Network()
	weight := make([]int64, net.Graph().NumNodes())
	for _, s := range net.Servers() {
		weight[s] = 1
	}
	var replay []float64
	var fails, splits int
	for _, plan := range plans {
		id := tr.begin("surv.replay")
		newID := tr.begin("graph.NewDynConn")
		d := graph.NewDynConn(net.Graph(), weight)
		tr.end(newID, 0)
		for _, e := range plan.Events {
			if e.TimeSec >= w.cfg.HorizonSec {
				break
			}
			before := d.Components()
			applyTraced(d, e, tr)
			if !e.Up {
				fails++
				if d.Components() > before {
					splits++
				}
			}
		}
		tr.end(id, 0)
		replay = append(replay, tr.spans[id].dur())
	}

	m := map[string]float64{}
	m["core.build_s"], m["core.alloc_mb"] = tr.medianDur("core.Build"), tr.medianAllocMB("core.Build")
	m["failure.plan_s"], m["failure.alloc_mb"] = tr.medianDur("failure.Schedule"), tr.medianAllocMB("failure.Schedule")
	runS := tr.medianDur("surv.RunTrials")
	m["surv.run_s"], m["surv.alloc_mb"] = runS, tr.medianAllocMB("surv.RunTrials")
	var events int
	for _, r := range w.res.Trials {
		events += r.Events
	}
	if events > 0 {
		m["surv.us_per_event"] = runS * 1e6 / float64(events)
	}
	var sum, worst float64
	for _, d := range replay {
		sum += d
		worst = max(worst, d)
	}
	if sum > 0 {
		m["surv.trial_imbalance"] = worst * float64(len(replay)) / sum
	}
	m["graph.init_s"] = tr.medianDur("graph.NewDynConn")
	failS, _, failN := tr.total("graph.Fail")
	repairS, _, repairN := tr.total("graph.Repair")
	if failN > 0 {
		m["graph.fail_us"] = failS * 1e6 / float64(failN)
		m["graph.split_frac"] = float64(splits) / float64(fails)
	}
	if repairN > 0 {
		m["graph.repair_us"] = repairS * 1e6 / float64(repairN)
	}
	_, graphAlloc, _ := tr.total("graph.")
	m["graph.alloc_mb"] = float64(graphAlloc) / 1e6 / float64(len(plans))
	return m, nil
}

// applyTraced applies one plan event to d inside a span named after the
// DynConn call it makes.
func applyTraced(d *graph.DynConn, e failure.FaultEvent, tr *tracer) {
	var name string
	var call func(int)
	switch {
	case e.Kind == failure.Links && e.Up:
		name, call = "graph.RepairEdge", d.RepairEdge
	case e.Kind == failure.Links:
		name, call = "graph.FailEdge", d.FailEdge
	case e.Up:
		name, call = "graph.RepairNode", d.RepairNode
	default:
		name, call = "graph.FailNode", d.FailNode
	}
	id := tr.begin(name)
	call(e.Index)
	tr.end(id, 0)
}
