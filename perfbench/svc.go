package main

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/svc"
)

// svcParams sizes svc-storm-1k5: the built-in 3-tier graph under
// unbudgeted retries while a share of the switches is down.
type svcParams struct {
	Topo        abccc
	Graph       string
	Policy      string
	Requests    int
	RatePerSec  float64
	DeadlineSec float64
	// PlacementSeed places the replicas (and seeds replica choice) the way
	// the F30 experiment does; the run seed draws the outages. Placement
	// decides which replicas an outage cuts off, so a per-seed placement
	// would add a second seed-to-seed swing to the storm's size.
	PlacementSeed int64
	// OutageFrac of the switches fail at OutageAtSec. Every OutageEpochSec
	// they recover and a fresh sample of the same size fails, until the last
	// request's deadline. One outage sample decides how many replicas it
	// cuts off, so a single sample makes the storm's size swing threefold
	// from seed to seed; redrawing it averages that out within one run.
	OutageFrac, OutageAtSec, OutageEpochSec float64
}

// svcStorm is one child's run of svc-storm-1k5.
type svcStorm struct {
	p       svcParams
	t       *core.ABCCC
	g       *svc.Graph
	cfg     svc.Config
	res     *svc.Result
	linkReg *obs.Registry
}

func newSvcStorm(tiny bool) instance {
	p := svcParams{Topo: abccc{8, 2, 2}, Graph: "3tier", Policy: "none", Requests: 1000,
		RatePerSec: 4000, DeadlineSec: 60e-3, PlacementSeed: 30,
		OutageFrac: 0.08, OutageAtSec: 2e-3, OutageEpochSec: 20e-3}
	if tiny {
		p.Topo, p.Requests = abccc{4, 1, 2}, 40
	}
	return &svcStorm{p: p}
}

func (w *svcStorm) params() any { return w.p }

func (w *svcStorm) setup(seed int64, tr *tracer) error {
	t, err := w.p.Topo.build(tr)
	if err != nil {
		return err
	}
	plan, err := w.outages(t, seed, tr)
	if err != nil {
		return err
	}
	g, err := svc.Builtin(w.p.Graph)
	if err != nil {
		return err
	}
	pol, err := svc.ParsePolicy(w.p.Policy)
	if err != nil {
		return err
	}
	w.t, w.g = t, g
	w.cfg = svc.Config{
		Policy:      pol,
		DeadlineSec: w.p.DeadlineSec,
		RatePerSec:  w.p.RatePerSec,
		Requests:    w.p.Requests,
		Seed:        w.p.PlacementSeed,
		Transport:   packetsim.DefaultTransport(),
	}
	w.cfg.Transport.Faults = plan
	return nil
}

// outages draws the rolling switch outage: one failure.Burst per epoch.
func (w *svcStorm) outages(t *core.ABCCC, seed int64, tr *tracer) (*failure.FaultPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	count := int(math.Round(w.p.OutageFrac * float64(t.Network().NumSwitches())))
	end := float64(w.p.Requests)/w.p.RatePerSec + w.p.DeadlineSec
	plan := &failure.FaultPlan{}
	epochs := 0
	id := tr.begin("failure.Burst")
	for at := w.p.OutageAtSec; at < end; at += w.p.OutageEpochSec {
		b, err := failure.Burst(t.Network(), failure.Switches, count, at, at+w.p.OutageEpochSec, rng)
		if err != nil {
			tr.end(id, epochs)
			return nil, err
		}
		plan.Events = append(plan.Events, b.Events...)
		epochs++
	}
	// Stable: a switch repaired and failed again at one instant stays down.
	plan.Sort()
	tr.end(id, epochs)
	return plan, nil
}

func (w *svcStorm) run(tr *tracer) (int64, error) {
	if tr != nil {
		// The service counters are armed, though the result carries the
		// same totals, so that obs.overhead_frac prices every counter the
		// layers export.
		w.linkReg = obs.NewRegistry()
		w.cfg.Metrics, w.cfg.Transport.Link.Metrics = obs.NewRegistry(), w.linkReg
	}
	err := tr.do("svc.Run", func() (err error) {
		w.res, err = svc.Run(w.t, w.g, w.cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int64(w.res.LegsStarted), nil
}

func (w *svcStorm) stats() any {
	return struct {
		FaultEvents int
		*svc.Result
	}{w.cfg.Transport.Faults.Len(), w.res}
}

func (w *svcStorm) checks() []check {
	rep, err := svc.AnalyzeUnbudgeted(w.g, w.cfg.DeadlineSec)
	if err != nil {
		return []check{expect("svc.analyze", false, "%v", err)}
	}
	return svcChecks(w.res, rep.TotalAttemptsBound)
}

// svcChecks holds for any seed: requests and legs are conserved, and no
// request fans out into more legs than the static analyzer allows.
func svcChecks(res *svc.Result, bound int64) []check {
	return []check{
		expect("svc.requests_accounted", res.Requests == res.Completed+res.DeadlineExceeded+res.Aborted,
			"requests %d vs completed %d + deadline %d + aborted %d",
			res.Requests, res.Completed, res.DeadlineExceeded, res.Aborted),
		expect("svc.legs_accounted", res.LegsStarted == res.LegsSucceeded+res.LegsTimedOut+res.LegsCancelled,
			"legs %d vs succeeded %d + timed out %d + cancelled %d",
			res.LegsStarted, res.LegsSucceeded, res.LegsTimedOut, res.LegsCancelled),
		expect("svc.legs_within_bound", int64(res.MaxRequestLegs) <= bound,
			"worst request %d legs, analyzer bound %d", res.MaxRequestLegs, bound),
	}
}

func (w *svcStorm) probe(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	m["core.build_s"], m["core.alloc_mb"] = tr.medianDur("core.Build"), tr.medianAllocMB("core.Build")
	m["failure.plan_s"], m["failure.alloc_mb"] = tr.medianDur("failure.Burst"), tr.medianAllocMB("failure.Burst")

	res := w.res
	runS, alloc := tr.medianDur("svc.Run"), tr.medianAllocMB("svc.Run")
	m["svc.run_s"], m["svc.alloc_mb"] = runS, alloc
	if res.LegsStarted > 0 {
		legs := float64(res.LegsStarted)
		m["svc.us_per_leg"] = runS * 1e6 / legs
		m["svc.alloc_kb_per_leg"] = alloc * 1e3 / legs
		m["svc.useful_leg_frac"] = float64(res.LegsSucceeded) / legs
	}
	if res.Requests > 0 {
		m["svc.legs_per_request"] = float64(res.LegsStarted) / float64(res.Requests)
	}
	m["svc.wasted_responses"] = float64(res.WastedResponses)
	if sent := w.linkReg.Counter(packetsim.MetricDataSent).Value(); sent > 0 {
		m["packetsim.retransmit_frac"] = float64(res.Transport.Retransmits) / float64(sent)
	}
	return m, nil
}
