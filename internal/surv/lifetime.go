// Package surv is the survivability suite: long-horizon lifetime simulation
// of data-center networks under component churn and wear-out, at
// connectivity level rather than packet level.
//
// A lifetime replay feeds a seeded failure.FaultPlan — Poisson churn from
// failure.Schedule or a no-repair wear-out schedule from failure.Wearout —
// through graph.DynConn, which re-evaluates the survivability metrics
// incrementally at each fault or repair event: the fraction of reachable
// server pairs, the largest server component, the partition predicate, and
// (sampled) max-flow capacity retention. Because an event costs roughly a
// small neighborhood BFS instead of a full traversal, a multi-year horizon
// over a 100k-server network replays in seconds, which is what makes
// MTTF-to-first-partition estimation by repeated seeded trials (see
// RunTrials) tractable — per Couto et al., the discriminating robustness
// questions for DCN topologies live at this timescale, not at packet RTTs.
package surv

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Series track names written by Lifetime. Fractions are scaled to parts per
// million so they survive the integer series cells; each track receives
// exactly one update per sample instant, so a window's sum, max, and
// count==1 all read back as the gauge value.
const (
	// TrackReachable is the reachable server-pair fraction, in ppm.
	TrackReachable = "surv_reachable_ppm"
	// TrackLargest is the largest-component server fraction, in ppm.
	TrackLargest = "surv_largest_ppm"
	// TrackAliveServers is the alive-server count.
	TrackAliveServers = "surv_alive_servers"
	// TrackComponents is the number of components containing servers.
	TrackComponents = "surv_server_components"
	// TrackEvents counts fault/repair events (one update per event, so a
	// window's count and sum are the events landing in it).
	TrackEvents = "surv_events"
)

// Config parameterizes one lifetime replay.
type Config struct {
	// HorizonSec is the simulated horizon. Required positive; bounded by
	// ~292 simulated years (the nanosecond int64 range) when Series is set.
	HorizonSec float64
	// SampleEverySec is the survivability-curve sampling interval.
	// Defaults to HorizonSec/64.
	SampleEverySec float64
	// Thresholds lists reachable-pair fractions in (0, 1] whose first
	// crossing times (reachability dropping strictly below) are recorded.
	Thresholds []float64
	// StopAtPartition ends the replay at the first event after which the
	// alive servers no longer form a single component. This is the fast
	// path for MTTF-to-first-partition estimation: on a well-connected
	// network almost every event then costs only a neighborhood probe, and
	// the one splitting event pays about k times the smallest fragment it
	// splits off (k: the failure's surviving attachment points), not a full
	// traversal.
	StopAtPartition bool
	// Series, when non-nil, receives the surv_* tracks at every curve
	// sample (see the Track* constants).
	Series *obs.Series
	// CapacityPairs, when positive, samples that many random server pairs
	// and measures their summed vertex-disjoint-path capacity (relative to
	// the pristine network) at every capacity checkpoint. Expensive: each
	// checkpoint runs a max-flow per pair; meant for analysis-scale
	// networks, not the 100k-server fast path.
	CapacityPairs int
	// CapacityEverySec is the capacity checkpoint interval; defaults to
	// HorizonSec/8.
	CapacityEverySec float64
	// CapacitySeed seeds the capacity pair sample.
	CapacitySeed int64
}

func (cfg Config) validate() error {
	if !(cfg.HorizonSec > 0) || math.IsInf(cfg.HorizonSec, 1) {
		return fmt.Errorf("surv: horizon %v must be positive and finite", cfg.HorizonSec)
	}
	if cfg.Series != nil && cfg.HorizonSec > float64(math.MaxInt64)/1e9 {
		return fmt.Errorf("surv: horizon %v s overflows the nanosecond series axis", cfg.HorizonSec)
	}
	if cfg.SampleEverySec < 0 {
		return fmt.Errorf("surv: negative sample interval %v", cfg.SampleEverySec)
	}
	for _, th := range cfg.Thresholds {
		if !(th > 0 && th <= 1) {
			return fmt.Errorf("surv: threshold %v outside (0, 1]", th)
		}
	}
	if cfg.CapacityPairs < 0 {
		return fmt.Errorf("surv: negative capacity pair count %d", cfg.CapacityPairs)
	}
	return nil
}

// Sample is one point of the survivability curve. Samples are taken on the
// SampleEverySec grid plus one final point at the replay's stop time; values
// describe the state at that instant (grid samples precede any event at the
// same timestamp).
type Sample struct {
	TimeSec       float64
	ReachableFrac float64 // reachable server pairs / pristine C(S,2)
	LargestFrac   float64 // largest component's servers / total servers
	AliveServers  int64
	ServerComps   int // components containing at least one server
	Events        int // cumulative events applied
}

// ThresholdCross records when reachability first dropped strictly below
// Frac (+Inf if it never did).
type ThresholdCross struct {
	Frac    float64
	TimeSec float64
}

// CapacitySample is one capacity-retention checkpoint: the sampled pairs'
// summed vertex-disjoint-path count as a fraction of its pristine value.
type CapacitySample struct {
	TimeSec   float64
	Retention float64
}

// Result is everything one lifetime replay produced.
type Result struct {
	HorizonSec float64
	// StoppedSec is where the replay ended: the horizon, or the first
	// partition when Config.StopAtPartition is set.
	StoppedSec float64
	// Events is the number of fault/repair events applied.
	Events int
	// Partitioned reports whether the alive servers ever split into more
	// than one component; FirstPartitionSec is when (+Inf if never).
	Partitioned       bool
	FirstPartitionSec float64
	// MinReachableFrac is the lowest reachable-pair fraction seen;
	// FinalReachableFrac and FinalLargestFrac describe the end state.
	MinReachableFrac   float64
	FinalReachableFrac float64
	FinalLargestFrac   float64
	// Below holds the first crossing time per configured threshold, in
	// Config.Thresholds order.
	Below []ThresholdCross
	// Curve is the survivability-vs-time curve.
	Curve []Sample
	// Capacity holds the capacity-retention checkpoints (nil unless
	// Config.CapacityPairs was positive).
	Capacity []CapacitySample
}

// applyEvent transitions one fault-plan event in the tracker.
func applyEvent(d *graph.DynConn, e failure.FaultEvent) {
	if e.Kind == failure.Links {
		if e.Up {
			d.RepairEdge(e.Index)
		} else {
			d.FailEdge(e.Index)
		}
		return
	}
	if e.Up {
		d.RepairNode(e.Index)
	} else {
		d.FailNode(e.Index)
	}
}

// Lifetime replays plan against net at connectivity level and returns the
// survivability record. The plan must be time-sorted (as every generator in
// the failure package returns it) and valid for net; events at or past the
// horizon are ignored. The replay is deterministic: one (net, plan, cfg)
// triple always produces the same Result.
func Lifetime(net *topology.Network, plan *failure.FaultPlan, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(net); err != nil {
		return nil, err
	}
	g := net.Graph()
	totalServers := int64(net.NumServers())
	if totalServers < 2 {
		return nil, fmt.Errorf("surv: need at least 2 servers, have %d", totalServers)
	}
	weight := make([]int64, g.NumNodes())
	for _, s := range net.Servers() {
		weight[s] = 1
	}
	d := graph.NewDynConn(g, weight)
	totalPairs := float64(totalServers) * float64(totalServers-1) / 2

	res := &Result{
		HorizonSec:        cfg.HorizonSec,
		FirstPartitionSec: math.Inf(1),
		MinReachableFrac:  1,
	}
	for _, th := range cfg.Thresholds {
		res.Below = append(res.Below, ThresholdCross{Frac: th, TimeSec: math.Inf(1)})
	}
	every := cfg.SampleEverySec
	if every <= 0 {
		every = cfg.HorizonSec / 64
	}

	reach := func() float64 { return float64(d.Pairs()) / totalPairs }
	record := func(t float64) {
		f := reach()
		lf := float64(d.LargestWeight()) / float64(totalServers)
		res.Curve = append(res.Curve, Sample{
			TimeSec:       t,
			ReachableFrac: f,
			LargestFrac:   lf,
			AliveServers:  d.AliveWeight(),
			ServerComps:   d.WeightedComponents(),
			Events:        res.Events,
		})
		if cfg.Series != nil {
			tNs := int64(math.Round(t * 1e9))
			cfg.Series.Track(TrackReachable).Add(tNs, int64(math.Round(f*1e6)))
			cfg.Series.Track(TrackLargest).Add(tNs, int64(math.Round(lf*1e6)))
			cfg.Series.Track(TrackAliveServers).Add(tNs, d.AliveWeight())
			cfg.Series.Track(TrackComponents).Add(tNs, int64(d.WeightedComponents()))
		}
	}

	// Capacity checkpoints: a fixed random pair sample scored by view-aware
	// vertex-disjoint-path max-flow against its pristine value.
	capEvery := cfg.CapacityEverySec
	if capEvery <= 0 {
		capEvery = cfg.HorizonSec / 8
	}
	var capPairs [][2]int
	var capBase int64
	if cfg.CapacityPairs > 0 {
		capPairs = failure.SamplePairs(net, cfg.CapacityPairs, rand.New(rand.NewSource(cfg.CapacitySeed)))
		for _, p := range capPairs {
			capBase += int64(g.VertexDisjointPathsIn(p[0], p[1], nil))
		}
	}
	capRecord := func(t float64) {
		if capPairs == nil || capBase == 0 {
			return
		}
		var sum int64
		for _, p := range capPairs {
			sum += int64(g.VertexDisjointPathsIn(p[0], p[1], d.View()))
		}
		res.Capacity = append(res.Capacity, CapacitySample{TimeSec: t, Retention: float64(sum) / float64(capBase)})
	}

	record(0)
	capRecord(0)
	nextSample := every
	nextCap := capEvery
	stopped := cfg.HorizonSec
	prevT := 0.0
	for _, e := range plan.Events {
		if e.TimeSec < prevT {
			return nil, fmt.Errorf("surv: plan not sorted (event at %v after %v)", e.TimeSec, prevT)
		}
		prevT = e.TimeSec
		if e.TimeSec >= cfg.HorizonSec {
			break
		}
		for nextSample <= e.TimeSec {
			record(nextSample)
			nextSample += every
		}
		for capPairs != nil && nextCap <= e.TimeSec {
			capRecord(nextCap)
			nextCap += capEvery
		}
		applyEvent(d, e)
		res.Events++
		if cfg.Series != nil {
			cfg.Series.Track(TrackEvents).Add(int64(math.Round(e.TimeSec*1e9)), 1)
		}
		f := reach()
		if f < res.MinReachableFrac {
			res.MinReachableFrac = f
		}
		for i := range res.Below {
			if math.IsInf(res.Below[i].TimeSec, 1) && f < res.Below[i].Frac {
				res.Below[i].TimeSec = e.TimeSec
			}
		}
		if !res.Partitioned && d.WeightedComponents() > 1 {
			res.Partitioned = true
			res.FirstPartitionSec = e.TimeSec
			if cfg.StopAtPartition {
				stopped = e.TimeSec
				break
			}
		}
	}
	for nextSample < stopped {
		record(nextSample)
		nextSample += every
	}
	record(stopped)
	for capPairs != nil && nextCap < stopped {
		capRecord(nextCap)
		nextCap += capEvery
	}
	capRecord(stopped)
	res.StoppedSec = stopped
	res.FinalReachableFrac = reach()
	res.FinalLargestFrac = float64(d.LargestWeight()) / float64(totalServers)
	return res, nil
}
