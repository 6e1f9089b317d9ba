package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
)

// emuParams sizes emu-serve-98k: closed-loop RPC fan-out on the sharded
// actor emulator.
type emuParams struct {
	Topo                          abccc
	Requests, Fanout, RetryBudget int
	Shards, Workers               int
	// WalkPairs is how many random server pairs the traced run walks with
	// core.NextHop.
	WalkPairs int
}

// emuServe is one child's run of emu-serve-98k.
type emuServe struct {
	p    emuParams
	t    *core.ABCCC
	seed int64
	res  emu.WorkloadStats
	reg  *obs.Registry
}

func newEmuServe(tiny bool) instance {
	p := emuParams{Topo: abccc{32, 2, 2}, Requests: 20000, Fanout: 4, RetryBudget: 1,
		Shards: emu.DefaultShards, Workers: 2, WalkPairs: 4096}
	if tiny {
		p.Topo, p.Requests, p.Shards, p.WalkPairs = abccc{4, 1, 2}, 200, 4, 16
	}
	return &emuServe{p: p}
}

func (w *emuServe) params() any { return w.p }

// setup only builds the topology: RunWorkload draws its requests from the
// workload seed itself.
func (w *emuServe) setup(seed int64, tr *tracer) error {
	t, err := w.p.Topo.build(tr)
	if err != nil {
		return err
	}
	w.t, w.seed = t, seed
	return nil
}

func (w *emuServe) options() []emu.Option {
	return []emu.Option{emu.WithShards(w.p.Shards), emu.WithWorkers(w.p.Workers)}
}

func (w *emuServe) run(tr *tracer) (int64, error) {
	wl := emu.Workload{Kind: emu.RPCFanout, Requests: w.p.Requests, Fanout: w.p.Fanout,
		RetryBudget: w.p.RetryBudget, Seed: w.seed}
	opts := w.options()
	if tr != nil {
		w.reg = obs.NewRegistry()
		opts = append(opts, emu.WithMetrics(w.reg))
	}
	err := tr.do("emu.RunWorkload", func() (err error) {
		w.res, err = emu.RunWorkload(w.t, wl, opts...)
		return err
	})
	return int64(w.res.Messages), err
}

func (w *emuServe) stats() any { return w.res }

func (w *emuServe) checks() []check { return emuChecks(w.res) }

// emuChecks holds for any seed: every injected message is delivered or
// dropped with a cause, and every request completes or times out.
func emuChecks(res emu.WorkloadStats) []check {
	return []check{
		expect("emu.messages_accounted", res.Accounted(),
			"injected %d vs delivered %d + dropped failed/ttl/overflow %d/%d/%d",
			res.Injected, res.Delivered, res.DroppedFailed, res.DroppedTTL, res.DroppedOverflow),
		expect("emu.requests_accounted", res.Completed+res.TimedOut == res.Requests,
			"completed %d + timed out %d vs %d requests", res.Completed, res.TimedOut, res.Requests),
	}
}

func (w *emuServe) probe(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	err := tr.do("emu.RunSharded", func() error {
		_, err := emu.RunSharded(w.t, nil, w.options()...)
		return err
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(w.seed))
	n := w.t.Network().NumServers()
	pairs := make([][2]int, w.p.WalkPairs)
	for i := range pairs {
		src := rng.Intn(n)
		pairs[i] = [2]int{src, (src + 1 + rng.Intn(n-1)) % n}
	}
	if m["core.nexthop_ns"], err = nextHopWalks(w.t, pairs, tr); err != nil {
		return nil, err
	}

	m["core.build_s"], m["core.alloc_mb"] = tr.medianDur("core.Build"), tr.medianAllocMB("core.Build")
	m["emu.discovery_s"] = tr.medianDur("emu.RunSharded")
	runS := tr.medianDur("emu.RunWorkload")
	m["emu.run_s"], m["emu.alloc_mb"] = runS, tr.medianAllocMB("emu.RunWorkload")
	if rounds := float64(w.res.Rounds); rounds > 0 {
		m["emu.rounds"] = rounds
		m["emu.us_per_round"] = runS * 1e6 / rounds
		m["emu.msgs_per_round"] = float64(w.res.Messages) / rounds
	}
	if msgs := float64(w.res.Messages); msgs > 0 {
		m["emu.handoff_frac"] = float64(w.reg.Counter(emu.MetricHandoffs).Value()) / msgs
	}
	m["emu.backpressure_retries"] = float64(w.reg.Counter(emu.MetricRetries).Value())
	return m, nil
}
