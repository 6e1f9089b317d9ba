package main

import (
	"fmt"

	"repro/internal/core"
)

// workloads lists the benchmark's workloads. Each drives the packages'
// public functions the way a cmd/simulate mode does, on ABCCC with p=2.
// README.md records why each was chosen and which layers it loads.
var workloads = []workload{
	{name: "transport-churn-12k", unit: "data packets delivered", new: newTransportChurn},
	{name: "svc-storm-1k5", unit: "RPC legs", new: newSvcStorm},
	{name: "emu-serve-98k", unit: "messages handled", new: newEmuServe},
	{name: "surv-churn-98k", unit: "fault events replayed", new: newSurvChurn},
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// abccc is the topology parameters every workload records.
type abccc struct {
	N, K, P int
}

// build builds the ABCCC inside a core.Build span.
func (c abccc) build(tr *tracer) (*core.ABCCC, error) {
	var t *core.ABCCC
	err := tr.do("core.Build", func() (err error) {
		t, err = core.Build(core.Config{N: c.N, K: c.K, P: c.P})
		return err
	})
	return t, err
}

// nextHopWalks forwards hop by hop with core.NextHop between each pair of
// server indices, inside one core.NextHop span, and returns the mean time
// per NextHop call in nanoseconds.
func nextHopWalks(t *core.ABCCC, pairs [][2]int, tr *tracer) (float64, error) {
	servers := t.Network().Servers()
	maxHops := 4 * (t.Properties().DiameterLinks + 1)
	calls := 0
	walk := func() error {
		for _, p := range pairs {
			cur, dst := servers[p[0]], servers[p[1]]
			for hops := 0; cur != dst; hops++ {
				if hops == maxHops {
					return fmt.Errorf("NextHop walk %d->%d did not arrive in %d hops", p[0], p[1], maxHops)
				}
				next, err := t.NextHop(cur, dst)
				if err != nil {
					return err
				}
				cur = next
				calls++
			}
		}
		return nil
	}
	id := tr.begin("core.NextHop")
	err := walk()
	tr.end(id, calls)
	if err != nil || calls == 0 {
		return 0, err
	}
	return tr.spans[id].dur() * 1e9 / float64(calls), nil
}
