package surv

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
)

// BenchmarkDynConnChurn is the graph.DynConn layer row: it replays one seeded
// repairable switch+link churn plan on ABCCC(16,2,2) (12,288 servers)
// through a fresh tracker per iteration, the way Lifetime applies events,
// and reports the mean cost of a failure and of a repair.
func BenchmarkDynConnChurn(b *testing.B) {
	net := core.MustBuild(core.Config{N: 16, K: 2, P: 2}).Network()
	const day = 24 * 3600.0
	plan, err := failure.Schedule(net, failure.ScheduleConfig{
		HorizonSec: 30 * day,
		Classes: []failure.ClassRate{
			{Kind: failure.Switches, MTBFSec: 5 * 365 * day, MTTRSec: day},
			{Kind: failure.Links, MTBFSec: 10 * 365 * day, MTTRSec: day / 24},
		},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	weight := make([]int64, g.NumNodes())
	for _, s := range net.Servers() {
		weight[s] = 1
	}
	var failT, repairT time.Duration
	var fails, repairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := graph.NewDynConn(g, weight)
		b.StartTimer()
		for _, e := range plan.Events {
			start := time.Now()
			applyEvent(d, e)
			if e.Up {
				repairT += time.Since(start)
				repairs++
			} else {
				failT += time.Since(start)
				fails++
			}
		}
	}
	b.ReportMetric(float64(failT.Nanoseconds())/1e3/float64(fails), "fail_us")
	b.ReportMetric(float64(repairT.Nanoseconds())/1e3/float64(repairs), "repair_us")
}
