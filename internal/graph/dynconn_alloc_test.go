package graph_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestDynConnSteadyStateAllocs pins that, once its scratch has grown,
// DynConn allocates nothing for a failure that splits nothing, nor for the
// repair that undoes it: the split check reuses its queues and epoch marks,
// and a repaired node joins its neighbors' component without a fresh id.
func TestDynConnSteadyStateAllocs(t *testing.T) {
	net := core.MustBuild(core.Config{N: 4, K: 1, P: 2}).Network()
	g := net.Graph()
	d := graph.NewDynConn(g, nil)
	// A pristine ABCCC has no bridges or articulation points (F22), so
	// neither failure below splits anything. The widest switch gives the
	// node failure the most searches to merge.
	sw := net.Switches()[0]
	for _, s := range net.Switches() {
		if g.Degree(s) > g.Degree(sw) {
			sw = s
		}
	}
	edge := g.NumEdges() / 2
	cycles := []struct {
		name string
		f    func()
	}{
		{"FailEdge+RepairEdge", func() { d.FailEdge(edge); d.RepairEdge(edge) }},
		{"FailNode+RepairNode", func() { d.FailNode(sw); d.RepairNode(sw) }},
	}
	for _, c := range cycles {
		c.f() // warm-up: the view's failure masks and the search queues
	}
	for _, c := range cycles {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", c.name, allocs)
		}
		if d.Components() != 1 {
			t.Fatalf("%s: %d components, want 1", c.name, d.Components())
		}
	}
}
