package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteStats recomputes DynConn's aggregates from scratch by BFS over view.
type bruteStats struct {
	aliveWeight int64
	sumSquares  int64
	pairs       int64
	comps       int
	weighted    int
	largest     int64
	comp        []int // component id per node, -1 when down
}

func bruteComponents(g *Graph, view *View, weight []int64) bruteStats {
	n := g.NumNodes()
	st := bruteStats{comp: make([]int, n)}
	for i := range st.comp {
		st.comp[i] = -1
	}
	var queue []int32
	for v := 0; v < n; v++ {
		if st.comp[v] != -1 || !view.NodeUp(v) {
			continue
		}
		id := st.comps
		st.comp[v] = id
		w := weight[v]
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, h := range g.adj[u] {
				if st.comp[h.to] != -1 || !view.usable(h) {
					continue
				}
				st.comp[h.to] = id
				w += weight[h.to]
				queue = append(queue, h.to)
			}
		}
		st.aliveWeight += w
		st.sumSquares += w * w
		st.comps++
		if w > 0 {
			st.weighted++
		}
		if w > st.largest {
			st.largest = w
		}
	}
	st.pairs = (st.sumSquares - st.aliveWeight) / 2
	return st
}

func checkAgainstBrute(t *testing.T, g *Graph, d *DynConn, weight []int64, step int) {
	t.Helper()
	st := bruteComponents(g, d.View(), weight)
	if d.AliveWeight() != st.aliveWeight {
		t.Fatalf("step %d: AliveWeight=%d want %d", step, d.AliveWeight(), st.aliveWeight)
	}
	if d.SumSquares() != st.sumSquares {
		t.Fatalf("step %d: SumSquares=%d want %d", step, d.SumSquares(), st.sumSquares)
	}
	if d.Pairs() != st.pairs {
		t.Fatalf("step %d: Pairs=%d want %d", step, d.Pairs(), st.pairs)
	}
	if d.Components() != st.comps {
		t.Fatalf("step %d: Components=%d want %d", step, d.Components(), st.comps)
	}
	if d.WeightedComponents() != st.weighted {
		t.Fatalf("step %d: WeightedComponents=%d want %d", step, d.WeightedComponents(), st.weighted)
	}
	if d.LargestWeight() != st.largest {
		t.Fatalf("step %d: LargestWeight=%d want %d", step, d.LargestWeight(), st.largest)
	}
	// Component ids must induce the same partition as brute-force BFS.
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			bruteSame := st.comp[u] != -1 && st.comp[u] == st.comp[v]
			cu, cv := d.CompOf(u), d.CompOf(v)
			dynSame := cu != -1 && cu == cv
			if bruteSame != dynSame {
				t.Fatalf("step %d: connectivity(%d,%d): dyn %v brute %v", step, u, v, dynSame, bruteSame)
			}
		}
	}
}

// TestPropertyDynConnMatchesBruteForce drives random fail/repair churn over
// random graphs and checks every aggregate against a from-scratch BFS
// recompute after every single event — the correctness oracle for the whole
// survivability engine.
func TestPropertyDynConnMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		weight := make([]int64, n)
		for i := range weight {
			weight[i] = int64(rng.Intn(4)) // includes 0-weight (switch-like) nodes
		}
		d := NewDynConn(g, weight)
		checkAgainstBrute(t, g, d, weight, -1)
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0:
				d.FailNode(rng.Intn(n))
			case 1:
				d.RepairNode(rng.Intn(n))
			case 2:
				d.FailEdge(rng.Intn(g.NumEdges()))
			default:
				d.RepairEdge(rng.Intn(g.NumEdges()))
			}
			checkAgainstBrute(t, g, d, weight, step)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDynConnPathSplitAndHeal pins the split/merge mechanics on a path graph
// where every interior node is a cut vertex.
func TestDynConnPathSplitAndHeal(t *testing.T) {
	const n = 5
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v)
	}
	d := NewDynConn(g, nil)
	if d.Pairs() != 10 || d.Components() != 1 {
		t.Fatalf("pristine path: pairs=%d comps=%d", d.Pairs(), d.Components())
	}
	d.FailNode(2) // 0-1 | 3-4
	if d.Components() != 2 || d.WeightedComponents() != 2 {
		t.Fatalf("after cut: comps=%d weighted=%d", d.Components(), d.WeightedComponents())
	}
	if d.Pairs() != 2 || d.LargestWeight() != 2 {
		t.Fatalf("after cut: pairs=%d largest=%d", d.Pairs(), d.LargestWeight())
	}
	d.RepairNode(2)
	if d.Components() != 1 || d.Pairs() != 10 {
		t.Fatalf("after heal: comps=%d pairs=%d", d.Components(), d.Pairs())
	}
	d.FailEdge(g.EdgeBetween(0, 1))
	if d.Components() != 2 || d.LargestWeight() != 4 {
		t.Fatalf("after bridge cut: comps=%d largest=%d", d.Components(), d.LargestWeight())
	}
	d.RepairEdge(g.EdgeBetween(0, 1))
	if d.Components() != 1 || d.Pairs() != 10 {
		t.Fatalf("after bridge heal: comps=%d pairs=%d", d.Components(), d.Pairs())
	}
}

// TestDynConnIdempotentEvents pins that double-fail and double-repair are
// no-ops (fault plans can legally replay an event after a busy-skip).
func TestDynConnIdempotentEvents(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	d := NewDynConn(g, nil)
	d.FailNode(1)
	d.FailNode(1)
	if d.Components() != 2 || d.AliveWeight() != 2 {
		t.Fatalf("after double fail: comps=%d alive=%d", d.Components(), d.AliveWeight())
	}
	d.RepairNode(1)
	d.RepairNode(1)
	if d.Components() != 1 || d.AliveWeight() != 3 {
		t.Fatalf("after double repair: comps=%d alive=%d", d.Components(), d.AliveWeight())
	}
	d.FailEdge(0)
	d.FailEdge(0)
	if d.Components() != 2 {
		t.Fatalf("after double edge fail: comps=%d", d.Components())
	}
	d.RepairEdge(0)
	d.RepairEdge(0)
	if d.Components() != 1 {
		t.Fatalf("after double edge repair: comps=%d", d.Components())
	}
}

// FuzzDynConn decodes the input into a small graph and a fail/repair
// sequence and checks every aggregate against a from-scratch BFS after each
// operation. Byte 0 sizes the graph (2..32 nodes); the following bytes pick
// each node's tree parent, a count of extra edges and their endpoints, and
// each node's weight (0..3); the rest are up to 256 (operation, target)
// pairs, a cap that keeps each input's O(n²) checks cheap.
func FuzzDynConn(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 0, 1, 1, 0, 1, 0, 2, 1, 1, 0, 2, 3, 1, 2, 3})
	f.Add([]byte{9, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 2, 3, 0, 1, 2, 3, 0, 0, 4, 2, 2, 1, 4, 0, 4, 3, 6})
	f.Add([]byte{31, 5, 9, 200, 17, 3, 3, 40, 2, 0, 7, 0, 0, 12, 2, 13, 1, 12, 3, 13, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%31
		g := New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(v, next()%v)
		}
		for extra := next() % (2 * n); extra > 0; extra-- {
			u, v := next()%n, next()%n
			if u != v && g.EdgeBetween(u, v) == -1 {
				g.MustAddEdge(u, v)
			}
		}
		weight := make([]int64, n)
		for i := range weight {
			weight[i] = int64(next() % 4)
		}
		d := NewDynConn(g, weight)
		checkAgainstBrute(t, g, d, weight, -1)
		for step := 0; len(data) > 0 && step < 256; step++ {
			applyOp(d, g, next(), next())
			checkAgainstBrute(t, g, d, weight, step)
		}
	})
}

// applyOp applies operation op%4 (fail node, repair node, fail edge, repair
// edge) to the node or edge x modulo their count.
func applyOp(d *DynConn, g *Graph, op, x int) {
	switch op % 4 {
	case 0:
		d.FailNode(x % g.NumNodes())
	case 1:
		d.RepairNode(x % g.NumNodes())
	case 2:
		d.FailEdge(x % g.NumEdges())
	default:
		d.RepairEdge(x % g.NumEdges())
	}
}

// freshMarks counts the nodes marked in seen after epoch e0. A search marks
// each node as it queues it, so after one operation this is the number of
// nodes its split check queued.
func freshMarks(d *DynConn, e0 int32) int {
	n := 0
	for _, m := range d.seen {
		if m > e0 {
			n++
		}
	}
	return n
}

// lollipop returns a clique on nodes 0..clique-1 with a path of pathLen
// nodes (clique, clique+1, ...) hanging off node clique-1. Edges are added
// from the clique outward, so each path edge's Edge.U and each path node's
// first adjacency entry lie on the clique side.
func lollipop(clique, pathLen int) *Graph {
	g := New(clique + pathLen)
	for u := 0; u < clique; u++ {
		for v := u + 1; v < clique; v++ {
			g.MustAddEdge(u, v)
		}
	}
	for v := clique; v < clique+pathLen; v++ {
		g.MustAddEdge(v-1, v)
	}
	return g
}

// TestDynConnSplitSearchCost pins a splitting failure's cost to the fragment
// it cuts off: on a 200-node clique with an 8-node handle ending in a 4-node
// tail, cutting the tail's attaching edge, or failing its first node, must
// queue O(tail) nodes even though Edge.U (edge case) and the first adjacency
// entry (node case) lie on the clique side, from which a one-sided BFS walks
// all 208 clique-side nodes before it can conclude. The handle keeps the
// clique-side search on degree-2 nodes while the tail side runs dry; it takes
// one turn per node the tail side expands.
func TestDynConnSplitSearchCost(t *testing.T) {
	const clique, handle, tail = 200, 8, 4
	first := clique + handle // the tail's first node
	for _, tc := range []struct {
		name string
		fail func(d *DynConn, g *Graph)
		frag int // nodes split off
	}{
		{"edge", func(d *DynConn, g *Graph) { d.FailEdge(g.EdgeBetween(first-1, first)) }, tail},
		{"node", func(d *DynConn, g *Graph) { d.FailNode(first) }, tail - 1},
	} {
		g := lollipop(clique, handle+tail)
		weight := make([]int64, g.NumNodes())
		for i := range weight {
			weight[i] = 1
		}
		d := NewDynConn(g, weight)
		e0 := d.epoch
		tc.fail(d, g)
		checkAgainstBrute(t, g, d, weight, 0)
		if d.Components() != 2 {
			t.Fatalf("%s: %d components, want 2", tc.name, d.Components())
		}
		// The fragment's search queues its frag nodes in frag turns; the
		// clique-side search queues its start and one handle node per turn.
		if got, bound := freshMarks(d, e0), 2*tc.frag+1; got > bound {
			t.Errorf("%s: split check queued %d nodes, want at most %d", tc.name, got, bound)
		}
	}
}

// torus returns the w×h wrap-around grid: every edge lies on a 4-cycle.
func torus(w, h int) *Graph {
	g := New(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			g.MustAddEdge(v, y*w+(x+1)%w)
			g.MustAddEdge(v, (y+1)%h*w+x)
		}
	}
	return g
}

// TestDynConnNoSplitStopsWhereSearchesMeet: on a 40×40 torus no single
// failure splits anything, and the searches meet around the 4-cycles next to
// the failure, so the check queues at most 16 of the 1,600 nodes.
func TestDynConnNoSplitStopsWhereSearchesMeet(t *testing.T) {
	const w = 40
	g := torus(w, w)
	weight := make([]int64, g.NumNodes())
	for i := range weight {
		weight[i] = int64(i % 2)
	}
	mid := w/2*w + w/2
	// An edge's two searches meet once each has expanded its start and one
	// neighbor: 2 × (1 + 3 + 3) nodes queued. A node's four searches meet
	// once each has expanded its start, since neighbors next to each other
	// share a diagonal node: 4 × (1 + 3).
	for _, tc := range []struct {
		name  string
		fail  func(d *DynConn)
		bound int
	}{
		{"edge", func(d *DynConn) { d.FailEdge(g.EdgeBetween(mid, mid+1)) }, 14},
		{"node", func(d *DynConn) { d.FailNode(mid) }, 16},
	} {
		d := NewDynConn(g, weight)
		e0 := d.epoch
		tc.fail(d)
		checkAgainstBrute(t, g, d, weight, 0)
		if d.Components() != 1 {
			t.Fatalf("%s: %d components, want 1", tc.name, d.Components())
		}
		if got := freshMarks(d, e0); got > tc.bound {
			t.Errorf("%s: split check queued %d nodes, want at most %d", tc.name, got, tc.bound)
		}
	}
}

// TestDynConnEpochWrap runs churn across the int32 wraparound of the visit
// epoch, starting at each of the last 16 epochs before it so that every
// search count meets the limit exactly: marks left below the wrap must never
// read as claimed by a search after it.
func TestDynConnEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	g := randomConnectedGraph(rng, n, n)
	weight := make([]int64, n)
	for i := range weight {
		weight[i] = int64(rng.Intn(4))
	}
	d := NewDynConn(g, weight)
	for off := int32(0); off < 16; off++ {
		start := math.MaxInt32 - off
		d.epoch = start
		// Run until the epoch has wrapped, then a few operations more.
		for step, wrapped := 0, 0; wrapped < 5; step++ {
			applyOp(d, g, rng.Intn(4), rng.Intn(1<<16))
			checkAgainstBrute(t, g, d, weight, step)
			if d.epoch < start {
				wrapped++
			} else if step > 1000 {
				t.Fatalf("offset %d: epoch %d never wrapped", off, d.epoch)
			}
		}
	}
}
