package graph

import "math"

// DynConn tracks the connected components of a graph incrementally as nodes
// and edges fail and recover, maintaining weighted component aggregates
// without recomputing connectivity from scratch at every event. It is the
// engine behind the survivability suite's lifetime simulations: a multi-year
// fault schedule over a 100k-server network touches hundreds of thousands of
// events, and a full BFS per event would make the horizon intractable.
//
// The structure is asymmetric, matching the asymmetry of the operations:
//
//   - Repairs only ever merge components, which a disjoint-set union over
//     "base component ids" handles in near-constant amortized time.
//   - Failures may split a component. A split is detected by one BFS per
//     surviving attachment point (the failed edge's two endpoints, or the
//     failed node's alive neighbors), expanded round-robin one vertex at a
//     time. Searches that meet merge, and the check stops as soon as all of
//     them have merged — for a non-cut failure (the overwhelmingly common
//     case in a well-connected DCN) that is a small ball around the failure.
//     A group of searches that runs dry first has enumerated a whole
//     fragment, which gets a fresh id; the last group still searching keeps
//     the old id, so the giant component is never walked to the end or
//     relabeled.
//
// Each node carries a caller-supplied non-negative weight (the survivability
// suite weighs servers 1 and switches 0), and the tracker maintains the
// total alive weight, the sum of squared component weights, and the number
// of components with positive weight. From these, the fraction of reachable
// server pairs and the first-partition predicate are O(1) per event.
//
// DynConn owns its View: callers apply events through the tracker (not the
// view) and read the view for routing or auditing. It is not safe for
// concurrent use; parallel trials each build their own tracker.
type DynConn struct {
	g      *Graph
	view   *View
	weight []int64

	comp []int32 // base component id per node; -1 while the node is down

	// Disjoint-set forest over base ids. size/wsum are meaningful at roots
	// only. A root with size 0 is a retired id (its component died).
	parent []int32
	size   []int64
	wsum   []int64

	aliveWeight int64 // Σ weight over alive nodes
	sumSquares  int64 // Σ wsum(root)² over live roots
	comps       int   // live components
	weighted    int   // live components with wsum > 0

	// Split-check scratch, reused across operations. A check with k
	// searches reserves the k epochs after the current one: seen[v] ==
	// base+i marks v as claimed by search i, and any smaller mark means
	// unvisited by this check.
	seen     []int32
	epoch    int32
	searches []search
}

// search is one BFS of a split check.
type search struct {
	q    []int32 // vertices claimed, in BFS order
	head int     // q[:head] have been expanded
	up   int     // union-find parent over search indices
	live int     // at a group root: member searches with vertices left to expand
}

// NewDynConn returns a tracker for g with every node and edge alive.
// weight[v] is node v's contribution to the component aggregates and must be
// non-negative; a nil weight counts every node as 1.
func NewDynConn(g *Graph, weight []int64) *DynConn {
	n := g.NumNodes()
	if weight == nil {
		weight = make([]int64, n)
		for i := range weight {
			weight[i] = 1
		}
	}
	d := &DynConn{
		g:      g,
		view:   NewView(g),
		weight: weight,
		comp:   make([]int32, n),
		seen:   make([]int32, n),
	}
	for i := range d.comp {
		d.comp[i] = -1
	}
	// One sweep assigns a base id per initial component.
	q := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if d.comp[v] != -1 {
			continue
		}
		id := d.newBase()
		d.comp[v] = id
		w, sz := weight[v], int64(1)
		q = append(q[:0], int32(v))
		for head := 0; head < len(q); head++ {
			u := q[head]
			for _, h := range g.adj[u] {
				if d.comp[h.to] != -1 {
					continue
				}
				d.comp[h.to] = id
				w += weight[h.to]
				sz++
				q = append(q, h.to)
			}
		}
		d.size[id] = sz
		d.wsum[id] = w
		d.addComp(w)
		d.aliveWeight += w
	}
	return d
}

// View returns the tracker's view of the graph. Callers may read it freely
// but must mutate component state only through the tracker's methods.
func (d *DynConn) View() *View { return d.view }

// AliveWeight returns the summed weight of alive nodes.
func (d *DynConn) AliveWeight() int64 { return d.aliveWeight }

// SumSquares returns Σ W² over component weights W.
func (d *DynConn) SumSquares() int64 { return d.sumSquares }

// Pairs returns the number of unordered pairs of distinct weight units that
// share a component: Σ W·(W−1)/2 = (SumSquares − AliveWeight)/2. With 0/1
// weights this is the count of mutually reachable alive server pairs.
func (d *DynConn) Pairs() int64 { return (d.sumSquares - d.aliveWeight) / 2 }

// Components returns the number of connected components over alive nodes.
func (d *DynConn) Components() int { return d.comps }

// WeightedComponents returns the number of components with positive weight —
// the partition predicate: alive servers are mutually reachable iff this is
// at most 1.
func (d *DynConn) WeightedComponents() int { return d.weighted }

// LargestWeight returns the weight of the heaviest component (0 when no node
// is alive). It scans the base-id table, so it is meant for sampling points,
// not per-event calls.
func (d *DynConn) LargestWeight() int64 {
	var best int64
	for id := range d.parent {
		if d.parent[id] == int32(id) && d.size[id] > 0 && d.wsum[id] > best {
			best = d.wsum[id]
		}
	}
	return best
}

// CompOf returns a canonical component id for node u, or -1 if u is down.
// Two alive nodes are connected iff their ids are equal. Ids are stable only
// until the next mutation.
func (d *DynConn) CompOf(u int) int32 {
	if d.comp[u] == -1 {
		return -1
	}
	return d.find(d.comp[u])
}

// addComp and dropComp update the aggregate counters for a component of
// weight w entering or leaving the live set.
func (d *DynConn) addComp(w int64) {
	d.sumSquares += w * w
	d.comps++
	if w > 0 {
		d.weighted++
	}
}

func (d *DynConn) dropComp(w int64) {
	d.sumSquares -= w * w
	d.comps--
	if w > 0 {
		d.weighted--
	}
}

// newBase allocates a fresh base component id.
func (d *DynConn) newBase() int32 {
	id := int32(len(d.parent))
	d.parent = append(d.parent, id)
	d.size = append(d.size, 0)
	d.wsum = append(d.wsum, 0)
	return id
}

// find returns the root of base id b with path halving.
func (d *DynConn) find(b int32) int32 {
	for d.parent[b] != b {
		d.parent[b] = d.parent[d.parent[b]]
		b = d.parent[b]
	}
	return b
}

// union merges the components rooted at a and b (distinct roots) and returns
// the surviving root, keeping the aggregates consistent.
func (d *DynConn) union(a, b int32) int32 {
	if d.size[a] < d.size[b] {
		a, b = b, a
	}
	d.dropComp(d.wsum[a])
	d.dropComp(d.wsum[b])
	d.parent[b] = a
	d.size[a] += d.size[b]
	d.wsum[a] += d.wsum[b]
	d.size[b], d.wsum[b] = 0, 0
	d.addComp(d.wsum[a])
	return a
}

// seed starts search i of the next split check at vertex v.
func (d *DynConn) seed(i int, v int32) {
	if i == len(d.searches) {
		d.searches = append(d.searches, search{})
	}
	d.searches[i].q = append(d.searches[i].q[:0], v)
}

// findSearch returns the root of search i's group, with path halving.
func (d *DynConn) findSearch(i int) int {
	ss := d.searches
	for ss[i].up != i {
		ss[i].up = ss[ss[i].up].up
		i = ss[i].up
	}
	return i
}

// split re-derives connectivity inside the component rooted at r after a
// failure left it with remSize nodes of weight remW, reachable from the k
// attachment points seeded into searches 0..k-1. The caller has already
// dropped r's old aggregates. Each search expands one vertex per turn; a
// search reaching a vertex another group claimed merges the two groups, and
// a group whose searches have all run dry is a complete fragment. The check
// ends when one group is left, which keeps the id r.
func (d *DynConn) split(r int32, k int, remSize, remW int64) {
	if d.epoch > math.MaxInt32-int32(k) { // int32 wraparound: clear marks and restart
		clear(d.seen)
		d.epoch = 0
	}
	base := d.epoch + 1
	d.epoch += int32(k)
	ss := d.searches[:k]
	for i := range ss {
		ss[i].head, ss[i].up, ss[i].live = 0, i, 1
		d.seen[ss[i].q[0]] = base + int32(i)
	}
	for groups, i := k, 0; groups > 1; i = (i + 1) % k {
		s := &ss[i]
		if s.head == len(s.q) {
			continue
		}
		x := s.q[s.head]
		s.head++
		for _, h := range d.g.adj[x] {
			if !d.view.usable(h) {
				continue
			}
			mark := d.seen[h.to]
			if mark < base {
				d.seen[h.to] = base + int32(i)
				s.q = append(s.q, h.to)
				continue
			}
			if o := int(mark - base); o != i {
				if a, b := d.findSearch(i), d.findSearch(o); a != b {
					ss[b].up = a
					ss[a].live += ss[b].live
					if groups--; groups == 1 {
						break
					}
				}
			}
		}
		if s.head < len(s.q) || groups == 1 {
			continue
		}
		a := d.findSearch(i)
		if ss[a].live--; ss[a].live > 0 {
			continue
		}
		// Group a ran dry without meeting the others: its searches claimed
		// exactly one fragment, which splits off under a fresh id.
		id := d.newBase()
		var size, w int64
		for j := range ss {
			if d.findSearch(j) != a {
				continue
			}
			for _, v := range ss[j].q {
				d.comp[v] = id
				w += d.weight[v]
			}
			size += int64(len(ss[j].q))
		}
		d.size[id], d.wsum[id] = size, w
		d.addComp(w)
		remSize -= size
		remW -= w
		groups--
	}
	d.size[r], d.wsum[r] = remSize, remW
	d.addComp(remW)
}

// FailNode marks node u failed and updates component state. Failing an
// already-down node is a no-op.
func (d *DynConn) FailNode(u int) {
	if !d.view.NodeUp(u) {
		return
	}
	r := d.find(d.comp[u])
	w := d.weight[u]
	d.view.FailNode(u)
	d.comp[u] = -1
	d.aliveWeight -= w
	d.dropComp(d.wsum[r])
	if d.size[r] == 1 { // u was the component's last node
		d.size[r], d.wsum[r] = 0, 0
		return
	}
	// Every survivor reached u through one of its alive neighbors.
	k := 0
	for _, h := range d.g.adj[u] {
		if d.view.usable(h) {
			d.seed(k, h.to)
			k++
		}
	}
	d.split(r, k, d.size[r]-1, d.wsum[r]-w)
}

// RepairNode marks node u alive and merges it with its alive neighborhood.
// Repairing an alive node is a no-op.
func (d *DynConn) RepairNode(u int) {
	if d.view.NodeUp(u) {
		return
	}
	d.view.RepairNode(u)
	w := d.weight[u]
	d.aliveWeight += w
	// u joins the union of its neighbors' components; only a node with no
	// alive neighbor needs a fresh base id.
	root := int32(-1)
	for _, h := range d.g.adj[u] {
		if !d.view.usable(h) {
			continue
		}
		switch nr := d.find(d.comp[h.to]); {
		case root == -1:
			root = nr
		case nr != root:
			root = d.union(root, nr)
		}
	}
	if root == -1 {
		root = d.newBase()
	} else {
		d.dropComp(d.wsum[root])
	}
	d.comp[u] = root
	d.size[root]++
	d.wsum[root] += w
	d.addComp(d.wsum[root])
}

// FailEdge marks edge id failed and splits its component if the edge was a
// cut edge. Failing an already-down edge is a no-op.
func (d *DynConn) FailEdge(id int) {
	if !d.view.EdgeUp(id) {
		return
	}
	d.view.FailEdge(id)
	e := d.g.edges[id]
	if !d.view.NodeUp(int(e.U)) || !d.view.NodeUp(int(e.V)) {
		return // a dead endpoint: the edge carried no connectivity
	}
	r := d.find(d.comp[e.U])
	d.dropComp(d.wsum[r])
	d.seed(0, e.U)
	d.seed(1, e.V)
	d.split(r, 2, d.size[r], d.wsum[r])
}

// RepairEdge marks edge id alive and merges its endpoints' components.
// Repairing an alive edge is a no-op.
func (d *DynConn) RepairEdge(id int) {
	if d.view.EdgeUp(id) {
		return
	}
	d.view.RepairEdge(id)
	e := d.g.edges[id]
	u, v := int(e.U), int(e.V)
	if !d.view.NodeUp(u) || !d.view.NodeUp(v) {
		return
	}
	ru, rv := d.find(d.comp[u]), d.find(d.comp[v])
	if ru != rv {
		d.union(ru, rv)
	}
}
