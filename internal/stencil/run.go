package stencil

import (
	"fmt"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Options is the unified run configuration (engine, recording, wiseness
// dummies, cancellation).
type Options = alg.Spec

// Result carries the evaluated space-time grid and the trace.
type Result struct {
	// Grid holds every DAG node value: index t·n+x for d=1,
	// (t·n+x)·n+y for d=2.
	Grid []int64
	// Trace is the recorded communication of the run on M(n^d).
	Trace *core.Trace
}

// payload is the message type: a node value forwarded to a consumer's
// owner.
type payload struct {
	nd node
	v  int64
}

// SeqEvaluate is the sequential reference: row-by-row evaluation of the
// (n,d)-stencil DAG with the same node function as Run.
func SeqEvaluate(n, d int, in []int64) []int64 {
	switch d {
	case 1:
		grid := make([]int64, n*n)
		for x := 0; x < n; x++ {
			grid[x] = in[x] % Mod
		}
		for t := 1; t < n; t++ {
			for x := 0; x < n; x++ {
				var acc int64 = 1
				coef := int64(3)
				for dx := -1; dx <= 1; dx++ {
					px := x + dx
					if px >= 0 && px < n {
						acc = (acc + coef*grid[(t-1)*n+px]) % Mod
					}
					coef += 2
				}
				grid[t*n+x] = acc
			}
		}
		return grid
	case 2:
		grid := make([]int64, n*n*n)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				grid[x*n+y] = in[x*n+y] % Mod
			}
		}
		for t := 1; t < n; t++ {
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					var acc int64 = 1
					coef := int64(3)
					// Same predecessor order as geom.preds: outer δx
					// from -1..1 (via a-offsets), inner δy.
					for dx := -1; dx <= 1; dx++ {
						for dy := -1; dy <= 1; dy++ {
							px, py := x+dx, y+dy
							if px >= 0 && px < n && py >= 0 && py < n {
								acc = (acc + coef*grid[((t-1)*n+px)*n+py]) % Mod
							}
							coef += 2
						}
					}
					grid[(t*n+x)*n+y] = acc
				}
			}
		}
		return grid
	}
	panic("stencil: d must be 1 or 2")
}

// Run evaluates the (n,d)-stencil DAG with the network-oblivious recursive
// diamond algorithm on M(n^d), at the paper's recursion degree
// K = 2^⌈√log n⌉.  in is the t=0 input row (n values for d=1, n² row-major
// values for d=2).
func Run(n, d int, in []int64, opts Options) (*Result, error) {
	return RunK(n, d, 0, in, opts)
}

// RunK is Run with an explicit recursion degree k, a knob the ablation
// benchmarks sweep; k must be a power of two in [2, n], and 0 selects
// the paper's default.
func RunK(n, d, k int, in []int64, opts Options) (*Result, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("stencil: n=%d must be a positive power of two", n)
	}
	if d != 1 && d != 2 {
		return nil, fmt.Errorf("stencil: d=%d must be 1 or 2", d)
	}
	want := n
	if d == 2 {
		want = n * n
	}
	if len(in) != want {
		return nil, fmt.Errorf("stencil: need %d inputs, got %d", want, len(in))
	}
	if n == 1 {
		// Trivial instance: one node per spatial point at t=0, all local.
		tr, err := core.RunOpt(1, func(vp *core.VP[payload]) {}, opts.RunOptions())
		if err != nil {
			return nil, err
		}
		grid := make([]int64, len(in))
		for i, x := range in {
			grid[i] = x % Mod
		}
		return &Result{Grid: grid, Trace: tr}, nil
	}
	if k == 0 {
		k = K(n)
	}
	if k < 2 || k&(k-1) != 0 {
		return nil, fmt.Errorf("stencil: K=%d must be a power of two >= 2", k)
	}
	if k > n {
		return nil, fmt.Errorf("stencil: K=%d must not exceed n=%d", k, n)
	}
	v := n
	if d == 2 {
		v = n * n
	}
	g := &geom{n: n, d: d, k: k, kd: pow(k, d), logV: core.Log2(v), b0: -(n - 1)}
	gridLen := n * n
	if d == 2 {
		gridLen = n * n * n
	}
	grid := make([]int64, gridLen)

	prog := func(vp *core.VP[payload]) {
		w := &evaluator{g: g, vp: vp, in: in, grid: grid, wise: opts.Wise,
			vals: make(map[node]int64)}
		w.evalBox(g.root())
	}
	tr, err := core.RunOpt(v, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Grid: grid, Trace: tr}, nil
}

func pow(k, d int) int {
	r := 1
	for i := 0; i < d; i++ {
		r *= k
	}
	return r
}

// evaluator is the per-VP execution state.
type evaluator struct {
	g    *geom
	vp   *core.VP[payload]
	in   []int64
	grid []int64
	wise bool
	vals map[node]int64 // every value this VP holds: computed or received
	// owned lists the nodes this VP computed, in computation order.  The
	// static schedule makes the computing VP a node's canonical owner
	// (computeOwner), so these are exactly the values redistribute may
	// forward, in an order fixed by the program alone.
	owned []node
}

func (e *evaluator) label(z int) int {
	return e.g.logV - core.Log2(z)
}

// store records a computed value and publishes it to the shared grid.
// Each node is computed exactly once, by its owner.
func (e *evaluator) store(nd node, v int64) {
	e.vals[nd] = v
	e.owned = append(e.owned, nd)
	e.grid[e.g.gridIndex(nd)] = v
}

// drainInbox merges delivered values into the local store.
func (e *evaluator) drainInbox() {
	for _, msg := range e.vp.Inbox() {
		e.vals[msg.Payload.nd] = msg.Payload.v
	}
}

// evalBox evaluates every valid node of bx using the segment
// [bx.sb, bx.sb+bx.z).  All VPs of the machine traverse structurally
// identical superstep sequences (empty boxes included), so the label
// trace is static.
func (e *evaluator) evalBox(bx box) {
	g := e.g
	if bx.z == 1 {
		e.evalLocal(bx)
		return
	}
	if bx.z < g.kd {
		e.evalWavefront(bx)
		return
	}
	lab := e.label(bx.z)
	myQ := (e.vp.ID() - bx.sb) / (bx.z / g.kd)
	for phi := 0; phi < g.phases(); phi++ {
		// Redistribution superstep: forward values produced in earlier
		// phases of this box (and box inputs delivered by ancestors) to
		// the owners of their phase-phi consumers.
		e.redistribute(bx, phi, lab)
		e.evalBox(g.subBox(bx, phi, myQ))
	}
}

// redistribute sends, for every value this VP canonically owns, the value
// to the compute-owners of its consumers that are evaluated in phase phi
// of box bx.  One superstep, label lab.  Values go out in computation
// order, so the superstep's messages — and a recorded trace's pair
// order — are the same on every run.
//
//nob:deterministic
func (e *evaluator) redistribute(bx box, phi, lab int) {
	g := e.g
	var cbuf [9]node
	var targets [9]int
	for _, nd := range e.owned {
		if !g.contains(bx, nd) {
			continue
		}
		v := e.vals[nd]
		nt := 0
		for _, ch := range g.consumers(nd, cbuf[:0]) {
			if !g.contains(bx, ch) {
				continue
			}
			cphi, _ := g.subPhase(bx, ch)
			if cphi != phi {
				continue
			}
			// Skip consumers inside nd's own sub-box: those are handled
			// internally (and nd's sub-box always has an earlier phase).
			nphi, nq := g.subPhase(bx, nd)
			chphi, chq := g.subPhase(bx, ch)
			if nphi == chphi && nq == chq {
				continue
			}
			own := g.computeOwner(ch)
			if own == e.vp.ID() {
				continue // already local
			}
			dup := false
			for i := 0; i < nt; i++ {
				if targets[i] == own {
					dup = true
					break
				}
			}
			if !dup {
				targets[nt] = own
				nt++
				e.vp.Send(own, payload{nd: nd, v: v})
			}
		}
	}
	if e.wise {
		core.WisenessDummies(e.vp, lab, 1)
	}
	e.vp.Sync(lab)
	e.drainInbox()
}

// evalLocal evaluates a leaf box on a single VP, in time order.
func (e *evaluator) evalLocal(bx box) {
	if bx.empty {
		return
	}
	e.forEachNodeByTime(bx, func(nd node) {
		e.store(nd, e.g.apply(nd, e.in, e.vals))
	})
}

// evalWavefront evaluates a box on a segment of 1 < z < k^d VPs as a
// straightforward wavefront: one superstep per time row (2z rows for d=1),
// each VP evaluating the nodes of its (a[,c]) slab and forwarding results
// to the owners of next-row consumers.  This is the paper's
// "2·n_τ − 1 supersteps of label τ·log k" base case.
func (e *evaluator) evalWavefront(bx box) {
	g := e.g
	lab := e.label(bx.z)
	// Time rows of the box: t = (a-b)/2 spans w consecutive values.
	tLo := (bx.A0 - bx.B0 - bx.w + 2) / 2
	var cbuf [9]node
	for row := 0; row < bx.w; row++ {
		t := tLo + row
		if !bx.empty {
			e.forEachNodeAtTime(bx, t, func(nd node) {
				v := g.apply(nd, e.in, e.vals)
				e.store(nd, v)
				// Forward to next-row consumers inside the box.
				var sent [9]int
				ns := 0
				for _, ch := range g.consumers(nd, cbuf[:0]) {
					if !g.contains(bx, ch) {
						continue
					}
					own := g.computeOwner(ch)
					if own == e.vp.ID() {
						continue
					}
					dup := false
					for i := 0; i < ns; i++ {
						if sent[i] == own {
							dup = true
							break
						}
					}
					if !dup {
						sent[ns] = own
						ns++
						e.vp.Send(own, payload{nd: nd, v: v})
					}
				}
			})
		}
		if e.wise {
			core.WisenessDummies(e.vp, lab, 1)
		}
		e.vp.Sync(lab)
		e.drainInbox()
	}
}

// forEachNodeByTime visits the valid nodes of a z=1 box in time order.
func (e *evaluator) forEachNodeByTime(bx box, f func(node)) {
	tLo := (bx.A0 - bx.B0 - bx.w + 2) / 2
	for row := 0; row < bx.w; row++ {
		e.forEachNodeAtTime(bx, tLo+row, f)
	}
}

// forEachNodeAtTime visits the valid nodes of bx owned by this VP at time
// t.  For multi-VP boxes (wavefront) ownership is the (a[,c]) slab; for
// z=1 the single VP owns everything.
func (e *evaluator) forEachNodeAtTime(bx box, t int, f func(node)) {
	g := e.g
	aLo, aHi := bx.A0, bx.A0+bx.w
	if bx.z > 1 {
		// Slab ownership: two consecutive a values per VP.
		pos := e.vp.ID() - bx.sb
		if g.d == 1 {
			aLo = bx.A0 + 2*pos
			aHi = aLo + 2
		} else {
			aLo = bx.A0 + 2*(pos/(bx.w/2))
			aHi = aLo + 2
		}
	}
	for a := aLo; a < aHi; a++ {
		b := a - 2*t
		if b < bx.B0 || b >= bx.B0+bx.w {
			continue
		}
		if g.d == 1 {
			nd := node{a: int32(a), b: int32(b)}
			if g.valid(nd) {
				f(nd)
			}
			continue
		}
		cLo, cHi := bx.C0, bx.C0+bx.w
		if bx.z > 1 {
			pos := e.vp.ID() - bx.sb
			cLo = bx.C0 + 2*(pos%(bx.w/2))
			cHi = cLo + 2
		}
		for c := cLo; c < cHi; c++ {
			nd := node{a: int32(a), b: int32(b), c: int32(c)}
			if g.valid(nd) {
				f(nd)
			}
		}
	}
}
