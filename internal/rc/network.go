// Package rc implements compact thermal RC networks of the kind used by the
// HotSpot model: nodes with thermal capacitance, connected by thermal
// resistances to each other and to the ambient. It provides transient
// integration (explicit RK4 with automatic sub-stepping, and backward Euler
// with factorization caching) and a direct steady-state solve.
//
// The state variable is the temperature rise θ above ambient, so the ODE is
//
//	C dθ/dt = P − G θ
//
// where G is the symmetric, weakly diagonally dominant conductance matrix
// (off-diagonal entries are −1/R between node pairs; the diagonal collects
// the node's total conductance including its path to ambient) and P is the
// power injected at each node in watts.
//
// G is structurally sparse — HotSpot-class models couple each node to a
// handful of neighbours — so assembly records the resistances as triplets
// and Finalize lowers them into a flat CSR matrix. All hot-path kernels run
// over the nonzeros: RK4 derivatives are CSR matrix–vector products, and
// backward Euler / steady state solve through a cached profile LDLᵀ
// (Cholesky) factorization (see cholesky.go) — the one solver every
// network uses, since a validated network's matrices are SPD.
package rc

import (
	"errors"
	"fmt"
	"math"

	"hybriddtm/internal/stats"
)

// Network is a thermal RC network under construction or in use. Build it
// with NewNetwork / AddResistance / AddToAmbient, then call Finalize before
// stepping or solving. A Network owns scratch state and factorization
// caches: one instance must not be stepped concurrently.
type Network struct {
	names []string
	cap   []float64 // thermal capacitance per node, J/K
	gAmb  []float64 // conductance to ambient per node, W/K

	// Assembly state: the diagonal accumulates in call order (bit-compatible
	// with the old dense in-place assembly); off-diagonals are recorded as
	// triplets and merged into CSR by Finalize.
	diag []float64 // total conductance per node, W/K
	off  []cooEntry

	g *CSR // conductance matrix, W/K; built by Finalize

	finalized bool

	// Integrator state, allocated lazily.
	sym     *symbolic            // shared profile structure for all factors
	beCache map[uint64]*Cholesky // backward-Euler factors keyed by Float64bits(dt)
	ss      *Cholesky            // steady-state factor of G
	k1, k2  []float64            // RK4 scratch
	k3, k4  []float64
	tmp     []float64
	shift   []float64 // C/dt diagonal shift scratch, W/K
}

// NewNetwork creates a network with the given node names and capacitances.
// Every capacitance must be positive: zero-capacitance (purely resistive)
// nodes should be folded into the resistances by the model builder.
func NewNetwork(names []string, capacitance []float64) (*Network, error) {
	n := len(names)
	if n == 0 {
		return nil, errors.New("rc: network needs at least one node")
	}
	if len(capacitance) != n {
		return nil, fmt.Errorf("rc: %d names but %d capacitances", n, len(capacitance))
	}
	for i, c := range capacitance {
		if !(c > 0) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("rc: node %q capacitance %v not positive finite", names[i], c)
		}
	}
	return &Network{
		names: append([]string(nil), names...),
		cap:   append([]float64(nil), capacitance...),
		diag:  make([]float64, n),
		gAmb:  make([]float64, n),
	}, nil
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return len(nw.names) }

// NodeName returns the name of node i.
func (nw *Network) NodeName(i int) string { return nw.names[i] }

// Capacitance returns the thermal capacitance of node i in J/K.
func (nw *Network) Capacitance(i int) float64 { return nw.cap[i] }

// AddResistance connects nodes i and j with thermal resistance r (K/W).
// Multiple resistances between the same pair compose in parallel.
func (nw *Network) AddResistance(i, j int, r float64) error {
	if nw.finalized {
		return errors.New("rc: AddResistance after Finalize")
	}
	if i == j {
		return fmt.Errorf("rc: self-resistance on node %d", i)
	}
	if err := nw.checkNode(i); err != nil {
		return err
	}
	if err := nw.checkNode(j); err != nil {
		return err
	}
	if !(r > 0) || math.IsInf(r, 0) {
		return fmt.Errorf("rc: resistance %v between %d and %d not positive finite", r, i, j)
	}
	c := 1 / r
	nw.off = append(nw.off, cooEntry{i: i, j: j, v: -c}, cooEntry{i: j, j: i, v: -c})
	nw.diag[i] += c
	nw.diag[j] += c
	return nil
}

// AddToAmbient connects node i to the ambient through resistance r (K/W).
func (nw *Network) AddToAmbient(i int, r float64) error {
	if nw.finalized {
		return errors.New("rc: AddToAmbient after Finalize")
	}
	if err := nw.checkNode(i); err != nil {
		return err
	}
	if !(r > 0) || math.IsInf(r, 0) {
		return fmt.Errorf("rc: ambient resistance %v on node %d not positive finite", r, i)
	}
	c := 1 / r
	nw.gAmb[i] += c
	nw.diag[i] += c
	return nil
}

func (nw *Network) checkNode(i int) error {
	if i < 0 || i >= len(nw.names) {
		return fmt.Errorf("rc: node index %d out of range [0,%d)", i, len(nw.names))
	}
	return nil
}

// Finalize checks that the network is well posed — at least one path to
// ambient must exist (otherwise there is no steady state) and the graph
// must be connected through the conductance matrix — and lowers the
// assembled triplets into the CSR conductance matrix the kernels run over.
// After Finalize the topology is frozen.
func (nw *Network) Finalize() error {
	if nw.finalized {
		return nil
	}
	hasAmbient := false
	for _, ga := range nw.gAmb {
		if ga > 0 {
			hasAmbient = true
			break
		}
	}
	if !hasAmbient {
		return errors.New("rc: no path to ambient; steady state undefined")
	}
	nw.g = fromTriplets(len(nw.names), nw.off, nw.diag)
	if !nw.connected() {
		nw.g = nil
		return errors.New("rc: network graph is disconnected")
	}
	nw.finalized = true
	nw.off = nil // assembly triplets are folded into the CSR now
	nw.beCache = make(map[uint64]*Cholesky)
	n := len(nw.names)
	nw.k1 = make([]float64, n)
	nw.k2 = make([]float64, n)
	nw.k3 = make([]float64, n)
	nw.k4 = make([]float64, n)
	nw.tmp = make([]float64, n)
	nw.shift = make([]float64, n)
	return nil
}

// connected performs a DFS over nonzero off-diagonal conductances, treating
// ambient-connected nodes as linked through ambient as well (two separate
// islands each tied to ambient are physically fine).
func (nw *Network) connected() bool {
	n := len(nw.names)
	seen := make([]bool, n)
	var stack []int
	// Seed with node 0 plus every ambient-connected node: ambient joins them.
	push := func(i int) {
		if !seen[i] {
			seen[i] = true
			stack = append(stack, i)
		}
	}
	push(0)
	for i, ga := range nw.gAmb {
		if ga > 0 {
			push(i)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for k := nw.g.rowPtr[v]; k < nw.g.rowPtr[v+1]; k++ {
			if w := nw.g.colIdx[k]; w != v && !stats.SameFloat(nw.g.val[k], 0) {
				push(w)
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// Conductance returns G[i][j] (W/K): negative of the direct conductance for
// i≠j, the total node conductance on the diagonal. Exposed for tests.
func (nw *Network) Conductance(i, j int) float64 {
	if nw.g != nil {
		return nw.g.At(i, j)
	}
	if i == j {
		return nw.diag[i]
	}
	var s float64
	for _, e := range nw.off {
		if e.i == i && e.j == j {
			s += e.v
		}
	}
	return s
}

// AmbientConductance returns node i's conductance to ambient (W/K).
func (nw *Network) AmbientConductance(i int) float64 { return nw.gAmb[i] }

// G returns the finalized CSR conductance matrix (nil before Finalize).
// Read-only use intended.
func (nw *Network) G() *CSR { return nw.g }

// factor builds the LDLᵀ factorization of G + diag(shift) (shift nil for G
// itself) over the network's shared profile structure, built on first use.
// Validated networks are SPD by construction — positive R and C, a path to
// ambient, a connected graph — so a *NotSPDError here means a malformed
// model.
func (nw *Network) factor(shift []float64) (*Cholesky, error) {
	if nw.sym == nil {
		nw.sym = newSymbolic(nw.g)
	}
	c := newCholesky(nw.sym)
	if err := c.factor(nw.g, shift); err != nil {
		return nil, err
	}
	return c, nil
}

// SteadyState solves G θ = P for the steady-state temperature rise above
// ambient given the power vector p (W per node).
func (nw *Network) SteadyState(p []float64) ([]float64, error) {
	out := make([]float64, len(nw.names))
	if err := nw.SteadyStateInto(out, p); err != nil {
		return nil, err
	}
	return out, nil
}

// SteadyStateInto is SteadyState writing into dst, which must have length
// NumNodes. The factorization of G is computed once and cached, so repeated
// calls are allocation-free back-substitutions. dst and p may alias.
func (nw *Network) SteadyStateInto(dst, p []float64) error {
	if !nw.finalized {
		return errors.New("rc: SteadyState before Finalize")
	}
	if len(p) != len(nw.names) {
		return fmt.Errorf("rc: power vector length %d, want %d", len(p), len(nw.names))
	}
	if len(dst) != len(nw.names) {
		return fmt.Errorf("rc: dst length %d, want %d", len(dst), len(nw.names))
	}
	if nw.ss == nil {
		f, err := nw.factor(nil) // first-call factorization, cached for every later solve
		if err != nil {
			return fmt.Errorf("rc: steady-state factorization: %w", err)
		}
		nw.ss = f
	}
	nw.ss.SolveInto(dst, p)
	return nil
}

// deriv computes dθ/dt = C⁻¹ (P − G θ) into out.
func (nw *Network) deriv(out, theta, p []float64) {
	g := nw.g
	for i := 0; i < g.n; i++ {
		var s float64
		for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
			s += g.val[k] * theta[g.colIdx[k]]
		}
		out[i] = (p[i] - s) / nw.cap[i]
	}
}

// maxRate returns a Gershgorin bound on the largest eigenvalue of C⁻¹G,
// which limits the stable explicit step size.
func (nw *Network) maxRate() float64 {
	var maxv float64
	g := nw.g
	for i := 0; i < g.n; i++ {
		var s float64
		for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
			if g.colIdx[k] == i {
				s += g.val[k]
			} else {
				s += math.Abs(g.val[k])
			}
		}
		if r := s / nw.cap[i]; r > maxv {
			maxv = r
		}
	}
	return maxv
}

// StepRK4 advances θ by dt seconds under constant power p using classical
// RK4, automatically sub-stepping to stay inside the stability region.
// θ is updated in place.
func (nw *Network) StepRK4(theta, p []float64, dt float64) error {
	if !nw.finalized {
		return errors.New("rc: StepRK4 before Finalize")
	}
	if len(theta) != len(nw.names) || len(p) != len(nw.names) {
		return fmt.Errorf("rc: state/power length mismatch")
	}
	if dt <= 0 {
		return fmt.Errorf("rc: non-positive dt %v", dt)
	}
	// RK4 is stable for λh up to ≈2.78; keep a 2× margin for accuracy.
	hMax := 1.4 / nw.maxRate()
	steps := int(math.Ceil(dt / hMax))
	if steps < 1 {
		steps = 1
	}
	h := dt / float64(steps)
	n := len(theta)
	for s := 0; s < steps; s++ {
		nw.deriv(nw.k1, theta, p)
		for i := 0; i < n; i++ {
			nw.tmp[i] = theta[i] + 0.5*h*nw.k1[i]
		}
		nw.deriv(nw.k2, nw.tmp, p)
		for i := 0; i < n; i++ {
			nw.tmp[i] = theta[i] + 0.5*h*nw.k2[i]
		}
		nw.deriv(nw.k3, nw.tmp, p)
		for i := 0; i < n; i++ {
			nw.tmp[i] = theta[i] + h*nw.k3[i]
		}
		nw.deriv(nw.k4, nw.tmp, p)
		for i := 0; i < n; i++ {
			theta[i] += h / 6 * (nw.k1[i] + 2*nw.k2[i] + 2*nw.k3[i] + nw.k4[i])
		}
	}
	return nil
}

// StepBE advances θ by dt seconds under constant power p using backward
// Euler: (C/dt + G) θ' = C/dt θ + P. Unconditionally stable, first-order
// accurate, and fast for repeated fixed steps because the factorization is
// cached per dt — keyed by the bit pattern of dt, not float equality, so
// the cache behaves sanely for every representable dt. θ is updated in
// place; after the first step at a given dt the call is allocation-free.
func (nw *Network) StepBE(theta, p []float64, dt float64) error {
	if !nw.finalized {
		return errors.New("rc: StepBE before Finalize")
	}
	if len(theta) != len(nw.names) || len(p) != len(nw.names) {
		return fmt.Errorf("rc: state/power length mismatch")
	}
	if dt <= 0 {
		return fmt.Errorf("rc: non-positive dt %v", dt)
	}
	key := math.Float64bits(dt)
	f, ok := nw.beCache[key]
	if !ok {
		for i, c := range nw.cap {
			nw.shift[i] = c / dt
		}
		var err error
		f, err = nw.factor(nw.shift) // first-step factorization at a new dt, cached thereafter
		if err != nil {
			return fmt.Errorf("rc: backward Euler factorization: %w", err)
		}
		nw.beCache[key] = f // cache fill on the first step at a new dt
	}
	for i := range theta {
		nw.tmp[i] = nw.cap[i]/dt*theta[i] + p[i]
	}
	f.SolveInto(theta, nw.tmp)
	return nil
}

// TotalEnergy returns the stored thermal energy Σ Cᵢ θᵢ relative to ambient
// in joules. With zero input power this is non-increasing; tests rely on it.
func (nw *Network) TotalEnergy(theta []float64) float64 {
	var e float64
	for i, c := range nw.cap {
		e += c * theta[i]
	}
	return e
}
