// Package trace generates deterministic synthetic instruction streams that
// stand in for the paper's SPEC CPU2000 SimPoint samples (§3). Each stream
// is produced from a per-benchmark profile controlling instruction mix,
// register dependency distance (which sets the available ILP), branch
// behaviour, code footprint and data locality. The CPU model executes these
// streams through real branch-predictor and cache models, so IPC and unit
// activities — and hence power density — emerge from the microarchitecture
// rather than being dialed in directly.
//
// Streams are fully deterministic given the profile seed: the same
// instructions, branch outcomes and addresses are produced regardless of
// the DTM policy being simulated, which keeps slowdown comparisons across
// policies fair.
package trace

import (
	"fmt"
	"math"
)

// Class is an instruction class, the granularity at which the CPU model
// assigns functional units and the power model assigns unit energies.
type Class uint8

// Instruction classes.
const (
	IntALU Class = iota
	IntMul
	FPAdd
	FPMul
	Load
	Store
	Branch
	numClasses
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "IntALU"
	case IntMul:
		return "IntMul"
	case FPAdd:
		return "FPAdd"
	case FPMul:
		return "FPMul"
	case Load:
		return "Load"
	case Store:
		return "Store"
	case Branch:
		return "Branch"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// IsFP reports whether the class executes in the floating-point cluster.
func (c Class) IsFP() bool { return c == FPAdd || c == FPMul }

// NoReg marks an absent register operand.
const NoReg = 255

// Inst is one dynamic instruction.
type Inst struct {
	Class      Class
	Dst        uint8  // destination register, NoReg if none
	Src1, Src2 uint8  // source registers, NoReg if absent
	PC         uint64 // instruction address (drives I-cache and predictor)
	Addr       uint64 // effective address for Load/Store
	Taken      bool   // actual direction for Branch
}

// Mix gives the fraction of each non-IntALU class; the remainder is IntALU.
type Mix struct {
	Load, Store, Branch float64
	FPAdd, FPMul        float64
	IntMul              float64
}

func (m Mix) total() float64 {
	return m.Load + m.Store + m.Branch + m.FPAdd + m.FPMul + m.IntMul
}

// Phase modulates the base profile for a stretch of the stream, providing
// the program-phase temporal variation the thermal model responds to.
type Phase struct {
	Insts     int     // phase length in instructions
	DepScale  float64 // multiplies mean dependency distance (>1 ⇒ more ILP)
	SpillMult float64 // multiplies the data-spill probability
}

// Profile describes one synthetic benchmark.
type Profile struct {
	Name string
	Seed uint64

	Mix Mix

	// MeanDepDist is the mean register dependency distance (geometric
	// distribution). Larger values expose more ILP.
	MeanDepDist float64
	// IndepFrac is the fraction of instructions with no register sources.
	IndepFrac float64

	// PatternedFrac of branch sites are strongly biased with bias
	// PatternedBias; the rest are 50/50 (predictor-hostile).
	PatternedFrac float64
	PatternedBias float64
	// BranchSites is the number of static branch addresses in play.
	BranchSites int

	// CodeFootprint is the static code size in bytes (drives L1I misses).
	CodeFootprint int

	// DataResident is the hot data region size in bytes (mostly L1D hits).
	DataResident int
	// SpillProb is the probability a memory access leaves the hot region
	// for a region of ColdFootprint bytes (L2 or memory misses depending on
	// that size).
	SpillProb     float64
	ColdFootprint int

	// Phases cycle endlessly; empty means a single steady phase.
	Phases []Phase
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile has no name")
	}
	if t := p.Mix.total(); t < 0 || t > 1 {
		return fmt.Errorf("trace: %s: class fractions sum to %v, want [0,1]", p.Name, t)
	}
	for _, f := range []float64{p.Mix.Load, p.Mix.Store, p.Mix.Branch, p.Mix.FPAdd, p.Mix.FPMul, p.Mix.IntMul,
		p.IndepFrac, p.PatternedFrac, p.PatternedBias, p.SpillProb} {
		if f < 0 || f > 1 || math.IsNaN(f) {
			return fmt.Errorf("trace: %s: fraction %v outside [0,1]", p.Name, f)
		}
	}
	if !(p.MeanDepDist >= 1) {
		return fmt.Errorf("trace: %s: mean dependency distance %v must be ≥ 1", p.Name, p.MeanDepDist)
	}
	if p.BranchSites <= 0 && p.Mix.Branch > 0 {
		return fmt.Errorf("trace: %s: branches present but no branch sites", p.Name)
	}
	if p.CodeFootprint <= 0 || p.DataResident <= 0 {
		return fmt.Errorf("trace: %s: zero code or data footprint", p.Name)
	}
	if p.SpillProb > 0 && p.ColdFootprint <= 0 {
		return fmt.Errorf("trace: %s: spill probability without cold footprint", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Insts <= 0 || ph.DepScale <= 0 || ph.SpillMult < 0 {
			return fmt.Errorf("trace: %s: phase %d invalid: %+v", p.Name, i, ph)
		}
	}
	return nil
}

// xorshift64star is a tiny deterministic PRNG; math/rand would work too but
// an inlined generator keeps Next allocation-free and fast, and makes the
// stream's determinism independent of stdlib generator changes.
type xorshift64 struct{ s uint64 }

func newXorshift(seed uint64) xorshift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return xorshift64{s: seed}
}

func (x *xorshift64) next() uint64 {
	s := x.s
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.s = s
	return s * 0x2545F4914F6CDD1D
}

// float64v returns a uniform float in [0,1). Multiplying by the exact
// reciprocal of 2^53 (a power of two, so exactly representable) produces
// the identical value to dividing by 2^53.
func (x *xorshift64) float64v() float64 {
	return float64(x.next()>>11) * (1.0 / (1 << 53))
}

// intn returns a uniform int in [0,n).
func (x *xorshift64) intn(n int) int {
	return int(x.next() % uint64(n))
}

// Generator produces the instruction stream for one profile.
type Generator struct {
	prof Profile
	rng  xorshift64

	pc       uint64
	codeBase uint64
	dataBase uint64
	coldBase uint64

	// dstHist is a ring of recent destination registers for dependency
	// construction.
	dstHist [64]uint8
	histPos int

	branchPC   []uint64 // static branch sites
	branchBias []bool   // usual direction of patterned sites
	branchPat  []bool   // site is patterned

	nextIntReg uint8
	nextFPReg  uint8

	count     uint64 // instructions generated
	phase     int
	phaseLeft int
	geomP     float64 // current geometric parameter for dep distance
	spillProb float64 // current spill probability
	// depTable is an inverse-CDF lookup for the dependency-distance
	// distribution, rebuilt per phase; sampling through it avoids a log()
	// on the per-instruction hot path.
	depTable   [1024]uint8
	loopTarget uint64 // current loop-back address for taken branches
	loopLeft   int    // iterations left before picking a new loop

	// mixT holds the cumulative class thresholds of the mix, precomputed
	// at construction with the same left-to-right additions the class
	// switch used to perform per instruction, so the comparisons are
	// bit-identical to the original cascading sums.
	mixT [6]float64
}

// NewGenerator builds a generator; the stream it produces is a pure
// function of the profile (including Seed).
func NewGenerator(p Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:     p,
		rng:      newXorshift(p.Seed),
		codeBase: 0x0040_0000,
		dataBase: 0x1000_0000,
		coldBase: 0x4000_0000,
	}
	g.mixT[0] = p.Mix.Load
	g.mixT[1] = p.Mix.Load + p.Mix.Store
	g.mixT[2] = p.Mix.Load + p.Mix.Store + p.Mix.Branch
	g.mixT[3] = p.Mix.Load + p.Mix.Store + p.Mix.Branch + p.Mix.FPAdd
	g.mixT[4] = p.Mix.Load + p.Mix.Store + p.Mix.Branch + p.Mix.FPAdd + p.Mix.FPMul
	g.mixT[5] = p.Mix.total()
	g.pc = g.codeBase
	for i := range g.dstHist {
		g.dstHist[i] = uint8(i % 32)
	}
	n := p.BranchSites
	if n == 0 {
		n = 1
	}
	g.branchPC = make([]uint64, n)
	g.branchBias = make([]bool, n)
	g.branchPat = make([]bool, n)
	for i := range g.branchPC {
		g.branchPC[i] = g.codeBase + uint64(g.rng.intn(p.CodeFootprint))&^3
		g.branchBias[i] = g.rng.float64v() < 0.5
		g.branchPat[i] = g.rng.float64v() < p.PatternedFrac
	}
	g.enterPhase(0)
	return g, nil
}

// Clone returns a generator that continues the stream from the current
// position independently of g. The branch-site tables are read-only after
// construction and stay shared.
func (g *Generator) Clone() *Generator {
	cp := *g
	return &cp
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Count returns the number of instructions generated so far.
func (g *Generator) Count() uint64 { return g.count }

func (g *Generator) enterPhase(i int) {
	p := g.prof
	dep := p.MeanDepDist
	spill := p.SpillProb
	if len(p.Phases) > 0 {
		ph := p.Phases[i%len(p.Phases)]
		dep *= ph.DepScale
		spill *= ph.SpillMult
		g.phaseLeft = ph.Insts
	} else {
		g.phaseLeft = 1 << 62
	}
	if dep < 1 {
		dep = 1
	}
	if spill > 1 {
		spill = 1
	}
	g.phase = i
	g.geomP = 1 / dep
	g.spillProb = spill
	g.buildDepTable()
}

// buildDepTable tabulates the inverse CDF of the geometric dependency
// distance (quantized to 1/1024) so depDist is a single table lookup.
func (g *Generator) buildDepTable() {
	for i := range g.depTable {
		u := (float64(i) + 0.5) / float64(len(g.depTable))
		d := 1 + int(math.Log(1-u)/math.Log(1-g.geomP))
		if d < 1 {
			d = 1
		}
		if d > len(g.dstHist)-1 {
			d = len(g.dstHist) - 1
		}
		g.depTable[i] = uint8(d)
	}
}

// depDist draws a dependency distance ≥ 1 from a geometric distribution
// with the current mean, via the tabulated inverse CDF.
func (g *Generator) depDist() int {
	return int(g.depTable[g.rng.next()>>54]) // top 10 bits index the table
}

func (g *Generator) srcReg() uint8 {
	d := g.depDist()
	idx := (g.histPos - d + len(g.dstHist)) % len(g.dstHist)
	return g.dstHist[idx]
}

// Next fills inst with the next dynamic instruction.
func (g *Generator) Next(inst *Inst) {
	g.count++
	g.phaseLeft--
	if g.phaseLeft <= 0 && len(g.prof.Phases) > 0 {
		g.enterPhase(g.phase + 1)
	}

	p := &g.prof
	r := g.rng.float64v()
	var class Class
	switch {
	case r < g.mixT[0]:
		class = Load
	case r < g.mixT[1]:
		class = Store
	case r < g.mixT[2]:
		class = Branch
	case r < g.mixT[3]:
		class = FPAdd
	case r < g.mixT[4]:
		class = FPMul
	case r < g.mixT[5]:
		class = IntMul
	default:
		class = IntALU
	}

	inst.Class = class
	inst.Addr = 0
	inst.Taken = false

	// Program counter: straight-line until a branch redirects.
	inst.PC = g.pc
	g.pc += 4
	if g.pc >= g.codeBase+uint64(p.CodeFootprint) {
		g.pc = g.codeBase
	}

	// Registers.
	indep := g.rng.float64v() < p.IndepFrac
	switch class {
	case Branch:
		inst.Dst = NoReg
		inst.Src1 = g.srcReg()
		inst.Src2 = NoReg
	case Store:
		inst.Dst = NoReg
		inst.Src1 = g.srcReg() // data
		inst.Src2 = g.srcReg() // address
	default:
		if class.IsFP() {
			inst.Dst = 32 + g.nextFPReg
			g.nextFPReg = (g.nextFPReg + 1) % 32
		} else {
			inst.Dst = g.nextIntReg
			g.nextIntReg = (g.nextIntReg + 1) % 32
		}
		if indep {
			inst.Src1, inst.Src2 = NoReg, NoReg
		} else {
			inst.Src1 = g.srcReg()
			if g.rng.float64v() < 0.5 {
				inst.Src2 = g.srcReg()
			} else {
				inst.Src2 = NoReg
			}
		}
		g.dstHist[g.histPos] = inst.Dst
		g.histPos = (g.histPos + 1) % len(g.dstHist)
	}

	// Memory addresses.
	if class == Load || class == Store {
		if g.rng.float64v() < g.spillProb {
			inst.Addr = g.coldBase + uint64(g.rng.intn(p.ColdFootprint))&^7
		} else {
			inst.Addr = g.dataBase + uint64(g.rng.intn(p.DataResident))&^7
		}
	}

	// Branches: pick a static site, resolve its direction, redirect PC on
	// taken branches (loop-style: mostly re-entering a recent region).
	if class == Branch {
		site := g.rng.intn(len(g.branchPC))
		inst.PC = g.branchPC[site]
		if g.branchPat[site] {
			inst.Taken = g.branchBias[site] == (g.rng.float64v() < p.PatternedBias)
		} else {
			inst.Taken = g.rng.float64v() < 0.5
		}
		if inst.Taken {
			if g.loopLeft <= 0 {
				// Start a new loop: jump somewhere in the footprint and
				// stay around it for a while (instruction locality).
				g.loopTarget = g.codeBase + uint64(g.rng.intn(p.CodeFootprint))&^3
				g.loopLeft = 16 + g.rng.intn(64)
			}
			g.loopLeft--
			g.pc = g.loopTarget
		}
	}
}
