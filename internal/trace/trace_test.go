package trace

import (
	"math"
	"testing"
)

func simpleProfile() Profile {
	return Profile{
		Name: "test", Seed: 1,
		Mix:         Mix{Load: 0.25, Store: 0.10, Branch: 0.12, FPAdd: 0.05, FPMul: 0.05, IntMul: 0.02},
		MeanDepDist: 4, IndepFrac: 0.2,
		PatternedFrac: 0.9, PatternedBias: 0.95, BranchSites: 64,
		CodeFootprint: 64 << 10,
		DataResident:  32 << 10, SpillProb: 0.02, ColdFootprint: 1 << 20,
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := simpleProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	mod := func(f func(*Profile)) Profile {
		p := simpleProfile()
		f(&p)
		return p
	}
	cases := []struct {
		name string
		p    Profile
	}{
		{"no name", mod(func(p *Profile) { p.Name = "" })},
		{"mix over 1", mod(func(p *Profile) { p.Mix.Load = 0.9 })},
		{"negative frac", mod(func(p *Profile) { p.Mix.Store = -0.1 })},
		{"dep dist < 1", mod(func(p *Profile) { p.MeanDepDist = 0.5 })},
		{"no branch sites", mod(func(p *Profile) { p.BranchSites = 0 })},
		{"zero code", mod(func(p *Profile) { p.CodeFootprint = 0 })},
		{"zero data", mod(func(p *Profile) { p.DataResident = 0 })},
		{"spill no cold", mod(func(p *Profile) { p.ColdFootprint = 0 })},
		{"bad phase", mod(func(p *Profile) { p.Phases = []Phase{{Insts: 0, DepScale: 1}} })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); err == nil {
				t.Error("Validate accepted bad profile")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	g1, err := NewGenerator(simpleProfile())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(simpleProfile())
	if err != nil {
		t.Fatal(err)
	}
	var a, b Inst
	for i := 0; i < 100000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a != b {
			t.Fatalf("streams diverged at instruction %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p1 := simpleProfile()
	p2 := simpleProfile()
	p2.Seed = 999
	g1, _ := NewGenerator(p1)
	g2, _ := NewGenerator(p2)
	var a, b Inst
	same := 0
	for i := 0; i < 1000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a.Class == b.Class {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical class sequences")
	}
}

func TestMixMatchesProfile(t *testing.T) {
	p := simpleProfile()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	counts := make(map[Class]int)
	var in Inst
	for i := 0; i < n; i++ {
		g.Next(&in)
		counts[in.Class]++
	}
	check := func(class Class, want float64) {
		got := float64(counts[class]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v fraction = %.4f, want %.4f ± 0.01", class, got, want)
		}
	}
	check(Load, p.Mix.Load)
	check(Store, p.Mix.Store)
	check(Branch, p.Mix.Branch)
	check(FPAdd, p.Mix.FPAdd)
	check(FPMul, p.Mix.FPMul)
	check(IntMul, p.Mix.IntMul)
	check(IntALU, 1-p.Mix.total())
}

func TestRegisterDiscipline(t *testing.T) {
	g, err := NewGenerator(simpleProfile())
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	for i := 0; i < 50000; i++ {
		g.Next(&in)
		switch in.Class {
		case Branch, Store:
			if in.Dst != NoReg {
				t.Fatalf("%v has destination register %d", in.Class, in.Dst)
			}
		case FPAdd, FPMul:
			if in.Dst < 32 || in.Dst >= 64 {
				t.Fatalf("FP op writes non-FP register %d", in.Dst)
			}
		default:
			if in.Dst >= 32 {
				t.Fatalf("int op writes register %d outside int bank", in.Dst)
			}
		}
		for _, s := range []uint8{in.Src1, in.Src2} {
			if s != NoReg && s >= 64 {
				t.Fatalf("source register %d out of range", s)
			}
		}
	}
}

func TestAddressesInConfiguredRegions(t *testing.T) {
	p := simpleProfile()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	spills := 0
	memOps := 0
	for i := 0; i < 200000; i++ {
		g.Next(&in)
		if in.Class != Load && in.Class != Store {
			continue
		}
		memOps++
		if in.Addr >= 0x4000_0000 {
			spills++
			if in.Addr >= 0x4000_0000+uint64(p.ColdFootprint) {
				t.Fatalf("cold address %x beyond cold footprint", in.Addr)
			}
		} else {
			if in.Addr < 0x1000_0000 || in.Addr >= 0x1000_0000+uint64(p.DataResident) {
				t.Fatalf("hot address %x outside resident region", in.Addr)
			}
		}
	}
	got := float64(spills) / float64(memOps)
	if math.Abs(got-p.SpillProb) > 0.01 {
		t.Errorf("spill fraction %.4f, want %.4f", got, p.SpillProb)
	}
}

func TestPCWithinFootprint(t *testing.T) {
	p := simpleProfile()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	for i := 0; i < 100000; i++ {
		g.Next(&in)
		if in.PC < 0x0040_0000 || in.PC >= 0x0040_0000+uint64(p.CodeFootprint) {
			t.Fatalf("PC %x outside code footprint", in.PC)
		}
	}
}

func TestDependencyDistanceMean(t *testing.T) {
	// The mean dependency distance knob must control the realized mean: a
	// profile with MeanDepDist 8 must show clearly longer source distances
	// than one with 2. We measure by recording the gap between an
	// instruction and the most recent writer of its Src1.
	measure := func(dep float64) float64 {
		p := simpleProfile()
		p.MeanDepDist = dep
		p.IndepFrac = 0
		g, err := NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		lastWrite := map[uint8]int{}
		var sum, n float64
		var in Inst
		for i := 0; i < 100000; i++ {
			g.Next(&in)
			if in.Src1 != NoReg {
				if w, ok := lastWrite[in.Src1]; ok {
					sum += float64(i - w)
					n++
				}
			}
			if in.Dst != NoReg {
				lastWrite[in.Dst] = i
			}
		}
		return sum / n
	}
	short := measure(2)
	long := measure(8)
	if long <= short*1.5 {
		t.Errorf("dep distance knob ineffective: mean gap %v (dep=2) vs %v (dep=8)", short, long)
	}
}

func TestPhasesCycle(t *testing.T) {
	p := simpleProfile()
	p.SpillProb = 0.05
	p.Phases = []Phase{
		{Insts: 10000, DepScale: 1, SpillMult: 0},  // no spills
		{Insts: 10000, DepScale: 1, SpillMult: 10}, // heavy spills
	}
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var in Inst
	countSpills := func(n int) int {
		s := 0
		for i := 0; i < n; i++ {
			g.Next(&in)
			if (in.Class == Load || in.Class == Store) && in.Addr >= 0x4000_0000 {
				s++
			}
		}
		return s
	}
	p0 := countSpills(10000)
	p1 := countSpills(10000)
	p0b := countSpills(10000)
	if p0 != 0 {
		t.Errorf("phase 0 produced %d spills, want 0", p0)
	}
	if p1 == 0 {
		t.Error("phase 1 produced no spills")
	}
	if p0b != 0 {
		t.Errorf("phase cycle broken: %d spills in repeated phase 0", p0b)
	}
}

func TestBenchmarksAllValid(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 9 {
		t.Fatalf("suite has %d benchmarks, want 9", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if _, err := NewGenerator(b); err != nil {
			t.Errorf("%s: generator: %v", b.Name, err)
		}
	}
	want := []string{"mesa", "perlbmk", "gzip", "bzip2", "eon", "crafty", "vortex", "gcc", "art"}
	names := BenchmarkNames()
	for i, n := range want {
		if names[i] != n {
			t.Errorf("benchmark %d = %s, want %s (paper's order)", i, names[i], n)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gzip"); !ok {
		t.Error("ByName(gzip) not found")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName(nonexistent) found something")
	}
}

func TestClassString(t *testing.T) {
	for c := IntALU; c < NumClasses; c++ {
		if c.String() == "" || c.String()[0] == 'C' {
			t.Errorf("class %d has bad name %q", c, c.String())
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Errorf("unknown class name = %q", Class(99).String())
	}
}

func TestIsFP(t *testing.T) {
	if !FPAdd.IsFP() || !FPMul.IsFP() {
		t.Error("FP classes not recognized")
	}
	if IntALU.IsFP() || Load.IsFP() || Branch.IsFP() {
		t.Error("non-FP class reported as FP")
	}
}
