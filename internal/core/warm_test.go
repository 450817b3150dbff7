package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// forkCase is one policy run of the fork-equivalence suite: a policy
// constructor plus the config tweak the run uses (only policy-side fields,
// which a fork is free to change).
type forkCase struct {
	name string
	mk   func(cfg Config) (dtm.Policy, error)
	cfg  func(cfg Config) Config
}

// policy builds the case's policy for cfg.
func (c forkCase) policy(t *testing.T, cfg Config) dtm.Policy {
	t.Helper()
	p, err := c.mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func forkCases() []forkCase {
	binary := func(cfg Config, mk func(*dvfs.Ladder) (dtm.Policy, error)) (dtm.Policy, error) {
		l, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
		if err != nil {
			return nil, err
		}
		return mk(l)
	}
	same := func(cfg Config) Config { return cfg }
	return []forkCase{
		{"none", func(Config) (dtm.Policy, error) { return nil, nil }, same},
		{"fg", func(cfg Config) (dtm.Policy, error) {
			return dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3)
		}, same},
		{"dvs", func(cfg Config) (dtm.Policy, error) {
			return binary(cfg, func(l *dvfs.Ladder) (dtm.Policy, error) { return dtm.DVSBinary(cfg.Trigger, l) })
		}, same},
		{"pi-hyb-ideal", func(cfg Config) (dtm.Policy, error) {
			return binary(cfg, func(l *dvfs.Ladder) (dtm.Policy, error) {
				return dtm.PIHyb(cfg.Trigger, dtm.DefaultFGGain, 1.0/20, l)
			})
		}, func(cfg Config) Config { cfg.DVSStall = false; return cfg }},
		{"hyb", func(cfg Config) (dtm.Policy, error) {
			return binary(cfg, func(l *dvfs.Ladder) (dtm.Policy, error) { return dtm.Hyb(cfg.Trigger, 0.4, 1.0/3, l) })
		}, same},
	}
}

// runTraced runs sim to n instructions with a JSONL tracer on cfg and
// returns the event stream and the Result.
func runTraced(t *testing.T, build func(Config) (*Simulator, error), cfg Config, n uint64) ([]byte, Result) {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	cfg.Tracer = jsonl
	sim, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// script is a test policy that takes its decisions from a list, one per
// sensor sample; the last one repeats for every later sample.
type script struct {
	ds []dtm.Decision
	n  int
}

func (p *script) Name() string { return "script" }
func (p *script) Reset()       { p.n = 0 }

func (p *script) Sample(_, _ float64) dtm.Decision {
	d := p.ds[min(p.n, len(p.ds)-1)]
	p.n++
	return d
}

// driven is what drive records: every member's Result, and the members
// that finished while following a cohort of several.
type driven struct {
	res    map[*Simulator]Result
	shared map[*Simulator]bool
}

func newDriven() driven {
	return driven{res: make(map[*Simulator]Result), shared: make(map[*Simulator]bool)}
}

// drive finishes members of the stopped cohort c on the calling goroutine:
// it forks them onto their own core (adopting c's when adopt is set) and
// steps them together until they finish or no longer act alike, then
// forks each group that acts alike onto a copy of the core, the last
// group adopting it.
func drive(t *testing.T, c *Cohort, members []*Simulator, adopt bool, n uint64, out driven) {
	t.Helper()
	f, err := c.Fork(members, adopt)
	if err != nil {
		t.Fatal(err)
	}
	finish := func(s *Simulator) {
		t.Helper()
		res, err := s.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		out.res[s] = res
	}
	if len(members) == 1 {
		finish(members[0])
		return
	}
	left := append([]*Simulator(nil), members...)
	for {
		if err := f.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		var groups [][]*Simulator
	next:
		for _, s := range left {
			if s.Done() {
				out.shared[s] = true
				finish(s)
				continue
			}
			for i, g := range groups {
				if s.SameActuation(g[0]) {
					groups[i] = append(g, s)
					continue next
				}
			}
			groups = append(groups, []*Simulator{s})
		}
		if len(groups) > 1 {
			for i, g := range groups {
				drive(t, f, g, i == len(groups)-1, n, out)
			}
			return
		}
		if len(groups) == 0 {
			return
		}
		left = groups[0]
	}
}

// TestForkMatchesFresh is the fork half of the equivalence harness (the
// TestScalarBatchedEquivalence pattern): every run started from one shared
// Warm must give the Result and the byte-identical JSONL event stream of
// a fresh New + Run, for bzip2 and gcc under no DTM, FG, DVS, PI-Hyb and
// Hyb. Three schedules are checked: each run forked alone at step 0 after
// its sibling finished; all five sharing one core while they act alike,
// each group that acts alike going on from the step boundary where they
// diverge on a core of its own; and every step-0 fork
// copied up front in reverse, the last adopting the Warm's core — so
// neither a sibling's run nor the order of forking can leak into a result.
func TestForkMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("forty coupled runs")
	}
	const insts = 300_000
	base := traceConfig()
	// Thresholds below the workloads' idle temperature so every policy
	// actuates (the TestScalarBatchedEquivalence trick).
	base.Trigger = 70
	base.EmergencyThreshold = 76
	cases := forkCases()
	for _, name := range []string{"bzip2", "gcc"} {
		prof, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		t.Run(name, func(t *testing.T) {
			freshTrace := make([][]byte, len(cases))
			freshRes := make([]Result, len(cases))
			for i, c := range cases {
				freshTrace[i], freshRes[i] = runTraced(t, func(cfg Config) (*Simulator, error) {
					return New(cfg, prof, c.policy(t, cfg))
				}, c.cfg(base), insts)
			}
			check := func(order string, i int, tr []byte, res Result) {
				t.Helper()
				if res != freshRes[i] {
					t.Errorf("%s %s: Result diverged:\nfresh: %+v\nfork:  %+v", order, cases[i].name, freshRes[i], res)
				}
				if !bytes.Equal(tr, freshTrace[i]) {
					t.Errorf("%s %s: event stream diverged (%d vs %d bytes)", order, cases[i].name, len(freshTrace[i]), len(tr))
				}
			}
			type member struct {
				sim *Simulator
				buf *bytes.Buffer
				jl  *obs.JSONL
			}
			// cohort joins every case, each with its own JSONL tracer.
			cohort := func() (*Cohort, []member) {
				t.Helper()
				w, err := WarmUp(context.Background(), base, prof)
				if err != nil {
					t.Fatal(err)
				}
				co, err := NewCohort(w, insts)
				if err != nil {
					t.Fatal(err)
				}
				ms := make([]member, len(cases))
				for i, c := range cases {
					cfg := c.cfg(base)
					ms[i].buf = new(bytes.Buffer)
					ms[i].jl = obs.NewJSONL(ms[i].buf)
					cfg.Tracer = ms[i].jl
					if ms[i].sim, err = co.Join(cfg, prof, c.policy(t, cfg)); err != nil {
						t.Fatal(err)
					}
				}
				return co, ms
			}
			checkAll := func(order string, ms []member, out driven) {
				t.Helper()
				for i, m := range ms {
					if err := m.jl.Err(); err != nil {
						t.Fatal(err)
					}
					res, ok := out.res[m.sim]
					if !ok {
						t.Fatalf("%s %s: no result", order, cases[i].name)
					}
					check(order, i, m.buf.Bytes(), res)
				}
			}

			co, ms := cohort()
			out := newDriven()
			for i, m := range ms {
				drive(t, co, []*Simulator{m.sim}, i == len(ms)-1, insts, out)
			}
			checkAll("in order", ms, out)

			co, ms = cohort()
			out = newDriven()
			sims := make([]*Simulator, len(ms))
			for i, m := range ms {
				sims[i] = m.sim
			}
			drive(t, co, sims, true, insts, out)
			checkAll("shared", ms, out)

			co, ms = cohort()
			forks := make([]*Cohort, len(ms))
			for i := len(ms) - 1; i >= 0; i-- {
				f, err := co.Fork([]*Simulator{ms[i].sim}, i == 0)
				if err != nil {
					t.Fatal(err)
				}
				forks[i] = f
			}
			out = newDriven()
			for i := len(ms) - 1; i >= 0; i-- {
				res, err := ms[i].sim.Run(insts)
				if err != nil {
					t.Fatal(err)
				}
				out.res[ms[i].sim] = res
			}
			checkAll("reverse", ms, out)
		})
	}
}

// TestCohortFollowsSwitches runs DVS-stall and DVS-ideal runs whose
// scripted policies act alike for a while through a cohort, and checks
// every Result against a fresh New + Run. All six follow one core at rest;
// at the first switch the stall and ideal runs part. A leaves the stall
// runs alone, on a copy of a core that sits at low voltage; C switches
// back to nominal alone and adopts that core; the B pair and the I pair
// each follow one core to the end, across a stall or a pending switch
// and the change back to nominal.
func TestCohortFollowsSwitches(t *testing.T) {
	const insts = 1_000_000
	cfg := quickConfig()
	cfg.WarmupCycles = 50_000
	cfg.InitCycles = 50_000
	cfg.SettleInstructions = 200_000
	cfg.Sensors.SampleRate = 100e3 // a sample every three or so steps
	ideal := cfg
	ideal.DVSStall = false
	prof := gzipProfile(t)
	rest, low := dtm.Decision{}, dtm.Decision{Level: 1}
	// seq rests at sample 1, runs at low voltage from sample 2 and
	// decides then from sample k on.
	seq := func(k int, then dtm.Decision) []dtm.Decision {
		ds := []dtm.Decision{rest}
		for len(ds) < k-1 {
			ds = append(ds, low)
		}
		return append(ds, then)
	}
	runs := []struct {
		name string
		cfg  Config
		ds   []dtm.Decision
	}{
		{"A", cfg, seq(5, dtm.Decision{Level: 1, GateFrac: 0.25})},
		{"B1", cfg, seq(9, rest)},
		{"B2", cfg, seq(9, rest)},
		{"C", cfg, seq(7, rest)},
		{"I1", ideal, seq(9, rest)},
		{"I2", ideal, seq(9, rest)},
	}
	w, err := WarmUp(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCohort(w, insts)
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]*Simulator, len(runs))
	for i, r := range runs {
		if sims[i], err = co.Join(r.cfg, prof, &script{ds: r.ds}); err != nil {
			t.Fatal(err)
		}
	}
	out := newDriven()
	drive(t, co, sims, true, insts, out)
	for i, r := range runs {
		fresh, err := New(r.cfg, prof, &script{ds: r.ds})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(insts)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.res[sims[i]]; got != want {
			t.Errorf("%s: Result diverged:\nfresh:  %+v\ncohort: %+v", r.name, want, got)
		}
		if want.DVSSwitches == 0 {
			t.Errorf("%s: never switched; the test does not reach its switches", r.name)
		}
		if shared := r.name != "A" && r.name != "C"; out.shared[sims[i]] != shared {
			t.Errorf("%s: finished following a cohort = %v, want %v", r.name, out.shared[sims[i]], shared)
		}
	}
}

// TestCohortRefusesUnalikeMembers checks that members which do not act
// alike neither step together nor fork onto one core.
func TestCohortRefusesUnalikeMembers(t *testing.T) {
	cfg := quickConfig()
	cfg.WarmupCycles = 20_000
	cfg.InitCycles = 20_000
	prof := gzipProfile(t)
	w, err := WarmUp(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCohort(w, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*Simulator
	for i := 0; i < 2; i++ {
		s, err := co.Join(cfg, prof, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, s)
	}
	f, err := co.Fork(ms, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	ms[1].l.gates.Fetch = 0.5
	if err := f.Step(context.Background()); err == nil || !strings.Contains(err.Error(), "actuation") {
		t.Errorf("stepping unalike members: err = %v, want a refusal naming actuation", err)
	}
	if _, err := f.Fork(ms, false); err == nil || !strings.Contains(err.Error(), "actuation") {
		t.Errorf("forking unalike members onto one core: err = %v, want a refusal naming actuation", err)
	}
}

// TestJoinChecksWarmFields pins the warm-field contract: a member whose
// config differs from the Warm's in a field the warm state depends on is
// rejected, naming the field; policy-side fields are free; a Warm starts
// one cohort, an adopted cohort cannot fork again, and members join only
// while the cohort is at its warm state.
func TestJoinChecksWarmFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 20_000
	cfg.InitCycles = 20_000
	prof := gzipProfile(t)
	w, err := WarmUp(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCohort(w, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCohort(w, 10_000); err == nil {
		t.Error("a Warm started a second cohort")
	}

	reject := []struct {
		field string
		edit  func(*Config)
	}{
		{"WarmupCycles", func(c *Config) { c.WarmupCycles++ }},
		{"CPU", func(c *Config) { c.CPU.ROBSize = 64 }},
		{"Sensors", func(c *Config) { c.Sensors.Seed++ }},
	}
	for _, r := range reject {
		c := cfg
		r.edit(&c)
		if _, err := co.Join(c, prof, nil); err == nil || !strings.Contains(err.Error(), r.field) {
			t.Errorf("changed %s: err = %v, want a rejection naming it", r.field, err)
		}
	}
	other := prof
	other.Seed++
	if _, err := co.Join(cfg, other, nil); err == nil || !strings.Contains(err.Error(), "Profile") {
		t.Errorf("changed profile seed: err = %v, want a rejection naming Profile", err)
	}

	accept := []struct {
		field string
		edit  func(*Config)
	}{
		{"DVSStall", func(c *Config) { c.DVSStall = !c.DVSStall }},
		{"Trigger", func(c *Config) { c.Trigger-- }},
		{"Tracer", func(c *Config) { c.Tracer = obs.NewJSONL(new(bytes.Buffer)) }},
		{"SettleInstructions", func(c *Config) { c.SettleInstructions /= 2 }},
		{"ThermalStepCycles", func(c *Config) { c.ThermalStepCycles /= 2 }},
	}
	members := make([]*Simulator, len(accept))
	for i, a := range accept {
		c := cfg
		a.edit(&c)
		if members[i], err = co.Join(c, prof, nil); err != nil {
			t.Errorf("changed %s: %v, want the member accepted", a.field, err)
		}
	}
	if _, err := co.Fork(members, false); err == nil || !strings.Contains(err.Error(), "ThermalStepCycles") {
		t.Errorf("fork mixing step sizes: err = %v, want a rejection naming ThermalStepCycles", err)
	}
	f, err := co.Fork(members[:2], false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(cfg, prof, nil); err == nil {
		t.Error("joined a cohort that has stepped")
	}
	if _, err := co.Fork(members[2:3], true); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Fork(members[3:4], false); err == nil {
		t.Error("forked a cohort whose core was already adopted")
	}
}

// TestWarmUpCanceled checks the warm step honors a canceled context.
func TestWarmUpCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WarmUp(ctx, quickConfig(), gzipProfile(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("WarmUp under a canceled context = %v, want context.Canceled", err)
	}
}
