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

// drive finishes members of the stopped cohort c the way a scheduler
// does, on the calling goroutine: it forks them onto their own core
// (adopting c's when adopt is set), steps them together until some act,
// then forks each acted run alone and the rest as one cohort that adopts
// the core last. Every result lands in out.
func drive(t *testing.T, c *Cohort, members []*Simulator, adopt bool, n uint64, out map[*Simulator]Result) {
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
		out[s] = res
	}
	if len(members) == 1 {
		finish(members[0])
		return
	}
	left := append([]*Simulator(nil), members...)
	for len(left) > 0 {
		if err := f.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		var acted, kept []*Simulator
		for _, s := range left {
			switch {
			case s.Done():
				finish(s)
			case !s.Idle():
				acted = append(acted, s)
			default:
				kept = append(kept, s)
			}
		}
		left = kept
		if len(acted) > 0 {
			for i, s := range acted {
				drive(t, f, []*Simulator{s}, len(left) == 0 && i == len(acted)-1, n, out)
			}
			if len(left) > 0 {
				drive(t, f, left, true, n, out)
			}
			return
		}
	}
}

// TestForkMatchesFresh is the fork half of the equivalence harness (the
// TestScalarBatchedEquivalence pattern): every run started from one shared
// Warm must give the Result and the byte-identical JSONL event stream of
// a fresh New + Run, for bzip2 and gcc under no DTM, FG, DVS, PI-Hyb and
// Hyb. Three schedules are checked: each run forked alone at step 0 after
// its sibling finished; all five sharing one core until each first acts,
// then going on alone from that step boundary; and every step-0 fork
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
			checkAll := func(order string, ms []member, out map[*Simulator]Result) {
				t.Helper()
				for i, m := range ms {
					if err := m.jl.Err(); err != nil {
						t.Fatal(err)
					}
					res, ok := out[m.sim]
					if !ok {
						t.Fatalf("%s %s: no result", order, cases[i].name)
					}
					check(order, i, m.buf.Bytes(), res)
				}
			}

			co, ms := cohort()
			out := make(map[*Simulator]Result)
			for i, m := range ms {
				drive(t, co, []*Simulator{m.sim}, i == len(ms)-1, insts, out)
			}
			checkAll("in order", ms, out)

			co, ms = cohort()
			out = make(map[*Simulator]Result)
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
			out = make(map[*Simulator]Result)
			for i := len(ms) - 1; i >= 0; i-- {
				res, err := ms[i].sim.Run(insts)
				if err != nil {
					t.Fatal(err)
				}
				out[ms[i].sim] = res
			}
			checkAll("reverse", ms, out)
		})
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
