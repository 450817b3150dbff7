package experiments

import (
	"fmt"
	"strings"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/floorplan"
)

// policyNames are the schemes PolicyByName resolves, sorted.
var policyNames = []string{
	"clockgate", "dvs", "dvs-pi", "fg", "fg-fixed", "hyb", "local", "none", "pi-hyb", "proactive-dvs",
}

// proactiveHorizon is how far ahead proactive-dvs extrapolates the hottest
// reading (seconds).
const proactiveHorizon = 1.5e-3

// PolicyNames returns the scheme names PolicyByName accepts, sorted.
func PolicyNames() []string { return append([]string(nil), policyNames...) }

// PolicyNameList is PolicyNames joined for error and usage messages.
func PolicyNameList() string { return strings.Join(policyNames, ", ") }

// policySpec identifies a factory's policy in the result cache: the
// scheme and the parameters PolicyByName gave it, with gate and steps
// kept only for the schemes that read them, and the fields of the
// factory's config that its policy reads, which need not be the job's.
type policySpec struct {
	Scheme   string
	Gate     float64 `json:",omitempty"`
	Steps    int     `json:",omitempty"`
	Trigger  float64
	VMinFrac float64
	Tech     dvfs.Technology
}

// PolicyByName builds the factory for a named scheme, the vocabulary of
// dtmsim -policy and of the named factories (FGPolicy, DVSPolicy, ...),
// so each factory's cache identity comes from here. gate is the fixed or
// crossover fetch-gating fraction (fg-fixed, pi-hyb, hyb); steps is the
// DVS ladder depth for dvs-pi, which installs that ladder into *cfg so
// the simulator exposes the operating points the policy requests. The
// factory's Name is the scheme name.
func PolicyByName(cfg *core.Config, name string, gate float64, steps int) (PolicyFactory, error) {
	c := *cfg
	spec := &policySpec{Scheme: name, Trigger: c.Trigger, VMinFrac: c.VMinFrac, Tech: c.Tech}
	binary := func(mk func(*dvfs.Ladder) (dtm.Policy, error)) func() (dtm.Policy, error) {
		return func() (dtm.Policy, error) {
			ladder, err := dvfs.Binary(c.Tech, c.VMinFrac)
			if err != nil {
				return nil, err
			}
			return mk(ladder)
		}
	}
	dvs := binary(func(l *dvfs.Ladder) (dtm.Policy, error) { return dtm.DVSBinary(c.Trigger, l) })
	var f PolicyFactory
	switch name {
	case "none":
		f.New = func() (dtm.Policy, error) { return dtm.None(), nil }
	case "dvs":
		f.New = dvs
	case "dvs-pi":
		ladder, err := dvfs.NewLadder(c.Tech, steps, c.VMinFrac)
		if err != nil {
			return PolicyFactory{}, err
		}
		cfg.Ladder = ladder
		spec.Steps = steps
		f.New = func() (dtm.Policy, error) {
			l, err := dvfs.NewLadder(c.Tech, steps, c.VMinFrac)
			if err != nil {
				return nil, err
			}
			return dtm.DVSPI(c.Trigger, l)
		}
	case "fg":
		f.New = func() (dtm.Policy, error) { return dtm.FetchGating(c.Trigger, dtm.DefaultFGGain, FGMaxGate) }
	case "fg-fixed":
		spec.Gate = gate
		f.New = func() (dtm.Policy, error) { return dtm.FixedFG(c.Trigger, gate) }
	case "clockgate":
		f.New = func() (dtm.Policy, error) { return dtm.ClockGating(c.Trigger), nil }
	case "pi-hyb":
		spec.Gate = gate
		f.New = binary(func(l *dvfs.Ladder) (dtm.Policy, error) {
			return dtm.PIHyb(c.Trigger, dtm.DefaultFGGain, gate, l)
		})
	case "hyb":
		spec.Gate = gate
		f.New = binary(func(l *dvfs.Ladder) (dtm.Policy, error) {
			return dtm.Hyb(c.Trigger, HybDelta, gate, l)
		})
	case "local":
		f.New = func() (dtm.Policy, error) {
			return dtm.LocalToggling(c.Trigger, dtm.DefaultFGGain, FGMaxGate, EV6Domains(floorplan.EV6()))
		}
	case "proactive-dvs":
		f.New = func() (dtm.Policy, error) {
			inner, err := dvs()
			if err != nil {
				return nil, err
			}
			return dtm.Proactive(inner, proactiveHorizon)
		}
	default:
		return PolicyFactory{}, fmt.Errorf("unknown policy %q (have %s)", name, PolicyNameList())
	}
	f.Name = name
	f.spec = spec
	return f, nil
}

// named is PolicyByName for a scheme that needs no ladder, shown as name.
func named(cfg core.Config, scheme string, gate float64, name string) PolicyFactory {
	f, err := PolicyByName(&cfg, scheme, gate, 0)
	if err != nil {
		panic(err) // only an unknown scheme or a dvs-pi ladder fails
	}
	f.Name = name
	return f
}
