package experiments

import (
	"fmt"
	"strings"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
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

// PolicyByName builds the factory for a named scheme, the vocabulary of
// dtmsim -policy and the dtmserve job API. gate is the fixed or crossover
// fetch-gating fraction (fg-fixed, pi-hyb, hyb); steps is the DVS ladder
// depth for dvs-pi, which installs that ladder into *cfg so the simulator
// exposes the operating points the policy requests. The factory's Name is
// the scheme name.
func PolicyByName(cfg *core.Config, name string, gate float64, steps int) (PolicyFactory, error) {
	c := *cfg
	binary := func(mk func(*dvfs.Ladder) (dtm.Policy, error)) func() (dtm.Policy, error) {
		return func() (dtm.Policy, error) {
			ladder, err := dvfs.Binary(c.Tech, c.VMinFrac)
			if err != nil {
				return nil, err
			}
			return mk(ladder)
		}
	}
	var f PolicyFactory
	switch name {
	case "none":
		f.New = func() (dtm.Policy, error) { return dtm.None(), nil }
	case "dvs":
		f = DVSPolicy(c)
	case "dvs-pi":
		ladder, err := dvfs.NewLadder(c.Tech, steps, c.VMinFrac)
		if err != nil {
			return PolicyFactory{}, err
		}
		cfg.Ladder = ladder
		f.New = func() (dtm.Policy, error) {
			l, err := dvfs.NewLadder(c.Tech, steps, c.VMinFrac)
			if err != nil {
				return nil, err
			}
			return dtm.DVSPI(c.Trigger, l)
		}
	case "fg":
		f = FGPolicy(c)
	case "fg-fixed":
		f.New = func() (dtm.Policy, error) { return dtm.FixedFG(c.Trigger, gate) }
	case "clockgate":
		f.New = func() (dtm.Policy, error) { return dtm.ClockGating(c.Trigger), nil }
	case "pi-hyb":
		f.New = binary(func(l *dvfs.Ladder) (dtm.Policy, error) {
			return dtm.PIHyb(c.Trigger, dtm.DefaultFGGain, gate, l)
		})
	case "hyb":
		f.New = binary(func(l *dvfs.Ladder) (dtm.Policy, error) {
			return dtm.Hyb(c.Trigger, HybDelta, gate, l)
		})
	case "local":
		f = LocalTogglingPolicy(c)
	case "proactive-dvs":
		dvs := DVSPolicy(c).New
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
	return f, nil
}
