// Command hotspot exercises the thermal model on its own: it prints the
// EV6 floorplan, the steady-state temperature map for a uniform or
// per-block power vector, and a step response — useful for validating
// package configurations before running coupled simulations.
//
// Usage:
//
//	hotspot [-power W] [-block name=watts ...] [-step seconds] [-flp file]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/obs"
)

type blockPowerFlag map[string]float64

func (b blockPowerFlag) String() string { return fmt.Sprint(map[string]float64(b)) }

func (b blockPowerFlag) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=watts, got %q", v)
	}
	w, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	b[name] = w
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hotspot:", err)
		os.Exit(1)
	}
}

func run() error {
	total := flag.Float64("power", 30, "total power spread over blocks by area (W)")
	step := flag.Float64("step", 5e-3, "transient duration to simulate after a 2x power step (s)")
	flpPath := flag.String("flp", "", "load a HotSpot-format .flp floorplan instead of the built-in EV6")
	extra := blockPowerFlag{}
	flag.Var(extra, "block", "additional per-block power, name=watts (repeatable)")
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stopProf() //nolint:errcheck // reported via the explicit call below

	fp := floorplan.EV6()
	if *flpPath != "" {
		f, err := os.Open(*flpPath)
		if err != nil {
			return err
		}
		fp, err = floorplan.ParseFLP(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	cfg := hotspot.DefaultPackage()
	m, err := hotspot.NewModel(fp, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("floorplan: %d blocks, die %.1f x %.1f mm, package R_conv %.2f K/W, ambient %.0f °C\n\n",
		fp.NumBlocks(), fp.DieRect().W*1e3, fp.DieRect().H*1e3, cfg.RConvection, cfg.Ambient)

	p := make([]float64, fp.NumBlocks())
	die := fp.BlockArea()
	for i := range p {
		p[i] = *total * fp.Block(i).Rect.Area() / die
	}
	// each name maps to a distinct block index, so the adds commute
	for name, w := range extra {
		i := fp.Index(name)
		if i < 0 {
			return fmt.Errorf("unknown block %q", name)
		}
		p[i] += w
	}

	temps, err := m.SteadyState(p)
	if err != nil {
		return err
	}
	type row struct {
		name string
		p, t float64
	}
	rows := make([]row, fp.NumBlocks())
	for i := range rows {
		rows[i] = row{fp.Block(i).Name, p[i], temps[i]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t > rows[j].t })
	fmt.Println("steady state (hottest first):")
	fmt.Printf("%-10s %8s %9s\n", "block", "power/W", "temp/°C")
	for _, r := range rows {
		fmt.Printf("%-10s %8.3f %9.2f\n", r.name, r.p, r.t)
	}

	// Step response: double the power, watch the hottest block.
	if err := m.Init(p); err != nil {
		return err
	}
	hot := fp.Index(rows[0].name)
	p2 := append([]float64(nil), p...)
	for i := range p2 {
		p2[i] *= 2
	}
	fmt.Printf("\nstep response of %s after a 2x power step:\n", rows[0].name)
	const intervals = 10
	for k := 1; k <= intervals; k++ {
		if err := m.Step(p2, *step/intervals); err != nil {
			return err
		}
		fmt.Printf("t=%6.2f ms  %7.3f °C (sink %7.3f °C)\n",
			m.Time()*1e3, m.BlockTemps(nil)[hot], m.SinkTemp())
	}
	return stopProf()
}
