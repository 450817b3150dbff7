// Inline SVG charts. The report embeds its thermal timelines as
// hand-built SVG polylines — no plotting dependency, no external assets,
// and byte-stable output (coordinates are rounded to a tenth of a pixel
// with fixed-precision formatting, so the same trace always renders the
// same bytes).
package report

import (
	"fmt"
	"html"
	"math"
	"strings"

	"hybriddtm/internal/stats"
)

// series is one polyline: y values sampled at the shared x positions.
type series struct {
	Name  string
	Color string
	X, Y  []float64
}

// hline is a horizontal reference line (e.g. the trigger threshold).
type hline struct {
	Name  string
	Color string
	Y     float64
}

// chart renders series over a shared x axis into a self-contained SVG.
type chart struct {
	Title  string
	XLabel string
	YLabel string
	W, H   int
	Series []series
	HLines []hline
	// YMin/YMax clamp the y range when set (YMax > YMin); otherwise the
	// range is fitted to the data and reference lines.
	YMin, YMax float64
}

const (
	marginL = 56
	marginR = 12
	marginT = 26
	marginB = 34
)

func (c chart) bounds() (x0, x1, y0, y1 float64) {
	x0, x1 = math.Inf(1), math.Inf(-1)
	y0, y1 = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, x := range s.X {
			x0, x1 = math.Min(x0, x), math.Max(x1, x)
		}
		for _, y := range s.Y {
			y0, y1 = math.Min(y0, y), math.Max(y1, y)
		}
	}
	for _, h := range c.HLines {
		y0, y1 = math.Min(y0, h.Y), math.Max(y1, h.Y)
	}
	if c.YMax > c.YMin {
		y0, y1 = c.YMin, c.YMax
	}
	if math.IsInf(x0, 1) {
		x0, x1 = 0, 1
	}
	if math.IsInf(y0, 1) {
		y0, y1 = 0, 1
	}
	if stats.SameFloat(x1, x0) {
		x1 = x0 + 1
	}
	if stats.SameFloat(y1, y0) {
		y1 = y0 + 1
	}
	return x0, x1, y0, y1
}

// SVG renders the chart.
func (c chart) SVG() string {
	w, h := c.W, c.H
	if w == 0 {
		w = 720
	}
	if h == 0 {
		h = 220
	}
	x0, x1, y0, y1 := c.bounds()
	// Pad the fitted y range 5% so lines don't sit on the frame.
	if !(c.YMax > c.YMin) {
		pad := (y1 - y0) * 0.05
		y0, y1 = y0-pad, y1+pad
	}
	px := func(x float64) float64 {
		return float64(marginL) + (x-x0)/(x1-x0)*float64(w-marginL-marginR)
	}
	py := func(y float64) float64 {
		return float64(h-marginB) - (y-y0)/(y1-y0)*float64(h-marginT-marginB)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" width="%d" height="%d" role="img">`, w, h, w, h)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>`+"\n", w, h)
	// Frame.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#888" stroke-width="1"/>`+"\n",
		marginL, marginT, w-marginL-marginR, h-marginT-marginB)
	// Title and axis labels.
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="16" font-family="sans-serif" font-size="12" fill="#222">%s</text>`+"\n",
			marginL, html.EscapeString(c.Title))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#444">%s</text>`+"\n",
		marginL, h-8, html.EscapeString(c.XLabel))
	fmt.Fprintf(&b, `<text x="4" y="%d" font-family="sans-serif" font-size="10" fill="#444">%s</text>`+"\n",
		marginT-8, html.EscapeString(c.YLabel))
	// Axis extreme labels.
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="9" fill="#666" text-anchor="end">%s</text>`+"\n",
		marginL-4, h-marginB, fmtTick(y0))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="9" fill="#666" text-anchor="end">%s</text>`+"\n",
		marginL-4, marginT+8, fmtTick(y1))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="9" fill="#666">%s</text>`+"\n",
		marginL, h-marginB+12, fmtTick(x0))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="9" fill="#666" text-anchor="end">%s</text>`+"\n",
		w-marginR, h-marginB+12, fmtTick(x1))
	// Reference lines.
	for _, l := range c.HLines {
		y := py(l.Y)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-width="1" stroke-dasharray="5,3"/>`+"\n",
			marginL, y, w-marginR, y, l.Color)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="9" fill="%s" text-anchor="end">%s</text>`+"\n",
			w-marginR-2, y-3, l.Color, html.EscapeString(l.Name))
	}
	// Polylines.
	for _, s := range c.Series {
		var pts strings.Builder
		for i := range s.X {
			if i > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", px(s.X[i]), py(s.Y[i]))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`+"\n", s.Color, pts.String())
	}
	// Legend.
	lx := marginL + 8
	for _, s := range c.Series {
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, marginT+10, lx+16, marginT+10, s.Color)
		label := html.EscapeString(s.Name)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#222">%s</text>`+"\n",
			lx+20, marginT+13, label)
		lx += 26 + 7*len(label)
	}
	b.WriteString("</svg>")
	return b.String()
}

// barSegment is one share of a StackedBar.
type barSegment struct {
	Name  string
	Color string
	Frac  float64 // share of the bar, [0,1]
}

// stackedBar renders fractional shares as one horizontal stacked bar with
// a legend underneath — the "where the time goes" chart. Segments with a
// non-positive fraction are dropped; the rest are drawn in the given
// order, widths rounded to a tenth of a pixel, so the output is
// byte-stable for byte-stable inputs.
func stackedBar(title string, segs []barSegment, w int) string {
	if w <= 0 {
		w = 720
	}
	const (
		barY = 26
		barH = 28
	)
	h := barY + barH + 24 // title + bar + one legend row
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" width="%d" height="%d" role="img">`, w, h, w, h)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>`+"\n", w, h)
	if title != "" {
		fmt.Fprintf(&b, `<text x="0" y="16" font-family="sans-serif" font-size="12" fill="#222">%s</text>`+"\n",
			html.EscapeString(title))
	}
	inner := float64(w)
	x := 0.0
	for _, s := range segs {
		if s.Frac <= 0 {
			continue
		}
		sw := s.Frac * inner
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="#ffffff" stroke-width="1"/>`+"\n",
			x, barY, sw, barH, s.Color)
		// Label inside the segment when it fits (~7px per character).
		label := fmt.Sprintf("%s %.1f%%", s.Name, 100*s.Frac)
		if sw >= float64(7*len(label)+8) {
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" fill="#ffffff">%s</text>`+"\n",
				x+4, barY+barH/2+4, html.EscapeString(label))
		}
		x += sw
	}
	// Legend: every segment, including those too thin to label inline.
	lx := 0
	ly := barY + barH + 16
	for _, s := range segs {
		if s.Frac <= 0 {
			continue
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, ly-9, s.Color)
		label := fmt.Sprintf("%s %.1f%%", s.Name, 100*s.Frac)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#222">%s</text>`+"\n",
			lx+14, ly, html.EscapeString(label))
		lx += 22 + 7*len(label)
	}
	b.WriteString("</svg>")
	return b.String()
}

// fmtTick formats an axis extreme compactly and stably.
func fmtTick(v float64) string {
	a := math.Abs(v)
	switch {
	case !stats.SameFloat(a, 0) && (a < 0.01 || a >= 1e6):
		return fmt.Sprintf("%.2e", v)
	case a < 10:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}
