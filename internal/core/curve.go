// Package core implements the central abstraction of the Mess framework:
// the family of memory bandwidth–latency curves.
//
// One curve fixes a read/write traffic composition and traces memory access
// latency as a function of used memory bandwidth, from the unloaded system
// to full saturation. A family collects tens of such curves across the
// read-ratio range. Everything else in the framework consumes this type:
// the benchmark produces families, the Mess analytical simulator reads
// latencies off them, and the application profiler positions workload
// samples on them.
package core

import (
	"fmt"
	"math"
	"sort"
)

// Point is one measurement: used bandwidth (GB/s) against load-to-use
// memory access latency (ns).
type Point struct {
	BW      float64
	Latency float64
}

// Curve is a bandwidth–latency curve for one read/write composition.
// Points are ordered by increasing injected pressure, which is *not* always
// increasing bandwidth: past the saturation point some systems lose
// bandwidth while latency keeps growing (the paper's "wave-form", Sec. III).
type Curve struct {
	// ReadRatio is the fraction of memory traffic that is reads, in
	// [0,1]. Write-allocate systems map kernel store ratios into
	// [0.5, 1.0]; streaming stores reach below 0.5.
	ReadRatio float64
	Points    []Point
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// minLatency is the smallest valid latency, in ns: anything below prints as
// 0.0000 at the four decimals of WriteCSV, which no reader accepts, so a
// valid family is one that survives being stored.
const minLatency = 0.00005

// Validate reports an error for a curve unusable by the simulator.
func (c *Curve) Validate() error {
	if len(c.Points) < 2 {
		return fmt.Errorf("core: curve (read ratio %.2f) needs ≥ 2 points, has %d", c.ReadRatio, len(c.Points))
	}
	if math.IsNaN(c.ReadRatio) || c.ReadRatio < 0 || c.ReadRatio > 1 {
		return fmt.Errorf("core: read ratio %.3f outside [0,1]", c.ReadRatio)
	}
	for i, p := range c.Points {
		if !finite(p.BW) || !finite(p.Latency) || p.BW < 0 || p.Latency < minLatency {
			return fmt.Errorf("core: curve (read ratio %.2f) point %d invalid: %+v", c.ReadRatio, i, p)
		}
	}
	return nil
}

// UnloadedLatency reports the latency of the lowest-bandwidth point.
func (c *Curve) UnloadedLatency() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.BW < best.BW {
			best = p
		}
	}
	return best.Latency
}

// MaxLatency reports the highest latency on the curve.
func (c *Curve) MaxLatency() float64 {
	max := 0.0
	for _, p := range c.Points {
		if p.Latency > max {
			max = p.Latency
		}
	}
	return max
}

// MaxBW reports the highest bandwidth reached on the curve.
func (c *Curve) MaxBW() float64 {
	max := 0.0
	for _, p := range c.Points {
		if p.BW > max {
			max = p.BW
		}
	}
	return max
}

// LatencyAt reports the latency the curve predicts for the given bandwidth.
// Lookup walks the curve in pressure order and interpolates within the
// first segment that spans bw, so on wave-form curves the stable (lower-
// pressure) branch wins. Beyond the maximum measured bandwidth the final
// ascent is extrapolated, steeply: driving the system past its measured
// saturation must predict rapidly growing latency for the feedback
// controller to push back.
func (c *Curve) LatencyAt(bw float64) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return 0
	}
	if len(pts) == 1 {
		return pts[0].Latency
	}
	if bw <= pts[0].BW {
		return pts[0].Latency
	}
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		if (bw >= lo.BW && bw <= hi.BW) || (bw <= lo.BW && bw >= hi.BW) {
			return interp(lo, hi, bw)
		}
	}
	// Past the measured maximum: extrapolate from the saturation wall.
	maxBW := c.MaxBW()
	wall := c.saturationSlope()
	return c.MaxLatency() + (bw-maxBW)*wall
}

// saturationSlope estimates the latency growth per GB/s at the top of the
// curve, used for extrapolation. It is at least 2 ns per GB/s so that even
// families measured only in their linear region push back on overshoot.
func (c *Curve) saturationSlope() float64 {
	pts := c.Points
	n := len(pts)
	if n < 2 {
		return 2
	}
	a, b := pts[n-2], pts[n-1]
	dbw := math.Abs(b.BW - a.BW)
	dlat := math.Abs(b.Latency - a.Latency)
	slope := 2.0
	if dbw > 1e-9 {
		slope = dlat / dbw
	}
	if slope < 2 {
		slope = 2
	}
	return slope
}

// SlopeAt reports the local dLatency/dBW at bw (ns per GB/s), used by the
// stress score: steep segments mean the system is near saturation.
func (c *Curve) SlopeAt(bw float64) float64 {
	pts := c.Points
	if len(pts) < 2 {
		return 0
	}
	if bw <= pts[0].BW {
		bw = pts[0].BW
	}
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		if (bw >= lo.BW && bw <= hi.BW) || (bw <= lo.BW && bw >= hi.BW) {
			dbw := hi.BW - lo.BW
			if math.Abs(dbw) < 1e-9 {
				return c.saturationSlope()
			}
			return math.Abs((hi.Latency - lo.Latency) / dbw)
		}
	}
	return c.saturationSlope()
}

// SaturationOnset reports the bandwidth at which latency first reaches
// 2× the unloaded latency — the paper's definition of where the saturated
// bandwidth range begins. If the curve never doubles, it reports the
// maximum bandwidth.
func (c *Curve) SaturationOnset() float64 {
	unloaded := c.UnloadedLatency()
	target := 2 * unloaded
	pts := c.Points
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		if lo.Latency <= target && hi.Latency >= target {
			if math.Abs(hi.Latency-lo.Latency) < 1e-9 {
				return hi.BW
			}
			f := (target - lo.Latency) / (hi.Latency - lo.Latency)
			return lo.BW + f*(hi.BW-lo.BW)
		}
	}
	return c.MaxBW()
}

func interp(lo, hi Point, bw float64) float64 {
	dbw := hi.BW - lo.BW
	if math.Abs(dbw) < 1e-9 {
		return math.Max(lo.Latency, hi.Latency)
	}
	f := (bw - lo.BW) / dbw
	return lo.Latency + f*(hi.Latency-lo.Latency)
}

// sanitizePoints keeps a sweep's points as given — slowest to fastest
// injection — but removes exact duplicates and non-finite values.
func sanitizePoints(pts []Point) []Point {
	out := pts[:0]
	var last Point
	for i, p := range pts {
		if !finite(p.BW) || !finite(p.Latency) {
			continue
		}
		if i > 0 && math.Abs(p.BW-last.BW) < 1e-9 && math.Abs(p.Latency-last.Latency) < 1e-9 {
			continue
		}
		out = append(out, p)
		last = p
	}
	return out
}

// Family is a set of curves spanning read/write compositions for one
// memory system.
type Family struct {
	Label         string
	TheoreticalBW float64 // GB/s
	Curves        []Curve // sorted by ReadRatio ascending
}

// Measured is one measured point of a traffic mix with the read ratio the
// traffic had while it was measured.
type Measured struct {
	Point
	ReadRatio float64
}

// MeasuredFamily assembles a sweep's measurements into a family. mixes[i]
// holds one traffic mix's points in ascending-pressure order and becomes one
// curve: opened by the lead points (the unloaded anchor of a harness that
// measures one), sanitized, and tagged with the mean read ratio of the mix's
// measured points. The mean is over every point measured, taken before
// sanitizing prunes any: dividing by the sanitized count pushed ratios
// outside [0,1] whenever pruning occurred. A mix left with fewer than two
// points is dropped, and the curves are sorted by read ratio.
func MeasuredFamily(label string, theoreticalBW float64, lead []Point, mixes [][]Measured) *Family {
	fam := &Family{Label: label, TheoreticalBW: theoreticalBW}
	for _, mix := range mixes {
		if len(mix) == 0 {
			continue
		}
		pts := append(make([]Point, 0, len(lead)+len(mix)), lead...)
		var ratioSum float64
		for _, m := range mix {
			pts = append(pts, m.Point)
			ratioSum += m.ReadRatio
		}
		if pts = sanitizePoints(pts); len(pts) < 2 {
			continue
		}
		fam.Curves = append(fam.Curves, Curve{ReadRatio: ratioSum / float64(len(mix)), Points: pts})
	}
	fam.Sort()
	return fam
}

// Clone returns a deep copy of the family. Cached families are shared
// between callers that relabel and resort them independently, so every
// cache hit hands out a clone.
func (f *Family) Clone() *Family {
	if f == nil {
		return nil
	}
	out := &Family{Label: f.Label, TheoreticalBW: f.TheoreticalBW}
	if f.Curves != nil {
		out.Curves = make([]Curve, len(f.Curves))
		for i, c := range f.Curves {
			out.Curves[i] = Curve{ReadRatio: c.ReadRatio, Points: append([]Point(nil), c.Points...)}
		}
	}
	return out
}

// Validate checks every curve and the ratio ordering.
func (f *Family) Validate() error {
	if len(f.Curves) == 0 {
		return fmt.Errorf("core: family %q has no curves", f.Label)
	}
	if !finite(f.TheoreticalBW) || f.TheoreticalBW < 0 {
		return fmt.Errorf("core: family %q theoretical bandwidth %v is not a finite non-negative number", f.Label, f.TheoreticalBW)
	}
	for i := range f.Curves {
		if err := f.Curves[i].Validate(); err != nil {
			return fmt.Errorf("family %q: %w", f.Label, err)
		}
		if i > 0 && f.Curves[i].ReadRatio < f.Curves[i-1].ReadRatio {
			return fmt.Errorf("core: family %q curves not sorted by read ratio", f.Label)
		}
	}
	return nil
}

// Sort orders curves by read ratio ascending.
func (f *Family) Sort() {
	sort.Slice(f.Curves, func(i, j int) bool { return f.Curves[i].ReadRatio < f.Curves[j].ReadRatio })
}

// Nearest returns the curve whose read ratio is closest to r.
func (f *Family) Nearest(r float64) *Curve {
	if len(f.Curves) == 0 {
		return nil
	}
	best := 0
	bestD := math.Abs(f.Curves[0].ReadRatio - r)
	for i := 1; i < len(f.Curves); i++ {
		if d := math.Abs(f.Curves[i].ReadRatio - r); d < bestD {
			best, bestD = i, d
		}
	}
	return &f.Curves[best]
}

// LatencyAt reports the latency for traffic with the given read ratio and
// bandwidth, bilinearly interpolating across the two neighbouring curves.
func (f *Family) LatencyAt(readRatio, bw float64) float64 {
	lo, hi, frac := f.bracket(readRatio)
	if lo == hi {
		return f.Curves[lo].LatencyAt(bw)
	}
	a := f.Curves[lo].LatencyAt(bw)
	b := f.Curves[hi].LatencyAt(bw)
	return a + frac*(b-a)
}

// SlopeAt interpolates the local curve inclination across ratios.
func (f *Family) SlopeAt(readRatio, bw float64) float64 {
	lo, hi, frac := f.bracket(readRatio)
	if lo == hi {
		return f.Curves[lo].SlopeAt(bw)
	}
	a := f.Curves[lo].SlopeAt(bw)
	b := f.Curves[hi].SlopeAt(bw)
	return a + frac*(b-a)
}

// MaxBWAt reports the interpolated maximum achievable bandwidth for the
// given read ratio.
func (f *Family) MaxBWAt(readRatio float64) float64 {
	lo, hi, frac := f.bracket(readRatio)
	if lo == hi {
		return f.Curves[lo].MaxBW()
	}
	a := f.Curves[lo].MaxBW()
	b := f.Curves[hi].MaxBW()
	return a + frac*(b-a)
}

// bracket locates the curves surrounding readRatio and the interpolation
// fraction between them.
func (f *Family) bracket(readRatio float64) (lo, hi int, frac float64) {
	n := len(f.Curves)
	if n == 1 || readRatio <= f.Curves[0].ReadRatio {
		return 0, 0, 0
	}
	if readRatio >= f.Curves[n-1].ReadRatio {
		return n - 1, n - 1, 0
	}
	i := sort.Search(n, func(i int) bool { return f.Curves[i].ReadRatio >= readRatio })
	lo, hi = i-1, i
	span := f.Curves[hi].ReadRatio - f.Curves[lo].ReadRatio
	if span < 1e-12 {
		return lo, lo, 0
	}
	return lo, hi, (readRatio - f.Curves[lo].ReadRatio) / span
}
