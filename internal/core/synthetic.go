package core

import "math"

// SyntheticSpec parameterizes a closed-form curve family with the canonical
// memory-system shape: a flat region at the unloaded latency, a queueing
// knee, and a saturation wall whose position depends on the read ratio.
// Synthetic families serve three purposes: property-based testing of the
// curve machinery, convergence testing of the Mess feedback controller
// against a known ground truth, and standing in for manufacturer-provided
// curves when no measurable device exists.
type SyntheticSpec struct {
	Label      string
	UnloadedNs float64
	PeakGBs    float64 // theoretical bandwidth
	// UtilAtReadRatio1 and UtilAtReadRatio05 set the maximum achievable
	// fraction of PeakGBs for pure-read and 50/50 traffic; other ratios
	// interpolate linearly. Typical hardware: 0.91 and 0.72.
	UtilAtReadRatio1  float64
	UtilAtReadRatio05 float64
	Ratios            []float64 // read ratios; default 0.50..1.00 step 0.10
	PointsPerCurve    int       // default 24
}

func (s *SyntheticSpec) withDefaults() SyntheticSpec {
	out := *s
	if out.UnloadedNs == 0 {
		out.UnloadedNs = 90
	}
	if out.PeakGBs == 0 {
		out.PeakGBs = 128
	}
	if out.UtilAtReadRatio1 == 0 {
		out.UtilAtReadRatio1 = 0.91
	}
	if out.UtilAtReadRatio05 == 0 {
		out.UtilAtReadRatio05 = 0.72
	}
	if len(out.Ratios) == 0 {
		out.Ratios = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if out.PointsPerCurve == 0 {
		out.PointsPerCurve = 24
	}
	return out
}

// NewSynthetic builds the family described by spec.
func NewSynthetic(spec SyntheticSpec) *Family {
	s := spec.withDefaults()
	f := &Family{Label: s.Label, TheoreticalBW: s.PeakGBs}
	for _, r := range s.Ratios {
		// Interpolate achievable utilization across the ratio range.
		t := (r - 0.5) / 0.5
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		util := s.UtilAtReadRatio05 + t*(s.UtilAtReadRatio1-s.UtilAtReadRatio05)
		maxBW := util * s.PeakGBs
		c := Curve{ReadRatio: r}
		n := s.PointsPerCurve
		for i := 0; i < n; i++ {
			// Utilization sweep up to 95% of the achievable maximum —
			// measurements on real systems stop near there too.
			rho := 0.95 * float64(i) / float64(n-1)
			bw := rho * maxBW
			// M/D/1-flavoured latency growth over the unloaded base,
			// calibrated to the measured hardware shape: latency doubles
			// around 83% utilization and reaches ≈4.5× unloaded at the
			// measured maximum (cf. Skylake: 89 ns → 391 ns).
			lat := s.UnloadedNs * (1 + 0.12*rho + 0.21*math.Pow(rho, 4)/(1-rho))
			c.Points = append(c.Points, Point{BW: bw, Latency: lat})
		}
		f.Curves = append(f.Curves, c)
	}
	f.Sort()
	return f
}
