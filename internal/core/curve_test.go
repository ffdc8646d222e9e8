package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func simpleCurve() Curve {
	return Curve{
		ReadRatio: 1.0,
		Points: []Point{
			{BW: 1, Latency: 90},
			{BW: 40, Latency: 95},
			{BW: 80, Latency: 120},
			{BW: 100, Latency: 180},
			{BW: 115, Latency: 390},
		},
	}
}

func TestCurveValidate(t *testing.T) {
	c := simpleCurve()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid curve rejected: %v", err)
	}
	bad := Curve{ReadRatio: 1, Points: []Point{{1, 90}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("single-point curve accepted")
	}
	bad = Curve{ReadRatio: 1.5, Points: simpleCurve().Points}
	if err := bad.Validate(); err == nil {
		t.Fatal("read ratio > 1 accepted")
	}
	bad = simpleCurve()
	bad.Points[2].Latency = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN latency accepted")
	}
	// NaN compares false with everything, so range checks alone let it by.
	bad = Curve{ReadRatio: math.NaN(), Points: simpleCurve().Points}
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN read ratio accepted")
	}
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		bad = simpleCurve()
		bad.Points[4].BW = inf
		if err := bad.Validate(); err == nil {
			t.Fatalf("bandwidth %v accepted", inf)
		}
		bad = simpleCurve()
		bad.Points[4].Latency = inf
		if err := bad.Validate(); err == nil {
			t.Fatalf("latency %v accepted", inf)
		}
	}
}

func TestFamilyValidateTheoreticalBW(t *testing.T) {
	f := &Family{Label: "x", Curves: []Curve{simpleCurve()}}
	for _, bw := range []float64{0, 128} { // 0: a file without the header line
		f.TheoreticalBW = bw
		if err := f.Validate(); err != nil {
			t.Fatalf("theoretical bandwidth %v rejected: %v", bw, err)
		}
	}
	for _, bw := range []float64{math.NaN(), -1, math.Inf(1)} {
		f.TheoreticalBW = bw
		if err := f.Validate(); err == nil {
			t.Fatalf("theoretical bandwidth %v accepted", bw)
		}
	}
}

func TestLatencyAtInterpolates(t *testing.T) {
	c := simpleCurve()
	cases := []struct {
		bw, want float64
	}{
		{0.5, 90},    // below domain clamps to unloaded
		{1, 90},      // exact endpoint
		{20.5, 92.5}, // halfway between first two points
		{40, 95},
		{90, 150}, // halfway in the 80→100 segment
		{115, 390},
	}
	for _, tc := range cases {
		got := c.LatencyAt(tc.bw)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("LatencyAt(%v) = %v, want %v", tc.bw, got, tc.want)
		}
	}
}

func TestLatencyAtExtrapolatesSteeply(t *testing.T) {
	c := simpleCurve()
	over := c.LatencyAt(120)
	if over <= 390 {
		t.Fatalf("latency beyond max BW = %v, want > max latency 390", over)
	}
	// Slope of last segment: (390-180)/15 = 14 ns per GB/s.
	want := 390 + 5*14.0
	if math.Abs(over-want) > 1e-6 {
		t.Fatalf("extrapolated latency %v, want %v", over, want)
	}
}

func TestWaveFormLookupUsesStableBranch(t *testing.T) {
	// Wave-form: bandwidth declines past the peak while latency grows.
	c := Curve{
		ReadRatio: 1,
		Points: []Point{
			{BW: 10, Latency: 90},
			{BW: 100, Latency: 150},
			{BW: 110, Latency: 250}, // peak bandwidth
			{BW: 100, Latency: 400}, // decline: same BW, higher latency
			{BW: 95, Latency: 500},
		},
	}
	got := c.LatencyAt(100)
	if got != 150 {
		t.Fatalf("wave-form lookup at 100 GB/s = %v, want stable branch 150", got)
	}
	if mb := c.MaxBW(); mb != 110 {
		t.Fatalf("MaxBW = %v, want 110", mb)
	}
}

func TestSaturationOnset(t *testing.T) {
	c := simpleCurve()
	// Unloaded 90, doubles at 180 → exactly at the 100 GB/s point.
	on := c.SaturationOnset()
	if math.Abs(on-100) > 1e-9 {
		t.Fatalf("saturation onset = %v, want 100", on)
	}
	flat := Curve{ReadRatio: 1, Points: []Point{{1, 90}, {100, 95}}}
	if on := flat.SaturationOnset(); on != 100 {
		t.Fatalf("non-saturating curve onset = %v, want max BW 100", on)
	}
}

func TestFamilyInterpolationAcrossRatios(t *testing.T) {
	f := Family{
		TheoreticalBW: 128,
		Curves: []Curve{
			{ReadRatio: 0.5, Points: []Point{{1, 100}, {80, 300}}},
			{ReadRatio: 1.0, Points: []Point{{1, 90}, {80, 200}}},
		},
	}
	got := f.LatencyAt(0.75, 80)
	if math.Abs(got-250) > 1e-9 {
		t.Fatalf("ratio-interpolated latency = %v, want 250", got)
	}
	if lat := f.LatencyAt(0.5, 80); lat != 300 {
		t.Fatalf("exact-ratio latency = %v, want 300", lat)
	}
	if lat := f.LatencyAt(0.3, 80); lat != 300 {
		t.Fatalf("below-range ratio should clamp to 0.5 curve, got %v", lat)
	}
	if lat := f.LatencyAt(1.0, 80); lat != 200 {
		t.Fatalf("top-ratio latency = %v, want 200", lat)
	}
}

func TestFamilyMetrics(t *testing.T) {
	f := NewSynthetic(SyntheticSpec{
		Label: "test", UnloadedNs: 90, PeakGBs: 128,
		UtilAtReadRatio1: 0.91, UtilAtReadRatio05: 0.72,
	})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	if math.Abs(m.UnloadedLatencyNs-90) > 2 {
		t.Fatalf("unloaded = %v, want ≈90", m.UnloadedLatencyNs)
	}
	if m.SatHighFrac() < 0.85 || m.SatHighFrac() > 0.92 {
		t.Fatalf("saturated high fraction = %v, want ≈0.90", m.SatHighFrac())
	}
	if m.SatBWLowGBs >= m.SatBWHighGBs {
		t.Fatalf("saturated range inverted: %v", m)
	}
	if m.MaxLatencyMinNs > m.MaxLatencyMaxNs {
		t.Fatalf("max latency range inverted: %v", m)
	}
	if m.MaxLatencyMaxNs < 2*90 {
		t.Fatalf("synthetic family never saturates: max latency %v", m.MaxLatencyMaxNs)
	}
}

func TestStressScoreMonotoneAndBounded(t *testing.T) {
	f := NewSynthetic(SyntheticSpec{Label: "t"})
	prev := -1.0
	for bw := 1.0; bw < 120; bw += 5 {
		s := f.StressScore(1.0, bw, DefaultStressWeights)
		if s < 0 || s > 1 {
			t.Fatalf("stress score %v outside [0,1] at bw %v", s, bw)
		}
		if s < prev-0.02 { // allow tiny numeric wiggle
			t.Fatalf("stress score decreased from %v to %v at bw %v", prev, s, bw)
		}
		prev = s
	}
	if s := f.StressScore(1.0, 1, DefaultStressWeights); s > 0.15 {
		t.Fatalf("unloaded stress score = %v, want ≈0", s)
	}
	if s := f.StressScore(1.0, f.MaxBWAt(1.0), DefaultStressWeights); s < 0.6 {
		t.Fatalf("saturated stress score = %v, want high", s)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := NewSynthetic(SyntheticSpec{Label: "Intel Skylake", PeakGBs: 128})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != f.Label {
		t.Fatalf("label %q, want %q", got.Label, f.Label)
	}
	if math.Abs(got.TheoreticalBW-f.TheoreticalBW) > 1e-3 {
		t.Fatalf("theoretical BW %v, want %v", got.TheoreticalBW, f.TheoreticalBW)
	}
	if len(got.Curves) != len(f.Curves) {
		t.Fatalf("curves %d, want %d", len(got.Curves), len(f.Curves))
	}
	for i := range got.Curves {
		if len(got.Curves[i].Points) != len(f.Curves[i].Points) {
			t.Fatalf("curve %d: %d points, want %d", i, len(got.Curves[i].Points), len(f.Curves[i].Points))
		}
	}
	// Lookup equivalence within CSV rounding (relative: extrapolation
	// beyond the measured domain amplifies the 4-decimal rounding).
	for _, r := range []float64{0.5, 0.72, 1.0} {
		for _, bw := range []float64{5, 50, 100} {
			a, b := f.LatencyAt(r, bw), got.LatencyAt(r, bw)
			if math.Abs(a-b) > 1e-3*a {
				t.Fatalf("lookup diverged after round trip: %v vs %v", a, b)
			}
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("read_ratio,bw_gbs,latency_ns\nnot,a,number\n")); err == nil {
		t.Fatal("garbage CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

// A NaN read ratio used to key ReadCSV's curve map: a NaN key is never found
// again, so the second such row dereferenced a nil curve and took the process
// down from every seam curves arrive through (disk cache, curve server,
// client). Non-finite numbers are rejected where they are parsed.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	const header = "# label: x\n# theoretical_bw_gbs: 10\nread_ratio,bw_gbs,latency_ns\n"
	for name, in := range map[string]string{
		"NaN ratio twice":       header + "NaN,1,90\nNaN,2,95\n",
		"NaN ratio":             header + "nan,1,90\n0.5,1,90\n0.5,2,95\n",
		"Inf bandwidth":         header + "0.5,1,90\n0.5,+Inf,95\n",
		"-Inf latency":          header + "0.5,1,90\n0.5,2,-Inf\n",
		"infinity latency":      header + "0.5,1,90\n0.5,2,infinity\n",
		"NaN theoretical":       "# theoretical_bw_gbs: NaN\n0.5,1,90\n0.5,2,95\n",
		"negative theoretical":  "# theoretical_bw_gbs: -3\n0.5,1,90\n0.5,2,95\n",
		"latency rounds to 0":   header + "0.5,1,90\n0.5,2,0.00001\n",
		"overflowing bandwidth": header + "0.5,1,90\n0.5,1e999,95\n",
	} {
		if fam, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted as %+v", name, fam)
		}
	}
}

func TestMeasuredFamily(t *testing.T) {
	m := func(bw, lat, ratio float64) Measured { return Measured{Point{bw, lat}, ratio} }
	anchor := []Point{{1, 90}}
	fam := MeasuredFamily("x", 100, anchor, [][]Measured{
		{m(10, 95, 1), m(10, 95, 1), m(40, 120, 0.5), m(math.NaN(), 1, 0.5)}, // two of four pruned
		{},                 // nothing measured: the anchor alone is no curve
		{m(1, 90, 0.25)},   // duplicates the anchor: one point left
		{m(20, 100, 0.25)}, // anchor + one point
	})
	if fam.Label != "x" || fam.TheoreticalBW != 100 || len(fam.Curves) != 2 {
		t.Fatalf("family = %+v, want 2 curves", fam)
	}
	// Sorted by ratio; the mean is over the four points measured, not the
	// two that survive sanitizing (which would read 3/2).
	if c := fam.Curves[0]; c.ReadRatio != 0.25 || len(c.Points) != 2 || c.Points[0] != anchor[0] {
		t.Errorf("curve 0 = %+v", c)
	}
	if c := fam.Curves[1]; c.ReadRatio != 0.75 || len(c.Points) != 3 || c.Points[0] != anchor[0] {
		t.Errorf("curve 1 = %+v, want ratio 0.75 over anchor + 2 points", c)
	}
	if got := MeasuredFamily("y", 0, nil, [][]Measured{{m(5, 80, 1), m(9, 85, 1)}}); len(got.Curves) != 1 || len(got.Curves[0].Points) != 2 {
		t.Errorf("without lead points: %+v", got)
	}
}

func TestSanitizePoints(t *testing.T) {
	pts := []Point{
		{1, 90}, {1, 90}, // duplicate
		{math.NaN(), 100},
		{50, math.Inf(1)},
		{60, 120},
	}
	out := sanitizePoints(pts)
	if len(out) != 2 {
		t.Fatalf("sanitized to %d points, want 2: %v", len(out), out)
	}
}

func TestLatencyAtPropertyBounded(t *testing.T) {
	f := NewSynthetic(SyntheticSpec{Label: "prop"})
	prop := func(rRaw, bwRaw uint16) bool {
		ratio := 0.5 + float64(rRaw%5000)/10000.0
		bw := float64(bwRaw%1400) / 10.0
		lat := f.LatencyAt(ratio, bw)
		if !saneFloat(lat) || lat <= 0 {
			return false
		}
		// Within the measured domain, latency must stay within the
		// family's overall envelope.
		maxBW := f.MaxBWAt(ratio)
		if bw <= maxBW {
			m := f.Metrics()
			return lat >= 0.9*m.UnloadedLatencyNs && lat <= 1.2*m.MaxLatencyMaxNs
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestSlopeAtNonNegativeProperty(t *testing.T) {
	f := NewSynthetic(SyntheticSpec{Label: "slope"})
	prop := func(rRaw, bwRaw uint16) bool {
		ratio := 0.5 + float64(rRaw%5000)/10000.0
		bw := float64(bwRaw%1300) / 10.0
		return f.SlopeAt(ratio, bw) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestCurve(t *testing.T) {
	f := NewSynthetic(SyntheticSpec{Label: "n"})
	if c := f.Nearest(0.52); c.ReadRatio != 0.5 {
		t.Fatalf("Nearest(0.52) ratio = %v, want 0.5", c.ReadRatio)
	}
	if c := f.Nearest(0.99); c.ReadRatio != 1.0 {
		t.Fatalf("Nearest(0.99) ratio = %v, want 1.0", c.ReadRatio)
	}
}
