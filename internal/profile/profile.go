// Package profile implements the Mess application profiling of Sec. VI:
// sample the memory-bandwidth counters of a running application on a fixed
// period (Extrae's role), position every sample on the platform's
// bandwidth–latency curves, derive the memory stress score, and correlate
// the samples with the application's phase timeline (Paraver's role).
package profile

import (
	"bufio"
	"fmt"
	"io"

	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

// CounterWindow is one raw sampling window: the traffic delta between two
// counter reads.
type CounterWindow struct {
	Start, End sim.Time
	Traffic    mem.Counters
}

// Sampler periodically snapshots a counting backend, building the raw
// window stream. It must be driven by RunUntil on the same engine. The
// period rides on one expiry callback, built once, that each sample
// schedules again, so sampling allocates no closure per window. At most
// one expiry is queued. Stop clears a flag, the way cpu.Generator stops:
// the expiry already queued still fires, records nothing and schedules no
// successor.
type Sampler struct {
	eng      *sim.Engine
	counting *mem.CountingBackend
	every    sim.Time

	running bool
	prev    mem.Counters
	prevAt  sim.Time
	windows []CounterWindow
	queued  bool           // an expiry is pending
	tick    func(sim.Time) // the expiry callback
}

// NewSampler builds a sampler with the given period (the paper's default
// Extrae configuration samples every 10 ms of real time; simulations use
// proportionally shorter windows).
func NewSampler(eng *sim.Engine, counting *mem.CountingBackend, every sim.Time) *Sampler {
	if every <= 0 {
		panic("profile: sampler period must be positive")
	}
	s := &Sampler{eng: eng, counting: counting, every: every}
	s.tick = func(now sim.Time) {
		s.queued = false
		s.sample(now)
	}
	return s
}

// Start begins sampling at the current time. After a Stop whose expiry is
// still queued, the first window closes at that expiry.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.prev = s.counting.Snapshot()
	s.prevAt = s.eng.Now()
	if !s.queued {
		s.schedule(s.prevAt + s.every)
	}
}

// schedule queues the next expiry.
func (s *Sampler) schedule(at sim.Time) {
	s.queued = true
	s.eng.Schedule(at, s.tick)
}

// sample closes the current window at each expiry and opens the next.
func (s *Sampler) sample(now sim.Time) {
	if !s.running {
		return
	}
	cur := s.counting.Snapshot()
	s.windows = append(s.windows, CounterWindow{
		Start:   s.prevAt,
		End:     now,
		Traffic: cur.Sub(s.prev),
	})
	s.prev, s.prevAt = cur, now
	s.schedule(now + s.every)
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.running = false }

// Windows reports the collected raw windows.
func (s *Sampler) Windows() []CounterWindow { return s.windows }

// PhaseSpan is a labelled interval of the application timeline, as a
// PhasedApp records them.
type PhaseSpan = workloads.PhaseSpan

// Sample is one analyzed profiling window: the application's position on
// the curves plus the derived stress score and its timeline context.
type Sample struct {
	Start, End sim.Time
	BWGBs      float64
	LatencyNs  float64
	Stress     float64
	Phase      string
	MPI        bool
}

// Profile is a complete application profile.
type Profile struct {
	Label   string
	Family  *core.Family
	Samples []Sample
}

// Build analyzes raw counter windows against the platform's curve family.
// phases may be nil; when given, each sample is tagged with the phase that
// overlaps it the most.
func Build(label string, fam *core.Family, windows []CounterWindow, phases []PhaseSpan, w core.StressWeights) *Profile {
	p := &Profile{Label: label, Family: fam}
	for _, win := range windows {
		dur := win.End - win.Start
		if dur <= 0 {
			continue
		}
		bw := win.Traffic.BandwidthGBs(dur)
		ratio := win.Traffic.ReadRatio()
		s := Sample{
			Start:     win.Start,
			End:       win.End,
			BWGBs:     bw,
			LatencyNs: fam.LatencyAt(ratio, bw),
			Stress:    fam.StressScore(ratio, bw, w),
		}
		if ph, mpi, ok := dominantPhase(phases, win.Start, win.End); ok {
			s.Phase, s.MPI = ph, mpi
		}
		p.Samples = append(p.Samples, s)
	}
	return p
}

// Record runs the application for dur of simulated time with the sampler
// on at the 10 µs period and returns the raw windows: the simulation half
// of Run.
func Record(app *workloads.PhasedApp, dur sim.Time) []CounterWindow {
	sampler := NewSampler(app.Eng, app.Counting, 10*sim.Microsecond)
	sampler.Start()
	app.Run(dur)
	sampler.Stop()
	return sampler.Windows()
}

// Run profiles the application for dur of simulated time (Record) and
// analyzes the windows against the curve family with the paper's stress
// weights and the app's own phase timeline.
func Run(app *workloads.PhasedApp, label string, fam *core.Family, dur sim.Time) *Profile {
	windows := Record(app, dur)
	return Build(label, fam, windows, app.Events(), core.DefaultStressWeights)
}

func dominantPhase(phases []PhaseSpan, start, end sim.Time) (string, bool, bool) {
	var bestName string
	var bestMPI bool
	var bestOverlap sim.Time
	for _, ph := range phases {
		lo, hi := max(ph.Start, start), min(ph.End, end)
		if hi > lo && hi-lo > bestOverlap {
			bestOverlap = hi - lo
			bestName, bestMPI = ph.Name, ph.MPI
		}
	}
	return bestName, bestMPI, bestOverlap > 0
}

// SaturatedFraction reports the fraction of samples whose bandwidth lies in
// the family's saturated region (the Fig. 15 observation that most of HPCG
// runs above the saturation onset).
func (p *Profile) SaturatedFraction() float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	m := p.Family.Metrics()
	n := 0
	for _, s := range p.Samples {
		if s.BWGBs >= m.SatBWLowGBs {
			n++
		}
	}
	return float64(n) / float64(len(p.Samples))
}

// MaxStress reports the highest stress score observed.
func (p *Profile) MaxStress() float64 {
	max := 0.0
	for _, s := range p.Samples {
		if s.Stress > max {
			max = s.Stress
		}
	}
	return max
}

// MeanStressByPhase aggregates the stress score per phase name, preserving
// first-appearance order.
func (p *Profile) MeanStressByPhase() ([]string, map[string]float64) {
	sums := map[string]float64{}
	counts := map[string]int{}
	var order []string
	for _, s := range p.Samples {
		if s.Phase == "" {
			continue
		}
		if _, seen := counts[s.Phase]; !seen {
			order = append(order, s.Phase)
		}
		sums[s.Phase] += s.Stress
		counts[s.Phase]++
	}
	out := make(map[string]float64, len(sums))
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return order, out
}

// WriteTrace emits the profile as a Paraver-flavoured timestamped trace:
// one record per sample with start/end (ns), bandwidth, latency, stress
// score and phase. The format is line-oriented and diff-friendly:
//
//	sample:<start_ns>:<end_ns>:<bw_gbs>:<latency_ns>:<stress>:<phase>
func (p *Profile) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# mess profile: %s\n", p.Label)
	fmt.Fprintf(bw, "# family: %s (theoretical %.1f GB/s)\n", p.Family.Label, p.Family.TheoreticalBW)
	for _, s := range p.Samples {
		phase := s.Phase
		if phase == "" {
			phase = "-"
		}
		fmt.Fprintf(bw, "sample:%d:%d:%.3f:%.2f:%.3f:%s\n",
			int64(s.Start/sim.Nanosecond), int64(s.End/sim.Nanosecond),
			s.BWGBs, s.LatencyNs, s.Stress, phase)
	}
	return bw.Flush()
}
