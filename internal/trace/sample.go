// Sampled trace replay: phase-clustered simulation of long application
// traces ("Memory Access Vectors": sample selection clustered by memory-
// access behaviour, not instruction position). The pipeline windows a
// trace into fixed-span segments, fingerprints each window with an access
// vector (row-hit ratio under the platform's address mapping, stride mix,
// read/write ratio, unique-line footprint, arrival rate and burstiness),
// clusters the vectors with a deterministic k-means, replays ONE
// representative window per cluster — preceded by a warm-up prefix of the
// trace records just before it, so queues and row buffers reach the
// window's steady state before measurement starts — and reconstructs the
// full-trace bandwidth and latency estimates as cluster-weighted sums.
// A probe window per cluster, its member farthest from the centroid,
// bounds the within-cluster spread, which becomes the estimate's error bars.
//
// Everything is deterministic: the same trace and configuration produce
// byte-identical estimates. Window order, cluster iteration, the k-means
// seed and all tie-breaks are fixed; no map iteration order leaks into any
// result.
package trace

import (
	"fmt"
	"math"

	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// The sampling pipeline's shape, chosen so that Quick-scale benchmark
// traces replay an order of magnitude fewer records than the full trace
// while staying inside a few percent of the full-replay estimates.
const (
	// sampleWindows is the target number of fixed-span windows the trace
	// is cut into when SampleConfig.Span is 0. The span is
	// Duration/sampleWindows; the last window absorbs the remainder.
	sampleWindows = 128
	// sampleClusters is k for the k-means pass (clamped to the number of
	// non-empty windows).
	sampleClusters = 6
	// sampleWarmupFrac sizes the warm-up prefix replayed (unmeasured)
	// before each window, as a fraction of the window span.
	sampleWarmupFrac = 0.5
)

// SampleConfig parameterizes the sampling pipeline for one trace.
type SampleConfig struct {
	// Span fixes the window span (0 = derive it from the trace duration
	// and the 128-window target).
	Span sim.Time
	// BankRow maps an address to its (flat bank index, row) under the
	// platform's DRAM geometry, for the row-hit-ratio feature: pass
	// dram.Mapper.BankRow for the spec under study. Required.
	BankRow func(addr uint64) (bank int, row int64)
	// Telemetry, when set, records the pipeline's phases — fingerprint,
	// cluster, per-cluster replay, reconstruct — as spans on its tracer
	// and a summary line on its logger. Observation only: estimates are
	// unaffected.
	Telemetry *telemetry.Set
}

// AccessVector is one window's memory-access fingerprint — the feature
// vector the clustering runs on. All components are dimensionless and
// bounded (fractions, or logs normalized over the trace) so no single
// feature dominates the distance metric.
type AccessVector struct {
	RowHit    float64 // same-row-as-previous-access-to-bank ratio
	SeqFrac   float64 // +1-line strides
	NearFrac  float64 // other strides within ±64 lines
	FarFrac   float64 // larger strides (random/irregular)
	ReadFrac  float64 // read share of accesses
	Footprint float64 // log2(1 + unique lines touched)
	Rate      float64 // log2(1 + accesses per µs of window span)
	Burst     float64 // fraction of zero-gap (same-instant) arrivals
}

const nFeat = 8

func (v AccessVector) vec() [nFeat]float64 {
	return [nFeat]float64{v.RowHit, v.SeqFrac, v.NearFrac, v.FarFrac, v.ReadFrac, v.Footprint, v.Rate, v.Burst}
}

// SampleWindow is one fixed-span segment of the trace.
type SampleWindow struct {
	Start, End int      // record index range [Start, End)
	From, To   sim.Time // nominal time interval [From, To)
	Reads      uint64   // read records inside
	Vec        AccessVector
	Cluster    int // assigned cluster; -1 for empty windows
}

// ClusterEstimate is one behaviour cluster's measured contribution to the
// reconstructed estimates.
type ClusterEstimate struct {
	Windows int    // member windows
	Records int    // trace records covered
	Reads   uint64 // read records covered
	Weight  float64
	// Representative-window measurements.
	BWGBs     float64
	ReadLatNs float64
	Stretch   float64 // effective/nominal window time under this backend
	// Probe spread — the cluster's error bars. Zero for single-window
	// clusters, whose representative covers the cluster exactly.
	StretchErr float64
	LatErrNs   float64
}

// SampledResult is the outcome of a sampled replay: full-trace estimates
// reconstructed from per-cluster representative replays, with error bars.
type SampledResult struct {
	// Estimate is the reconstructed full-trace result, comparable field
	// by field with a full Replay of the same trace. Reads counts the
	// trace's read records (what a full replay would complete).
	Estimate ReplayResult
	// BWErrGBs/LatErrNs are the aggregate error bars: the reconstruction
	// re-evaluated with every cluster pushed to the edge of its probe
	// spread.
	BWErrGBs float64
	LatErrNs float64

	Windows         []SampleWindow
	Clusters        []ClusterEstimate
	TotalRecords    int
	ReplayedRecords int // records simulated, warm-up prefixes included
	// SpeedupX is the record-count ratio full/sampled — the work saved.
	SpeedupX float64
}

// DivergencePct reports the sampled estimates' relative divergence from a
// full replay, in percent: max of the bandwidth and latency deviations.
func (r *SampledResult) DivergencePct(full ReplayResult) float64 {
	d := 0.0
	if full.BWGBs > 0 {
		d = math.Abs(r.Estimate.BWGBs-full.BWGBs) / full.BWGBs
	}
	if full.ReadLatNs > 0 {
		if l := math.Abs(r.Estimate.ReadLatNs-full.ReadLatNs) / full.ReadLatNs; l > d {
			d = l
		}
	}
	return 100 * d
}

// Sampled estimates what Replay would report for the trace by replaying
// one representative window (plus probes) per behaviour cluster through
// fresh backend instances built by mk — one instance per replayed window,
// exactly as fig6-class harnesses instantiate a model per measurement
// point. The trace must be time-ordered (Read guarantees it; Capture
// produces it).
func Sampled(mk mem.BackendFactory, t *Trace, cfg SampleConfig) (*SampledResult, error) {
	if cfg.BankRow == nil {
		return nil, fmt.Errorf("trace: sampled replay needs the platform's BankRow mapping")
	}
	if len(t.Records) == 0 {
		return &SampledResult{SpeedupX: 1}, nil
	}
	if !monotonic(t.Records) {
		return nil, fmt.Errorf("trace: sampled replay requires time-ordered records")
	}

	tr := cfg.Telemetry.Trace()
	var track telemetry.Track
	if tr != nil {
		track = tr.NewTrack("trace", "sampled-replay")
	}

	sp := tr.Begin(track, "fingerprint")
	windows, span := cutWindows(t, cfg)
	fingerprint(t, windows, cfg)
	sp.End(telemetry.Int("windows", int64(len(windows))))

	// Cluster the non-empty windows.
	occupied := make([]int, 0, len(windows))
	for i := range windows {
		if windows[i].End > windows[i].Start {
			occupied = append(occupied, i)
		}
	}
	k := min(sampleClusters, len(occupied))
	vecs := make([][nFeat]float64, len(occupied))
	for i, wi := range occupied {
		vecs[i] = windows[wi].Vec.vec()
	}
	sp = tr.Begin(track, "cluster")
	normalize(vecs)
	assign, centers := kmeans(vecs, k)
	for i, wi := range occupied {
		windows[wi].Cluster = assign[i]
	}
	sp.End(telemetry.Int("k", int64(k)), telemetry.Int("occupied", int64(len(occupied))))

	res := &SampledResult{
		Windows:      windows,
		TotalRecords: len(t.Records),
	}

	// Replay each cluster's representative (and probes) with warm-up.
	warm := sim.Time(sampleWarmupFrac * float64(span))
	res.Clusters = make([]ClusterEstimate, k)
	for c := 0; c < k; c++ {
		members := make([]int, 0, 8) // indices into `occupied`
		for i := range occupied {
			if assign[i] == c {
				members = append(members, i)
			}
		}
		ce := &res.Clusters[c]
		ce.Windows = len(members)
		if len(members) == 0 {
			// k-means left the cluster empty (k near the window count);
			// no window references it, so it contributes nothing.
			ce.Stretch = 1
			continue
		}
		for _, m := range members {
			w := &windows[occupied[m]]
			ce.Records += w.End - w.Start
			ce.Reads += w.Reads
		}

		// Replay the member closest to the centroid and, as the probe, the
		// member farthest from it. The cluster estimate is the MEAN of the
		// replayed members — a single window, even the most central one,
		// can be dynamically atypical (the cold trace start, a refresh
		// alignment) in ways its access vector cannot show; averaging the
		// centre with the edge cancels that noise. The error bar is the
		// spread around the mean, and probing the farthest member makes
		// it a worst-case bound, not a flattering one.
		rep := pickClosest(vecs, centers[c], members)
		csp := tr.Begin(track, fmt.Sprintf("replay cluster %d", c))
		sampled := []windowMeasure{replayWindowRange(mk, t, &windows[occupied[rep]], warm)}
		if far := pickFarthest(vecs, centers[c], members, rep); far >= 0 {
			sampled = append(sampled, replayWindowRange(mk, t, &windows[occupied[far]], warm))
		}
		for _, m := range sampled {
			ce.BWGBs += m.bwGBs
			ce.ReadLatNs += m.latNs
			ce.Stretch += m.stretch
			res.ReplayedRecords += m.replayed
		}
		n := float64(len(sampled))
		ce.BWGBs /= n
		ce.ReadLatNs /= n
		ce.Stretch /= n
		for _, m := range sampled {
			if d := math.Abs(m.stretch - ce.Stretch); d > ce.StretchErr {
				ce.StretchErr = d
			}
			if d := math.Abs(m.latNs - ce.ReadLatNs); d > ce.LatErrNs {
				ce.LatErrNs = d
			}
		}
		csp.End(telemetry.Int("windows", int64(ce.Windows)), telemetry.Int("records", int64(ce.Records)))
	}

	sp = tr.Begin(track, "reconstruct")
	reconstruct(t, res)
	sp.End()
	if res.ReplayedRecords > 0 {
		res.SpeedupX = float64(res.TotalRecords) / float64(res.ReplayedRecords)
	} else {
		res.SpeedupX = 1
	}
	cfg.Telemetry.Logger().Debug("sampled replay done",
		"records", res.TotalRecords, "replayed", res.ReplayedRecords,
		"clusters", k, "speedup_x", res.SpeedupX)
	return res, nil
}

// cutWindows splits the trace into fixed-span segments.
func cutWindows(t *Trace, cfg SampleConfig) ([]SampleWindow, sim.Time) {
	base := t.Records[0].At
	dur := t.Duration()
	span := cfg.Span
	if span <= 0 {
		span = dur / sampleWindows
		// A window must cover many memory latencies for queueing to reach
		// steady state inside it; a short trace gets fewer, µs-scale
		// windows rather than the target count of meaningless ones.
		if span < 3*sim.Microsecond {
			span = 3 * sim.Microsecond
		}
		if span > dur {
			span = dur
		}
	}
	if span <= 0 {
		span = 1 // zero-duration trace: one window holds everything
	}
	n := int((dur + span - 1) / span)
	if n < 1 {
		n = 1
	}
	windows := make([]SampleWindow, n)
	ri := 0
	for i := range windows {
		w := &windows[i]
		w.From = base + sim.Time(i)*span
		w.To = w.From + span
		if i == n-1 {
			w.To = base + dur + 1 // absorb remainder; include the last record
		}
		w.Start = ri
		for ri < len(t.Records) && (i == n-1 || t.Records[ri].At < w.To) {
			if !t.Records[ri].Write {
				w.Reads++
			}
			ri++
		}
		w.End = ri
		w.Cluster = -1
	}
	return windows, span
}

// fingerprint computes each window's access vector.
func fingerprint(t *Trace, windows []SampleWindow, cfg SampleConfig) {
	largest := 0
	for i := range windows {
		if n := windows[i].End - windows[i].Start; n > largest {
			largest = n
		}
	}
	sc := newFingerprintScratch(largest)
	for i := range windows {
		w := &windows[i]
		n := w.End - w.Start
		if n == 0 {
			continue
		}
		sc.nextWindow()
		var hits, seq, near, far, reads, burst int
		var prevLine int64 = -1 << 62
		for ri := w.Start; ri < w.End; ri++ {
			rec := &t.Records[ri]
			line := int64(rec.Addr / mem.LineSize)
			if ri > w.Start {
				switch d := line - prevLine; {
				case d == 1:
					seq++
				case d > -64 && d < 64:
					near++
				default:
					far++
				}
				if rec.At == t.Records[ri-1].At {
					burst++
				}
			}
			prevLine = line
			if !rec.Write {
				reads++
			}
			if sc.openRow(cfg.BankRow(rec.Addr)) {
				hits++
			}
			sc.touch(rec.Addr / mem.LineSize)
		}
		w.Vec = AccessVector{
			RowHit:    float64(hits) / float64(n),
			ReadFrac:  float64(reads) / float64(n),
			Footprint: math.Log2(1 + float64(sc.unique)),
		}
		if n > 1 {
			w.Vec.SeqFrac = float64(seq) / float64(n-1)
			w.Vec.NearFrac = float64(near) / float64(n-1)
			w.Vec.FarFrac = float64(far) / float64(n-1)
			w.Vec.Burst = float64(burst) / float64(n-1)
		}
		if spanUs := (w.To - w.From).Seconds() * 1e6; spanUs > 0 {
			w.Vec.Rate = math.Log2(1 + float64(n)/spanUs)
		}
	}
}

// denseBanks is how many flat bank indices (from 0) the row table holds
// in a slice; any real geometry's banks fit. Ids outside the range — a
// custom BankRow may return anything — go to a map.
const denseBanks = 1 << 16

// fingerprintScratch is the per-window state of fingerprint — the open row
// of every bank (idealized: one row buffer per bank, nothing precharges)
// and the set of lines touched — kept in storage that is reused across
// windows. Entries carry the epoch of the window that wrote them, so moving
// to the next window clears both tables by bumping the epoch.
type fingerprintScratch struct {
	epoch uint32

	rows     []int64  // bank -> open row, valid where rowEpoch matches
	rowEpoch []uint32 // grown on demand up to denseBanks
	farRows  map[int]int64

	// Open-addressed, linearly probed set of line numbers, sized at twice
	// the largest window so it never fills.
	lines     []uint64
	lineEpoch []uint32
	lineShift uint
	unique    int // lines touched in this window
}

func newFingerprintScratch(largestWindow int) *fingerprintScratch {
	bits := uint(4)
	for 1<<bits < 2*largestWindow {
		bits++
	}
	return &fingerprintScratch{
		lines:     make([]uint64, 1<<bits),
		lineEpoch: make([]uint32, 1<<bits),
		lineShift: 64 - bits,
	}
}

func (sc *fingerprintScratch) nextWindow() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could pass for current ones
		clear(sc.rowEpoch)
		clear(sc.lineEpoch)
		sc.epoch = 1
	}
	clear(sc.farRows)
	sc.unique = 0
}

// openRow records row as bank's open row and reports whether it already
// was — a row hit.
func (sc *fingerprintScratch) openRow(bank int, row int64) bool {
	if bank < 0 || bank >= denseBanks {
		if sc.farRows == nil {
			sc.farRows = map[int]int64{}
		}
		r, ok := sc.farRows[bank]
		sc.farRows[bank] = row
		return ok && r == row
	}
	if bank >= len(sc.rows) {
		grown := 2 * (bank + 1)
		if grown > denseBanks {
			grown = denseBanks
		}
		sc.rows = append(sc.rows, make([]int64, grown-len(sc.rows))...)
		sc.rowEpoch = append(sc.rowEpoch, make([]uint32, grown-len(sc.rowEpoch))...)
	}
	hit := sc.rowEpoch[bank] == sc.epoch && sc.rows[bank] == row
	sc.rows[bank], sc.rowEpoch[bank] = row, sc.epoch
	return hit
}

// touch adds a line to the window's footprint.
func (sc *fingerprintScratch) touch(line uint64) {
	mask := uint64(len(sc.lines) - 1)
	for i := line * 0x9e3779b97f4a7c15 >> sc.lineShift; ; i = (i + 1) & mask {
		if sc.lineEpoch[i] != sc.epoch {
			sc.lines[i], sc.lineEpoch[i] = line, sc.epoch
			sc.unique++
			return
		}
		if sc.lines[i] == line {
			return
		}
	}
}

// windowMeasure is one replayed window's measurement.
type windowMeasure struct {
	bwGBs    float64
	latNs    float64
	stretch  float64
	replayed int
}

// replayWindowRange replays the window plus its warm-up prefix on a fresh
// engine/backend pair and measures only the window's own records. Stretch
// is the ratio of the time the backend needed for the window over the
// window's nominal span: 1 when the backend keeps up with the trace's
// pacing, > 1 when queueing backs it up — the quantity whose cluster-
// weighted sum reconstructs the full replay's end time.
func replayWindowRange(mk mem.BackendFactory, t *Trace, w *SampleWindow, warm sim.Time) windowMeasure {
	warmStart := w.Start
	warmFrom := w.From - warm
	for warmStart > 0 && t.Records[warmStart-1].At >= warmFrom {
		warmStart--
	}
	recs := t.Records[warmStart:w.End]
	if len(recs) == 0 {
		return windowMeasure{stretch: 1}
	}
	eng := sim.New()
	backend := mk(eng)
	// base is the TRACE start, not the window start: the window replays at
	// its original absolute time, so backend state anchored to the engine
	// clock — the DRAM refresh schedule above all — holds the same phase
	// it had when the full replay (or the original capture) reached this
	// window. Starting every window at t=0 instead would sample refresh
	// non-representatively: a µs-span window sees the first refresh of
	// each rank either always or never, biasing latency either way by
	// more than the whole error budget. The engine simply fast-forwards
	// over the empty prefix.
	rp := &replayer{
		eng: eng, backend: backend, recs: recs,
		base: t.Records[0].At, pool: mem.NewRequestPool(),
		measureFrom: w.Start - warmStart,
	}
	rp.run()

	m := windowMeasure{replayed: len(recs)}
	var lat sim.Time
	if rp.reads > 0 {
		lat = rp.latSum / sim.Time(rp.reads)
		m.latNs = lat.Nanoseconds()
	}
	span := w.To - w.From
	fromRel := w.From - t.Records[0].At // window start on the engine clock
	if fromRel < 0 {
		fromRel = 0
	}
	// Effective window time: last measured read completion minus the
	// window's start, with one mean latency subtracted to cancel the final
	// completion tail a full replay would overlap with the next window's
	// arrivals. The last completion — not the engine drain instant — is
	// the end mark, because backends run internal machinery (refresh
	// timers, queue sweeps) that keeps the engine alive long after the
	// last request finished; drain time would inflate sparse windows'
	// stretch by orders of magnitude.
	eff := rp.lastDone - fromRel - lat
	if eff < span {
		eff = span // a backend cannot finish before the trace stops offering
	}
	m.stretch = float64(eff) / float64(span)
	if bytes := uint64(w.End-w.Start) * mem.LineSize; eff > 0 {
		m.bwGBs = float64(bytes) / eff.Seconds() / 1e9
	}
	return m
}

// reconstruct folds the per-cluster measurements into full-trace
// estimates: estimated replay time is the cluster-weighted sum of window
// spans scaled by each cluster's stretch (plus the final drain tail), and
// estimated latency is the read-weighted mean of cluster latencies. The
// error bars re-evaluate both sums at the edge of every cluster's probe
// spread.
func reconstruct(t *Trace, res *SampledResult) {
	evalTime := func(dir float64) sim.Time {
		var total sim.Time
		for i := range res.Windows {
			w := &res.Windows[i]
			span := w.To - w.From
			if w.Cluster < 0 {
				total += span // empty window: time passes, nothing queues
				continue
			}
			c := &res.Clusters[w.Cluster]
			s := c.Stretch + dir*c.StretchErr
			if s < 1 {
				s = 1
			}
			total += sim.Time(float64(span) * s)
		}
		return total
	}
	// Final drain tail: the last window's reads complete one mean latency
	// after their arrival (a full replay's engine end includes it).
	var tail sim.Time
	for i := len(res.Windows) - 1; i >= 0; i-- {
		if c := res.Windows[i].Cluster; c >= 0 {
			tail = sim.FromNanoseconds(res.Clusters[c].ReadLatNs)
			break
		}
	}

	var latSum, latErrSum, readsSum float64
	for i := range res.Clusters {
		c := &res.Clusters[i]
		latSum += float64(c.Reads) * c.ReadLatNs
		latErrSum += float64(c.Reads) * c.LatErrNs
		readsSum += float64(c.Reads)
	}

	est := ReplayResult{ReadRatio: t.ReadRatio(), Reads: uint64(readsSum)}
	totalTime := evalTime(0) + tail
	if totalTime > 0 {
		est.BWGBs = float64(t.Bytes()) / totalTime.Seconds() / 1e9
	}
	if readsSum > 0 {
		est.ReadLatNs = latSum / readsSum
		res.LatErrNs = latErrSum / readsSum
	}
	res.Estimate = est

	lo, hi := evalTime(1)+tail, evalTime(-1)+tail // more time = less BW
	if hi > 0 && lo > 0 {
		bwHi := float64(t.Bytes()) / hi.Seconds() / 1e9
		bwLo := float64(t.Bytes()) / lo.Seconds() / 1e9
		res.BWErrGBs = (bwHi - bwLo) / 2
	}

	// Cluster bookkeeping for reporting.
	var spanSum float64
	for i := range res.Windows {
		spanSum += float64(res.Windows[i].To - res.Windows[i].From)
	}
	for i := range res.Clusters {
		c := &res.Clusters[i]
		var s float64
		for j := range res.Windows {
			if res.Windows[j].Cluster == i {
				s += float64(res.Windows[j].To - res.Windows[j].From)
			}
		}
		if spanSum > 0 {
			c.Weight = s / spanSum
		}
	}
}

// --- deterministic k-means ----------------------------------------------

// normalize min-max scales each feature dimension into [0,1] in place;
// constant dimensions collapse to 0 so they cannot contribute distance.
func normalize(vecs [][nFeat]float64) {
	if len(vecs) == 0 {
		return
	}
	var lo, hi [nFeat]float64
	for d := 0; d < nFeat; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for i := range vecs {
		for d := 0; d < nFeat; d++ {
			lo[d] = math.Min(lo[d], vecs[i][d])
			hi[d] = math.Max(hi[d], vecs[i][d])
		}
	}
	for i := range vecs {
		for d := 0; d < nFeat; d++ {
			if hi[d] > lo[d] {
				vecs[i][d] = (vecs[i][d] - lo[d]) / (hi[d] - lo[d])
			} else {
				vecs[i][d] = 0
			}
		}
	}
}

func dist2(a, b [nFeat]float64) float64 {
	var s float64
	for d := 0; d < nFeat; d++ {
		dd := a[d] - b[d]
		s += dd * dd
	}
	return s
}

// splitmix64 is the deterministic PRNG behind k-means++ seeding: fixed
// seed, fixed sequence, no dependence on the Go runtime.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// kmeansMaxIter caps k-means iterations; assignment usually stabilizes far
// earlier.
const kmeansMaxIter = 48

// kmeans clusters vecs into k groups with a deterministic k-means++
// seeding and a fixed iteration order: same input, same clustering, every
// run. Assignment ties break toward the lower cluster index; an emptied
// cluster is re-seeded with the point farthest from its current center
// (lowest index on ties).
func kmeans(vecs [][nFeat]float64, k int) (assign []int, centers [][nFeat]float64) {
	n := len(vecs)
	assign = make([]int, n)
	if k <= 0 {
		return assign, nil
	}
	if k > n {
		k = n
	}
	rng := splitmix64(0x6d65737376656373) // "messvecs"
	centers = make([][nFeat]float64, 0, k)
	centers = append(centers, vecs[int(rng.next()%uint64(n))])
	d2 := make([]float64, n)
	for len(centers) < k {
		var sum float64
		for i := range vecs {
			best := math.Inf(1)
			for c := range centers {
				if d := dist2(vecs[i], centers[c]); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += best
		}
		pick := 0
		if sum > 0 {
			r := rng.float() * sum
			for i := range d2 {
				r -= d2[i]
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = int(rng.next() % uint64(n))
		}
		centers = append(centers, vecs[pick])
	}

	counts := make([]int, k)
	for iter := 0; iter < kmeansMaxIter; iter++ {
		changed := false
		for i := range vecs {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := dist2(vecs[i], centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		for c := range centers {
			counts[c] = 0
			for d := 0; d < nFeat; d++ {
				centers[c][d] = 0
			}
		}
		for i := range vecs {
			c := assign[i]
			counts[c]++
			for d := 0; d < nFeat; d++ {
				centers[c][d] += vecs[i][d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed the empty cluster with the point farthest from
				// its (stale) center.
				far, farD := 0, -1.0
				for i := range vecs {
					if d := dist2(vecs[i], centers[c]); d > farD {
						far, farD = i, d
					}
				}
				centers[c] = vecs[far]
				continue
			}
			for d := 0; d < nFeat; d++ {
				centers[c][d] /= float64(counts[c])
			}
		}
	}
	return assign, centers
}

// pickClosest returns the member (index into vecs) nearest the center;
// lowest index wins ties.
func pickClosest(vecs [][nFeat]float64, center [nFeat]float64, members []int) int {
	best, bestD := members[0], math.Inf(1)
	for _, m := range members {
		if d := dist2(vecs[m], center); d < bestD {
			best, bestD = m, d
		}
	}
	return best
}

// pickFarthest returns the member other than skip farthest from the
// center, or -1 when there is none; lowest index wins ties.
func pickFarthest(vecs [][nFeat]float64, center [nFeat]float64, members []int, skip int) int {
	best, bestD := -1, -1.0
	for _, m := range members {
		if m == skip {
			continue
		}
		if d := dist2(vecs[m], center); d > bestD {
			best, bestD = m, d
		}
	}
	return best
}
