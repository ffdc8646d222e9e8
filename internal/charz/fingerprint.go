package charz

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/curvestore"
	"github.com/mess-sim/mess/internal/platform"
)

// Key is the content-addressed identity of a characterization: a SHA-256
// digest over a canonical encoding of the platform spec, the normalized
// benchmark options and the backend tag. Equal keys mean the simulation
// would produce bit-identical curve families, so one result can serve every
// requester — in memory within a process and on disk across processes.
// The type lives in curvestore, the storage layer shared by every tier;
// this alias keeps charz's API stable.
type Key = curvestore.Key

//go:embed result_digests.txt
var resultDigests []byte

// version opens every key: "charz/" and 16 hex digits of the results
// golden's SHA-256 (see "The pins" in the package doc).
var version = func() string {
	sum := sha256.Sum256(resultDigests)
	return "charz/" + hex.EncodeToString(sum[:8])
}()

// Fingerprint computes the request's cache key. The encoding writes every
// semantically relevant field in a fixed order with explicit field names,
// so reordering struct fields cannot silently alias two distinct
// configurations; adding a new field to Spec or Options requires extending
// this function (TestFingerprintStability varies every keyed field).
//
// Excluded: Spec's Table I reference ranges (see its doc);
// execution-only knobs — Options.Parallelism changes host scheduling, not
// results; and Options.Backend, a function value whose identity must
// instead be carried by Request.Tag.
func Fingerprint(req Request) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\ntag=%q\nhasBackend=%t\n", version, req.Tag, req.Options.Backend != nil)
	writeSpec(h, req.Spec)
	writeOptions(h, req.Options.Normalized())
	var k Key
	h.Sum(k[:0])
	return k
}

func writeSpec(w io.Writer, s platform.Spec) {
	fmt.Fprintf(w, "spec.name=%q\nspec.cores=%d\nspec.freqGHz=%v\n", s.Name, s.Cores, s.FreqGHz)
	d := s.DRAM
	fmt.Fprintf(w, "dram.name=%q\ndram.channels=%d\ndram.ranks=%d\ndram.banks=%d\ndram.rowBytes=%d\n",
		d.Name, d.Channels, d.Ranks, d.Banks, d.RowBytes)
	t := d.Timing
	fmt.Fprintf(w, "dram.timing=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		t.TCK, t.Burst, t.CL, t.RCD, t.RP, t.RAS, t.WR, t.WTR, t.RTW, t.RTP, t.CCD, t.RRD, t.FAW, t.REFI, t.RFC)
	fmt.Fprintf(w, "dram.writeHi=%d\ndram.writeLo=%d\ndram.idleClose=%d\ndram.ctrlLatency=%d\n",
		d.WriteHi, d.WriteLo, d.IdleClose, d.CtrlLatency)
	fmt.Fprintf(w, "dram.frfcfsWindow=%d\ndram.bypassCap=%d\n",
		d.FRFCFSWindow, d.BypassCap)
	fmt.Fprintf(w, "spec.policy=%d\nspec.onChipLatency=%d\nspec.mshrs=%d\nspec.writeBufs=%d\nspec.unloadedNs=%v\n",
		s.Policy, s.OnChipLatency, s.MSHRs, s.WriteBufs, s.UnloadedLatencyNs)
}

func writeOptions(w io.Writer, o bench.Options) {
	fmt.Fprintf(w, "opt.mixes=")
	for _, m := range o.Mixes {
		fmt.Fprintf(w, "%d:%t;", m.StorePercent, m.NonTemporal)
	}
	fmt.Fprintf(w, "\nopt.pacesNs=")
	for _, p := range o.PacesNs {
		fmt.Fprintf(w, "%v;", p)
	}
	fmt.Fprintf(w, "\nopt.warmup=%d\nopt.measure=%d\n", o.Warmup, o.Measure)
	writeCacheOverride(w, o.Cache)
}

func writeCacheOverride(w io.Writer, c *cache.Config) {
	if c == nil {
		fmt.Fprintf(w, "opt.cache=nil\n")
		return
	}
	fmt.Fprintf(w, "opt.cache=%d,%d,%d,%d,%v,%d,%t\n",
		c.Policy, c.OnChipLatency, c.MSHRs, c.WriteBufs, c.LLCHitRate, c.LLCHitLatency, c.EvictCleanAsDirty)
}
