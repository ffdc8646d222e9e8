package charz

import (
	"crypto/sha256"
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

// Fingerprint computes the request's cache key. The encoding writes every
// semantically relevant field in a fixed order with explicit field names,
// so reordering struct fields cannot silently alias two distinct
// configurations; adding a new field to Spec or Options requires extending
// this function (the stability test pins the digest of a reference config
// to catch accidental drift).
//
// Execution-only knobs are excluded: Options.Parallelism changes host
// scheduling, not results, and Options.Backend is a function value whose
// identity must instead be carried by Request.Tag.
func Fingerprint(req Request) Key {
	h := sha256.New()
	// v3: device models (CXL expander, remote socket, Optane) now commit
	// completions as tagged entities (DevTagBase) instead of untagged
	// CompleteAt, so exact equal-instant ties against other events can
	// resolve differently than v2 for backends that include a device —
	// v2 curves in shared stores must not satisfy v3 requests.
	// (v2: timed hand-off counted at send; entity-tag tie order.)
	fmt.Fprintf(h, "charz/v3\ntag=%q\nhasBackend=%t\n", req.Tag, req.Options.Backend != nil)
	writeSpec(h, req.Spec)
	writeOptions(h, req.Options.Normalized())
	var k Key
	h.Sum(k[:0])
	return k
}

func writeSpec(w io.Writer, s platform.Spec) {
	fmt.Fprintf(w, "spec.name=%q\nspec.released=%q\nspec.cores=%d\nspec.freqGHz=%v\n",
		s.Name, s.Released, s.Cores, s.FreqGHz)
	d := s.DRAM
	fmt.Fprintf(w, "dram.name=%q\ndram.channels=%d\ndram.ranks=%d\ndram.banks=%d\ndram.rowBytes=%d\n",
		d.Name, d.Channels, d.Ranks, d.Banks, d.RowBytes)
	t := d.Timing
	fmt.Fprintf(w, "dram.timing=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		t.TCK, t.Burst, t.CL, t.RCD, t.RP, t.RAS, t.WR, t.WTR, t.RTW, t.RTP, t.CCD, t.RRD, t.FAW, t.REFI, t.RFC)
	fmt.Fprintf(w, "dram.writeHi=%d\ndram.writeLo=%d\ndram.idleClose=%d\ndram.ctrlLatency=%d\n",
		d.WriteHi, d.WriteLo, d.IdleClose, d.CtrlLatency)
	// dram.xorBankRow and dram.ageCap are literals: the options are gone,
	// and the lines keep v3 keys byte-identical until the charz/v4 bump
	// drops them.
	fmt.Fprintf(w, "dram.frfcfsWindow=%d\ndram.xorBankRow=false\ndram.bypassCap=%d\ndram.ageCap=0\n",
		d.FRFCFSWindow, d.BypassCap)
	fmt.Fprintf(w, "spec.policy=%d\nspec.onChipLatency=%d\nspec.mshrs=%d\nspec.writeBufs=%d\nspec.writebackLag=%d\nspec.unloadedNs=%v\n",
		s.Policy, s.OnChipLatency, s.MSHRs, s.WriteBufs, s.WritebackLag, s.UnloadedLatencyNs)
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
	fmt.Fprintf(w, "\nopt.warmup=%d\nopt.measure=%d\nopt.chaseLines=%d\nopt.arrayBytes=%d\n",
		o.Warmup, o.Measure, o.ChaseLines, o.ArrayBytes)
	writeCacheOverride(w, o.Cache)
}

func writeCacheOverride(w io.Writer, c *cache.Config) {
	if c == nil {
		fmt.Fprintf(w, "opt.cache=nil\n")
		return
	}
	// The trailing 0 is the LLC-draw seed field the cache config no longer
	// has; it stays so every key is unchanged.
	fmt.Fprintf(w, "opt.cache=%d,%d,%d,%d,%d,%v,%d,%t,0\n",
		c.Policy, c.OnChipLatency, c.MSHRs, c.WriteBufs, c.WritebackLag,
		c.LLCHitRate, c.LLCHitLatency, c.EvictCleanAsDirty)
}
