package charz

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/workloads"
)

// ArtifactRequest names one deterministic simulation output other than a
// curve family — a workload suite's results, a set of trace replays, a
// profiled run's counter windows — by everything it is computed from.
// Inputs that are code (a fixed kernel list, a phase program) are named by
// Kind; everything else goes in the typed fields or, canonically written
// by the caller, in Tag.
type ArtifactRequest struct {
	// Kind names what is computed, e.g. "workloads.stream"; it also
	// checks a stored file is the artifact its name says.
	Kind string
	// Spec is the simulated platform.
	Spec platform.Spec
	// Bench, when set, is the benchmark sweep the artifact runs or
	// captures from; keyed like a family's options (normalized, so
	// Parallelism and Telemetry do not move the key).
	Bench *bench.Options
	// Workload, when set, configures the workload runs; its Backend, a
	// function value, must be identified by Tag.
	Workload *workloads.Options
	// Tag carries the remaining inputs: backend identities, record
	// limits, durations.
	Tag string
	// Ref is the key of the reference family the artifact is computed
	// from (a model backend built over it); zero when none.
	Ref Key
}

// ArtifactKey computes the request's cache key: SHA-256 over the same
// version line as Fingerprint — one bump invalidates families and
// artifacts together — then the kind and every input, field by field.
func ArtifactKey(req ArtifactRequest) Key {
	h := sha256.New()
	fmt.Fprintf(h, "charz/v3\nartifact=%q\ntag=%q\nref=%s\n", req.Kind, req.Tag, req.Ref)
	writeSpec(h, req.Spec)
	if req.Bench != nil {
		fmt.Fprintf(h, "bench=true\nbench.hasBackend=%t\n", req.Bench.Backend != nil)
		writeOptions(h, req.Bench.Normalized())
	}
	if req.Workload != nil {
		writeWorkloadOptions(h, *req.Workload)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func writeWorkloadOptions(w io.Writer, o workloads.Options) {
	fmt.Fprintf(w, "wl.cores=%d\nwl.warmup=%d\nwl.measure=%d\nwl.llcHitRate=%v\nwl.hasBackend=%t\n",
		o.Cores, o.Warmup, o.Measure, o.LLCHitRate, o.Backend != nil)
}

// Memo returns what compute produces for req, computing it at most once
// per key per process and, with a disk store, at most once ever. It runs
// the cache loop families run — singleflight, cancellation, errors not
// cached — and counts in the same Stats. The entry keeps the output's
// JSON encoding and every caller decodes a private copy, so callers may
// modify what they get. An output must be JSON-encodable (no NaN or
// infinite float): one that is not fails the request.
func Memo[T any](ctx context.Context, s *Service, req ArtifactRequest, compute func(context.Context) (T, error)) (T, error) {
	var out T
	key := ArtifactKey(req)
	e, err := s.resolve(ctx, key, func(e *entry) {
		s.fillArtifact(ctx, key, e, req.Kind, func(b []byte) error {
			_, err := decodeCanonical[T](b)
			return err
		}, func(ctx context.Context) ([]byte, error) {
			v, err := compute(ctx)
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		})
	}, nil)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(e.blob, &out)
	return out, err
}

// decodeCanonical decodes b as a T, accepting only the one encoding of a
// T: b must encode back to the same bytes. That rejects unknown, missing
// and reordered fields, wrong types and trailing data alike.
func decodeCanonical[T any](b []byte) (T, error) {
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		return v, err
	}
	if re, err := json.Marshal(v); err != nil || !bytes.Equal(re, b) {
		return v, fmt.Errorf("charz: artifact is not in its canonical encoding")
	}
	return v, nil
}

// fillArtifact is fill for an artifact entry: the disk store, then
// compute, whose output is saved. A stored file that fails check reads as
// a miss (and is quarantined by the store).
func (s *Service) fillArtifact(ctx context.Context, key Key, e *entry, kind string, check func([]byte) error, compute func(context.Context) ([]byte, error)) {
	defer s.traceFill(e, "artifact "+kind, "artifact", kind)()
	defer close(e.done)
	if s.store != nil {
		if blob, ok := s.store.loadArtifact(ctx, s.store.artifactPath(key), key, kind, check); ok {
			s.diskHits.Add(1)
			e.blob, e.src = blob, SourceDisk
			return
		}
	}
	if err := ctx.Err(); err != nil {
		e.err = err
		return
	}
	s.runs.Add(1)
	blob, err := compute(ctx)
	if err != nil {
		e.err = err
		return
	}
	e.blob, e.src = blob, SourceRun
	if s.store != nil {
		// Best-effort and cancellation-proof, as for families.
		_ = s.store.saveArtifact(context.WithoutCancel(ctx), s.store.artifactPath(key), key, kind, blob)
	}
}

// artifactFile is the on-disk envelope of an artifact or a run's samples:
// the key and kind it was stored under beside the value's encoding.
type artifactFile struct {
	Key   string          `json:"key"`
	Kind  string          `json:"kind"`
	Value json.RawMessage `json:"value"`
}

func encodeArtifact(key Key, kind string, value []byte) ([]byte, error) {
	return json.Marshal(artifactFile{Key: key.String(), Kind: kind, Value: value})
}

// decodeArtifact returns the value of an artifact file stored for key and
// kind. It accepts only what encodeArtifact writes for a value check
// accepts: anything else — garbage, a truncated or edited file, another
// key's or kind's file — is an error.
func decodeArtifact(data []byte, key Key, kind string, check func([]byte) error) ([]byte, error) {
	var f artifactFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if f.Key != key.String() || f.Kind != kind {
		return nil, fmt.Errorf("charz: file holds %s %q, want %s %q", f.Key, f.Kind, key, kind)
	}
	if err := check(f.Value); err != nil {
		return nil, err
	}
	re, err := encodeArtifact(key, kind, f.Value)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(re, data) {
		return nil, fmt.Errorf("charz: artifact file is not in its canonical encoding")
	}
	return f.Value, nil
}

// samplesKind is the kind a run's samples are stored under, beside its
// family.
const samplesKind = "bench.samples"

// checkSamples accepts the canonical encoding of one sample per sweep
// point of opt, in sweep order (mix-major, as bench.RunContext emits
// them): a samples file whose count or grid disagrees with the request
// its family was measured for is not its samples.
func checkSamples(opt bench.Options) func([]byte) error {
	o := opt.Normalized()
	return func(b []byte) error {
		samples, err := decodeCanonical[[]bench.Sample](b)
		if err != nil {
			return err
		}
		paces := len(o.PacesNs)
		if len(samples) != len(o.Mixes)*paces {
			return fmt.Errorf("charz: %d samples for a %d-point sweep", len(samples), len(o.Mixes)*paces)
		}
		for i, sm := range samples {
			if sm.Mix != o.Mixes[i/paces] || sm.PaceNs != o.PacesNs[i%paces] {
				return fmt.Errorf("charz: sample %d is %v at %v ns, not its sweep point", i, sm.Mix, sm.PaceNs)
			}
		}
		return nil
	}
}
