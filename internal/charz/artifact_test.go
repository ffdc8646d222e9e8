package charz

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
	"github.com/mess-sim/mess/internal/workloads"
)

// testArtifact is the shape the artifact tests memoise.
type testArtifact struct {
	Name   string
	Values []float64
	Steps  uint64
}

func artifactRequest() ArtifactRequest {
	opt := bench.QuickOptions()
	return ArtifactRequest{
		Kind: "test.artifact", Spec: testSpec("art"), Bench: &opt,
		Workload: &workloads.Options{Warmup: 5 * sim.Microsecond, Measure: 20 * sim.Microsecond},
		Tag:      "model:fixed",
	}
}

// counted returns a compute func that counts its calls and produces a
// fixed artifact.
func counted(calls *atomic.Int64) func(context.Context) (testArtifact, error) {
	return func(context.Context) (testArtifact, error) {
		calls.Add(1)
		return testArtifact{Name: "a", Values: []float64{1.5, -0.25, 3e-9}, Steps: 7}, nil
	}
}

func TestArtifactKeyStability(t *testing.T) {
	k := ArtifactKey(artifactRequest())
	if k != ArtifactKey(artifactRequest()) {
		t.Fatal("identical requests key differently")
	}
	// Execution-only knobs must not move the key.
	for name, mutate := range map[string]func(*ArtifactRequest){
		"parallelism": func(r *ArtifactRequest) { r.Bench.Parallelism = 7 },
		"telemetry":   func(r *ArtifactRequest) { r.Bench.Telemetry = &telemetry.Set{Metrics: telemetry.NewRegistry()} },
	} {
		r := artifactRequest()
		mutate(&r)
		if ArtifactKey(r) != k {
			t.Errorf("%s moved the artifact key", name)
		}
	}
	// Every input must move it.
	mutations := []struct {
		name   string
		mutate func(*ArtifactRequest)
	}{
		{"kind", func(r *ArtifactRequest) { r.Kind = "test.other" }},
		{"tag", func(r *ArtifactRequest) { r.Tag = "model:md1" }},
		{"ref", func(r *ArtifactRequest) { r.Ref = Fingerprint(Request{Spec: r.Spec}) }},
		{"spec name", func(r *ArtifactRequest) { r.Spec.Name = "other" }},
		{"spec cores", func(r *ArtifactRequest) { r.Spec.Cores++ }},
		{"dram channels", func(r *ArtifactRequest) { r.Spec.DRAM.Channels++ }},
		{"dram CL", func(r *ArtifactRequest) { r.Spec.DRAM.Timing.CL += sim.Nanosecond }},
		{"no bench", func(r *ArtifactRequest) { r.Bench = nil }},
		{"bench mixes", func(r *ArtifactRequest) { r.Bench.Mixes = []bench.Mix{{StorePercent: 40}} }},
		{"bench paces", func(r *ArtifactRequest) { r.Bench.PacesNs = []float64{16} }},
		{"bench measure", func(r *ArtifactRequest) { r.Bench.Measure = 192 * sim.Microsecond }},
		{"bench backend", func(r *ArtifactRequest) {
			r.Bench.Backend = func(*sim.Engine) (b mem.Backend) { return b }
		}},
		{"no workload", func(r *ArtifactRequest) { r.Workload = nil }},
		{"workload cores", func(r *ArtifactRequest) { r.Workload.Cores = 4 }},
		{"workload warmup", func(r *ArtifactRequest) { r.Workload.Warmup = 10 * sim.Microsecond }},
		{"workload measure", func(r *ArtifactRequest) { r.Workload.Measure = 40 * sim.Microsecond }},
		{"workload LLC hits", func(r *ArtifactRequest) { r.Workload.LLCHitRate = 0.5 }},
		{"workload backend", func(r *ArtifactRequest) {
			r.Workload.Backend = func(*sim.Engine) (b mem.Backend) { return b }
		}},
	}
	seen := map[Key]string{k: "base"}
	for _, m := range mutations {
		r := artifactRequest()
		w := *r.Workload
		r.Workload = &w
		o := *r.Bench
		r.Bench = &o
		m.mutate(&r)
		got := ArtifactKey(r)
		if prev, dup := seen[got]; dup {
			t.Errorf("mutation %q gives the key of %q", m.name, prev)
		}
		seen[got] = m.name
	}
	// An artifact never takes a family's key.
	if k == Fingerprint(Request{Spec: artifactRequest().Spec, Options: *artifactRequest().Bench, Tag: "model:fixed"}) {
		t.Error("an artifact key equals a family key")
	}
}

func TestMemoDedupsAndHandsOutCopies(t *testing.T) {
	var calls atomic.Int64
	svc := New(Config{})
	var wg sync.WaitGroup
	got := make([]testArtifact, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = Memo(bg, svc, artifactRequest(), counted(&calls)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("8 concurrent callers computed %d times, want 1", calls.Load())
	}
	got[0].Values[0] = 99 // a private copy: no other caller sees it
	again, err := Memo(bg, svc, artifactRequest(), counted(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if again.Values[0] != 1.5 || got[1].Values[0] != 1.5 {
		t.Fatal("a caller's edit reached another caller's artifact")
	}
	if st := svc.Stats(); st.Runs != 1 || st.MemoryHits != 8 {
		t.Fatalf("stats = %+v, want 1 run and 8 memory hits", st)
	}
}

func TestMemoErrorsAreNotCached(t *testing.T) {
	svc := New(Config{})
	boom := errors.New("boom")
	fail := func(context.Context) (testArtifact, error) { return testArtifact{}, boom }
	if _, err := Memo(bg, svc, artifactRequest(), fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var calls atomic.Int64
	if _, err := Memo(bg, svc, artifactRequest(), counted(&calls)); err != nil || calls.Load() != 1 {
		t.Fatalf("retry after a failure: err=%v calls=%d", err, calls.Load())
	}
	// An output the encoding cannot represent fails its request.
	nan := func(context.Context) (float64, error) { return nanValue(), nil }
	req := artifactRequest()
	req.Kind = "test.nan"
	if _, err := Memo(bg, svc, req, nan); err == nil {
		t.Fatal("a NaN artifact was accepted")
	}
}

func nanValue() float64 {
	zero := 0.0
	return zero / zero
}

func TestMemoPersistsAcrossServices(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	cold, err := Memo(bg, New(Config{Store: store}), artifactRequest(), counted(&calls))
	if err != nil {
		t.Fatal(err)
	}
	warmSvc := New(Config{Store: store})
	warm, err := Memo(bg, warmSvc, artifactRequest(), counted(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm: calls=%d cold=%+v warm=%+v", calls.Load(), cold, warm)
	}
	if st := warmSvc.Stats(); st.Runs != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want one disk hit", st)
	}
	if _, err := os.Stat(store.artifactPath(ArtifactKey(artifactRequest()))); err != nil {
		t.Fatal(err)
	}
}

// TestHostileArtifactFilesRecompute writes each kind of bad file where an
// artifact belongs: every one reads as a miss, is quarantined as *.bad and
// is recomputed and re-saved.
func TestHostileArtifactFilesRecompute(t *testing.T) {
	req := artifactRequest()
	key := ArtifactKey(req)
	good, err := encodeArtifact(key, req.Kind, []byte(`{"Name":"a","Values":[1.5,-0.25,3e-9],"Steps":7}`))
	if err != nil {
		t.Fatal(err)
	}
	other, _ := encodeArtifact(Fingerprint(Request{Spec: req.Spec}), req.Kind, []byte(`{"Name":"a","Values":[1.5],"Steps":7}`))
	wrongKind, _ := encodeArtifact(key, "test.other", []byte(`{"Name":"a","Values":[1.5],"Steps":7}`))
	for name, data := range map[string][]byte{
		"garbage":       []byte("\x00\xffnot json at all"),
		"empty":         nil,
		"truncated":     good[:len(good)/2],
		"extra field":   []byte(`{"key":"` + key.String() + `","kind":"test.artifact","value":{"Name":"a","Values":[1.5],"Steps":7,"Extra":1}}`),
		"missing field": []byte(`{"key":"` + key.String() + `","kind":"test.artifact","value":{"Name":"a","Values":[1.5]}}`),
		"wrong type":    []byte(`{"key":"` + key.String() + `","kind":"test.artifact","value":{"Name":"a","Values":"1.5","Steps":7}}`),
		"bare value":    []byte(`{"Name":"a","Values":[1.5],"Steps":7}`),
		"not canonical": append([]byte(" "), good...),
		"trailing data": append(append([]byte(nil), good...), "{}"...),
		"other key":     other,
		"other kind":    wrongKind,
	} {
		t.Run(name, func(t *testing.T) {
			store, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := store.artifactPath(key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			svc := New(Config{Store: store})
			got, err := Memo(bg, svc, req, counted(&calls))
			if err != nil {
				t.Fatal(err)
			}
			if calls.Load() != 1 || got.Steps != 7 {
				t.Fatalf("calls=%d got=%+v, want one recomputation", calls.Load(), got)
			}
			if _, err := os.Stat(path + ".bad"); err != nil {
				t.Fatalf("bad file not quarantined: %v", err)
			}
			healed, err := os.ReadFile(path)
			if err != nil || string(healed) != string(good) {
				t.Fatalf("re-saved file = %q (%v), want %q", healed, err, good)
			}
		})
	}
}

// gridRun is a fake runner whose samples are one per sweep point, in sweep
// order, as bench.RunContext's are.
func gridRun(calls *atomic.Int64) RunFunc {
	fake := fakeRun(calls, 0)
	return func(ctx context.Context, spec platform.Spec, opt bench.Options) (*bench.Result, error) {
		res, err := fake(ctx, spec, opt)
		if err != nil {
			return nil, err
		}
		o := opt.Normalized()
		res.Samples = nil
		for _, m := range o.Mixes {
			for _, p := range o.PacesNs {
				res.Samples = append(res.Samples, bench.Sample{Mix: m, PaceNs: p, BWGBs: p + 1, LatNs: 100, RdRatio: 1, RowHit: 0.5})
			}
		}
		return res, nil
	}
}

// TestSamplesFileDisagreeingWithFamilyResimulates: a samples file whose
// count or sweep points disagree with the request its family was measured
// for is quarantined, and the request re-simulates.
func TestSamplesFileDisagreeingWithFamilyResimulates(t *testing.T) {
	req := Request{Spec: testSpec("samples"), Options: bench.QuickOptions(), NeedSamples: true}
	key := Fingerprint(req)
	for name, edit := range map[string]func([]bench.Sample) []bench.Sample{
		"one short":   func(s []bench.Sample) []bench.Sample { return s[:len(s)-1] },
		"one extra":   func(s []bench.Sample) []bench.Sample { return append(s, s[0]) },
		"reordered":   func(s []bench.Sample) []bench.Sample { s[0], s[1] = s[1], s[0]; return s },
		"another mix": func(s []bench.Sample) []bench.Sample { s[0].Mix.StorePercent = 99; return s },
	} {
		t.Run(name, func(t *testing.T) {
			store, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			cold, err := New(Config{Run: gridRun(&calls), Store: store}).Characterize(req)
			if err != nil {
				t.Fatal(err)
			}
			bad := edit(append([]bench.Sample(nil), cold.Result.Samples...))
			if err := store.saveSamples(bg, key, bad); err != nil {
				t.Fatal(err)
			}
			svc := New(Config{Run: gridRun(&calls), Store: store})
			art, err := svc.Characterize(req)
			if err != nil {
				t.Fatal(err)
			}
			if art.Source != SourceRun || calls.Load() != 2 {
				t.Fatalf("source=%v calls=%d, want a re-simulation", art.Source, calls.Load())
			}
			if _, err := os.Stat(store.samplesPath(key) + ".bad"); err != nil {
				t.Fatalf("samples file not quarantined: %v", err)
			}
			if !reflect.DeepEqual(art.Result.Samples, cold.Result.Samples) {
				t.Fatal("re-simulated samples differ")
			}
		})
	}
}

// FuzzArtifactDecode holds decodeArtifact to its contract on any bytes: no
// panic, and whatever it accepts is exactly the file encodeArtifact writes
// for the accepted value, which the value's check accepts.
func FuzzArtifactDecode(f *testing.F) {
	key := ArtifactKey(artifactRequest())
	const kind = "test.artifact"
	good, _ := encodeArtifact(key, kind, []byte(`{"Name":"a","Values":[1.5,-0.25],"Steps":7}`))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"key":"` + key.String() + `","kind":"test.artifact","value":{"Name":"a","Values":null,"Steps":0}}`))
	f.Add([]byte(`{"key":"` + key.String() + `","kind":"test.artifact","value":null}`))
	f.Add([]byte("null"))
	f.Add([]byte{})
	check := func(b []byte) error {
		_, err := decodeCanonical[testArtifact](b)
		return err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		value, err := decodeArtifact(data, key, kind, check)
		if err != nil {
			return
		}
		if err := check(value); err != nil {
			t.Fatalf("accepted a value its check rejects: %v", err)
		}
		re, err := encodeArtifact(key, kind, value)
		if err != nil || string(re) != string(data) {
			t.Fatalf("accepted %q, which re-encodes as %q (%v)", data, re, err)
		}
		var v testArtifact
		if err := json.Unmarshal(value, &v); err != nil {
			t.Fatalf("accepted value does not decode: %v", err)
		}
	})
}
