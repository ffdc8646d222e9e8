package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
)

const keysGolden = "testdata/request_keys.txt"

// TestRequestKeysGolden pins the charz key of every reference request the
// shipped tools make: each Table I platform and simulator configuration at
// both scales, the Fig. 10 and Fig. 12 memory systems, and messbench's
// default sweep on each platform; then the key of every artifact the
// registry memoises, at both scales. A key that moves orphans everything
// stored under it, so only a change that means to move one — with a
// charz/vN bump — regenerates the file (-update).
func TestRequestKeysGolden(t *testing.T) {
	var b strings.Builder
	add := func(label string, spec platform.Spec, opt bench.Options) {
		fmt.Fprintf(&b, "%s  %s: %s\n", charz.Fingerprint(charz.Request{Spec: spec, Options: opt}), label, spec.Name)
	}
	sims := []platform.Spec{platform.ZSimSkylake(), platform.Gem5Graviton3(), platform.OpenPitonAriane()}
	for _, sc := range []Scale{Quick, Full} {
		for _, spec := range append(platform.All(), sims...) {
			add(sc.String(), scaleSpec(spec, sc), benchOptions(sc))
		}
		for _, spec := range fig10Variants(sc) {
			add(sc.String()+" fig10", spec, benchOptions(sc))
		}
		for _, spec := range fig12Variants() {
			add(sc.String()+" fig12", spec, benchOptions(sc))
		}
	}
	for _, spec := range platform.All() {
		add("messbench", spec, bench.QuickOptions())
	}
	// The artifact lines follow the family lines, which they leave
	// byte-identical.
	for _, sc := range []Scale{Quick, Full} {
		art := func(what string, req charz.ArtifactRequest) {
			fmt.Fprintf(&b, "%s  %s %s: %s\n", charz.ArtifactKey(req), sc, req.Kind, what)
		}
		for _, spec := range platform.All() {
			art(scaleSpec(spec, sc).Name, streamRequest(scaleSpec(spec, sc)))
		}
		for _, fig := range []struct {
			spec   platform.Spec
			models []memmodel.Kind
		}{
			{scaleSpec(platform.ZSimSkylake(), sc), fig11Models},
			{scaleSpec(platform.Gem5Graviton3(), sc), fig13Models},
		} {
			for _, kind := range append([]memmodel.Kind{memmodel.KindReference}, fig.models...) {
				art(fig.spec.Name+" + "+string(kind), evalRequest(fig.spec, sc, kind))
			}
		}
		for _, pf := range fig6Platforms(sc) {
			art(pf.spec.Name, replaysRequest(pf, sc))
		}
		zsim := scaleSpec(platform.ZSimSkylake(), sc)
		for _, pace := range samplingPaces(sc) {
			art(fmt.Sprintf("%s at %v ns", zsim.Name, pace), sampledRequest(zsim, sc, pace))
		}
		art(hpcgSpec(sc).Name, hpcgRequest(sc))
		seen := map[string]bool{}
		for _, bm := range append(fig17Suite(), fig18Suite(sc)...) {
			if !seen[bm.Name] {
				seen[bm.Name] = true
				art(zsim.Name+" running "+bm.Name, specPairRequest(zsim, bm, sc))
			}
		}
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(keysGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatalf("%v (generate it with go test ./internal/exp -run TestRequestKeysGolden -update)", err)
	}
	if got != string(want) {
		t.Fatalf("request keys differ from %s; a change that means to move them bumps the charz/vN prefix and regenerates with -update:\ngot:\n%s\nwant:\n%s", keysGolden, got, want)
	}
}
