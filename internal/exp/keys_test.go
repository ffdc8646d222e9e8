package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/platform"
)

const keysGolden = "testdata/request_keys.txt"

// TestRequestKeysGolden pins the charz key of every reference request the
// shipped tools make: each Table I platform and simulator configuration at
// both scales, the Fig. 10 and Fig. 12 memory systems, and messbench's
// default sweep on each platform. A key that moves orphans every stored
// curve under it, so only a change that means to move one — with a
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
