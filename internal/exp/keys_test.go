package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

const (
	keysGolden = "testdata/request_keys.txt"
	// digestsGolden is the results golden charz embeds: its hash is the
	// version every key opens with.
	digestsGolden = "../charz/result_digests.txt"
)

// labelled is one simulation the registry memoises, under the label both
// goldens print: a curve family, with its samples when fam.NeedSamples, or
// an artifact when art is set.
type labelled struct {
	label string
	fam   charz.Request
	art   *charz.ArtifactRequest
}

// stubModel stands in for a model backend: a key records only that a
// request has one, and its tag names which.
var stubModel mem.BackendFactory = func(*sim.Engine) mem.Backend { return nil }

// registryRequests lists every simulation the registry (tablespeed, whose
// timing is its result, aside) memoises at the scale, each once, through
// the request builders the experiments call. TestResultDigests holds the
// Quick list to what a registry run stores, both ways; TestRequestKeysGolden
// pins the key of every entry at both scales. A new memoised simulation
// adds its request here.
func registryRequests(t *testing.T, s Scale) []labelled {
	t.Helper()
	var out []labelled
	seen := map[charz.Key]bool{}
	add := func(key charz.Key, l labelled) {
		if !seen[key] {
			seen[key] = true
			out = append(out, l)
		}
	}
	// A family is labelled by its role, or by its tag when it has one.
	fam := func(role string, req charz.Request) {
		if req.Tag != "" {
			role = req.Tag
		}
		add(charz.Fingerprint(req), labelled{label: role + ": " + req.Spec.Name, fam: req})
	}
	art := func(what string, req charz.ArtifactRequest) {
		add(charz.ArtifactKey(req), labelled{label: req.Kind + ": " + what, art: &req})
	}
	zsim, gem5 := scaleSpec(platform.ZSimSkylake(), s), scaleSpec(platform.Gem5Graviton3(), s)

	for _, spec := range append(platform.All(), platform.ZSimSkylake(), platform.Gem5Graviton3()) {
		fam("reference", refRequest(scaleSpec(spec, s), s))
	}
	for _, spec := range append(fig10Variants(s), fig12Variants()...) {
		fam("reference", refRequest(spec, s))
		fam("", modelRequest(spec, s, "model:"+string(memmodel.KindMess), stubModel))
	}
	for _, fig := range []struct {
		spec  platform.Spec
		kinds []memmodel.Kind
	}{{gem5, fig4Models}, {zsim, fig5Models}} {
		for _, kind := range fig.kinds {
			fam("", modelRequest(fig.spec, s, "model:"+string(kind), stubModel))
		}
	}
	for _, host := range fig14Hosts(s) {
		fam("", modelRequest(host, s, "messsim:cxl", stubModel))
	}
	for _, kind := range []memmodel.Kind{memmodel.KindReference, memmodel.KindDRAMsim3, memmodel.KindRamulator} {
		req, err := rowBufferRequest(zsim, s, kind)
		if err != nil {
			t.Fatal(err)
		}
		fam("fig7 reference", req)
	}
	reqs := openPitonRequests(s)
	fam("openpiton-bug healthy", reqs[0])
	fam("openpiton-bug bugged", reqs[1])

	for _, spec := range platform.All() {
		art(scaleSpec(spec, s).Name, streamRequest(scaleSpec(spec, s)))
	}
	for _, fig := range []struct {
		spec   platform.Spec
		models []memmodel.Kind
	}{{zsim, fig11Models}, {gem5, fig13Models}} {
		for _, kind := range append([]memmodel.Kind{memmodel.KindReference}, fig.models...) {
			art(fig.spec.Name+" + "+string(kind), evalRequest(fig.spec, s, kind))
		}
	}
	for _, pf := range fig6Platforms(s) {
		art(pf.spec.Name, replaysRequest(pf, s))
	}
	for _, pace := range scales[s].sampledPaces {
		art(fmt.Sprintf("%s at %v ns", zsim.Name, pace), sampledRequest(zsim, s, pace))
	}
	art(hpcgSpec(s).Name, hpcgRequest(s))
	for _, bm := range append(fig17Suite(), fig18Suite(s)...) {
		art(zsim.Name+" running "+bm.Name, specPairRequest(zsim, bm, s))
	}
	return out
}

// digestsMoved records that TestResultDigests rewrote a moved results
// golden in this run: the binary still keys under the old one.
var digestsMoved bool

// TestResultDigests runs the Quick registry, tablespeed (which stores
// nothing) aside, on the shared environment and holds every value its
// store keeps to the results golden, one line per family, samples file and
// artifact: the label, then the SHA-256 of the release CSV or of the
// canonical value JSON (never of the file's envelope, which holds the key
// the golden decides). A stored file no label accounts for fails, and so
// does a label with no file. The digests are compared on amd64, where the
// other result goldens are; a moved result fails with its label. The
// procedure that regenerates the goldens is in the charz package doc,
// under "The pins".
func TestResultDigests(t *testing.T) {
	for _, e := range All() {
		if e.ID == "tablespeed" {
			continue
		}
		if _, err := e.Run(testEnv); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}

	labels := map[string]string{} // stored file → label
	var order []string
	file := func(path, label string) {
		labels[path] = label
		order = append(order, label)
	}
	for _, l := range registryRequests(t, Quick) {
		if l.art != nil {
			file(strings.TrimSuffix(testStore.Path(charz.ArtifactKey(*l.art)), ".csv")+".json", l.label)
			continue
		}
		path := testStore.Path(charz.Fingerprint(l.fam))
		file(path, l.label)
		if l.fam.NeedSamples {
			file(strings.TrimSuffix(path, ".csv")+".samples.json", l.label+" samples")
		}
	}
	digests := map[string]string{} // label → digest
	err := filepath.WalkDir(testStore.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		label, ok := labels[path]
		if !ok {
			t.Errorf("stored file no label accounts for: %s", path)
			return nil
		}
		value, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(path, ".csv") {
			var f struct{ Value json.RawMessage }
			if err := json.Unmarshal(value, &f); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			value = f.Value
		}
		sum := sha256.Sum256(value)
		digests[label] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, label := range order {
		if digests[label] == "" {
			t.Errorf("label with no stored file: %s", label)
		}
		fmt.Fprintf(&b, "%s  %s\n", label, digests[label])
	}
	if t.Failed() || runtime.GOARCH != "amd64" {
		return
	}

	got := b.String()
	want, err := os.ReadFile(digestsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	if *update {
		// Any byte of the golden is a byte of every key's version.
		digestsMoved = true
		if err := os.WriteFile(digestsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	moved := movedLabels(string(want), got)
	t.Errorf("%s differs from this run in %d results; a change meant to move them regenerates the goldens (charz package doc, \"The pins\"):\nmoved: %s",
		digestsGolden, len(moved), strings.Join(moved, "\nmoved: "))
}

// movedLabels lists, in order, the labels whose digest differs between two
// golden texts, or that only one of them has.
func movedLabels(want, got string) []string {
	parse := func(text string) (map[string]string, []string) {
		digests := map[string]string{}
		var order []string
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if i := strings.LastIndex(line, "  "); i >= 0 {
				digests[line[:i]] = line[i+2:]
				order = append(order, line[:i])
			}
		}
		return digests, order
	}
	w, wOrder := parse(want)
	g, gOrder := parse(got)
	var moved []string
	for _, label := range gOrder {
		if w[label] != g[label] {
			moved = append(moved, label)
		}
	}
	for _, label := range wOrder {
		if _, ok := g[label]; !ok {
			moved = append(moved, label)
		}
	}
	return moved
}

// TestRequestKeysGolden pins the charz key of every simulation the
// registry memoises, at both scales, then of messbench's default sweep on
// each platform. A key that moves orphans everything stored under it. The
// version every key opens with is the hash of the results golden, so keys
// move with the results, and otherwise only with a change to what a key
// hashes; either regenerates the file (-update).
func TestRequestKeysGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range []Scale{Quick, Full} {
		for _, l := range registryRequests(t, sc) {
			key := charz.Fingerprint(l.fam)
			if l.art != nil {
				key = charz.ArtifactKey(*l.art)
			}
			fmt.Fprintf(&b, "%s  %s %s\n", key, sc, l.label)
		}
	}
	for _, spec := range platform.All() {
		fmt.Fprintf(&b, "%s  messbench: %s\n", charz.Fingerprint(charz.Request{Spec: spec, Options: Sweep(Quick)}), spec.Name)
	}
	got := b.String()

	if *update {
		if digestsMoved {
			t.Fatalf("%s moved in this run, and this binary keys under the golden it was built with: run the same -update again to rewrite %s", digestsGolden, keysGolden)
		}
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
		t.Fatalf("request keys differ from %s. If an -update just rewrote %s, it computed these keys under the old golden: run -update once more. Otherwise a change moved what a key hashes, and only one meant to regenerates with -update:\ngot:\n%s\nwant:\n%s", keysGolden, digestsGolden, got, want)
	}
}
