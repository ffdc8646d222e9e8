// Package cmd_test runs the built binaries and holds their standard output
// to checked-in goldens: the tools are deterministic, so a refactor of what
// they are assembled from must not move a byte of what they print.
package cmd_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.txt from this run's output")

// binDir holds the binaries TestMain builds, once, from this checkout.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "mess-cmd-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		binDir = dir
		build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./messbench", "./messexp", "./messsim", "./messprofile", "./messtrace")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "building the binaries:", err)
			return 1
		}
		return m.Run()
	}())
}

// statSources makes the tools' source an input of the test: the go tool built
// the binaries from files this process never opens, so the test cache would
// replay a pass over changed tools. It runs inside a test because only there
// does the testing package record what the process stats.
var statSources sync.Once

// run executes one built tool in dir and returns what it printed and its
// exit code. The environment's curve server, if any, is left out: the
// goldens are what a cold, local run prints.
func run(t *testing.T, dir, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	statSources.Do(func() {
		for _, root := range []string{".", filepath.Join("..", "internal")} {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err == nil && strings.HasSuffix(path, ".go") {
					_, err = os.Stat(path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "MESS_CURVE_URL=")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// ok is run for an invocation that must succeed; it returns the stdout.
func ok(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	stdout, stderr, code := run(t, dir, tool, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\n%s", tool, args, code, stderr)
	}
	return stdout
}

// golden compares got with testdata/<name>.txt, or rewrites the file under
// -update. The files are pinned to amd64: elsewhere Go may fuse
// multiply-adds, which moves the last digits of a simulated latency.
func golden(t *testing.T, name, got string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64's; ran clean on %s", runtime.GOARCH)
	}
	path := filepath.Join("testdata", name+".txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with go test ./cmd -update)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s; if the change is meant, regenerate with -update:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestMesssimModelsGolden(t *testing.T) {
	golden(t, "messsim_models", ok(t, "", "messsim", "-models", "fixed,mess"))
}

func TestMesssimIPCGolden(t *testing.T) {
	golden(t, "messsim_ipc", ok(t, "", "messsim", "-ipc", "-models", "fixed,md1"))
}

func TestMessprofileGolden(t *testing.T) {
	golden(t, "messprofile_hpcg", ok(t, "", "messprofile", "-duration-us", "300"))
}

func TestMessbenchListGolden(t *testing.T) {
	golden(t, "messbench_list", ok(t, "", "messbench", "-list"))
}

func TestMessexpListGolden(t *testing.T) {
	golden(t, "messexp_list", ok(t, "", "messexp", "-list"))
}

// TestMessexpFig2Golden holds one whole experiment report: progress and
// timings go to the logger on stderr, so stdout is deterministic.
func TestMessexpFig2Golden(t *testing.T) {
	golden(t, "messexp_fig2", ok(t, "", "messexp", "-run", "fig2", "-scale", "quick"))
}

// TestMesstraceRoundTripGolden captures a trace, replays it in full and
// replays it sampled beside the full replay, in a directory of its own so
// the path the tool echoes is the same everywhere.
func TestMesstraceRoundTripGolden(t *testing.T) {
	dir := t.TempDir()
	out := ok(t, dir, "messtrace", "-capture", "t.trace", "-stores", "40", "-pace", "8", "-measure-us", "40")
	out += ok(t, dir, "messtrace", "-replay", "t.trace")
	out += ok(t, dir, "messtrace", "-replay", "t.trace", "-sampled", "-compare-full")
	golden(t, "messtrace_roundtrip", out)
}

// refused runs an invocation the tool must refuse: status 1, the one line on
// stderr and nothing on stdout, so nothing was characterized or simulated.
func refused(t *testing.T, want, tool string, args ...string) {
	t.Helper()
	stdout, stderr, code := run(t, t.TempDir(), tool, args...)
	if code != 1 || stderr != want || stdout != "" {
		t.Errorf("%s %s: exit %d, stdout %.60q, stderr:\n%swant exit 1, nothing on stdout and the one line\n%s",
			tool, strings.Join(args, " "), code, stdout, stderr, want)
	}
}

// TestUnknownModelKindExits pins the bogus-kind exit: status 1 and one line
// on stderr naming the kind and the kinds there are, before anything is
// simulated or read — not a panic out of a sweep worker after the reference
// characterization has run.
func TestUnknownModelKindExits(t *testing.T) {
	for _, tc := range []struct {
		tool string
		args []string
	}{
		{"messsim", []string{"-models", "fixed,bogus"}},
		{"messsim", []string{"-ipc", "-models", "bogus"}},
		{"messtrace", []string{"-replay", "no-such.trace", "-model", "bogus"}},
	} {
		refused(t, tc.tool+`: memmodel: unknown model kind "bogus" (have fixed, md1, internal-ddr, dramsim3, ramulator, ramulator2, reference, mess)`+"\n", tc.tool, tc.args...)
	}
}

// TestRefusedArgumentExits pins the other one-line refusals. messprofile
// used to characterize the platform and print an empty profile for a
// duration no window fits in.
func TestRefusedArgumentExits(t *testing.T) {
	refused(t, "messexp: unknown experiment nope (-list shows them)\n", "messexp", "-run", "nope")
	refused(t, "messprofile: -duration-us 0: the application must run for at least 1 µs\n", "messprofile", "-duration-us", "0")
	refused(t, "messprofile: -duration-us -5: the application must run for at least 1 µs\n", "messprofile", "-duration-us", "-5")
}

// TestMessbenchUnknownPlatformGolden: status 1 and the platforms there are.
func TestMessbenchUnknownPlatformGolden(t *testing.T) {
	stdout, stderr, code := run(t, "", "messbench", "-platform", "bogus")
	if code != 1 || stdout != "" {
		t.Errorf("messbench -platform bogus: exit %d, stdout %.60q; want exit 1 and nothing on stdout", code, stdout)
	}
	golden(t, "messbench_unknown_platform", stderr)
}

// TestMessexpHasNoShardsFlag pins that sharding is not a tool user's choice:
// the flag package refuses -shards with status 2, and the usage it prints
// holds every flag messexp does take.
func TestMessexpHasNoShardsFlag(t *testing.T) {
	stdout, stderr, code := run(t, "", "messexp", "-shards", "2")
	if code != 2 || stdout != "" {
		t.Errorf("messexp -shards 2: exit %d, stdout %.60q; want exit 2 and nothing on stdout", code, stdout)
	}
	golden(t, "messexp_no_shards_flag", strings.ReplaceAll(stderr, filepath.Join(binDir, "messexp"), "messexp"))
}
