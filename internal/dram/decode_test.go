package dram_test

import (
	"math/rand"
	"testing"

	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/platform"
)

// TestOneDecode holds trace fingerprinting to the controller: on every
// shipped DRAM configuration, and on every channel count a Quick-scale run
// divides it to, BankRow is the controller's (channel, bank, row) folded
// into one index, and the test-side Map inverts.
func TestOneDecode(t *testing.T) {
	cfgs := []dram.Config{cxl.Default().DDR, cxl.DefaultRemoteSocket().DDR}
	specs := append(platform.All(), platform.ZSimSkylake(), platform.Gem5Graviton3(), platform.OpenPitonAriane())
	for _, s := range specs {
		cfgs = append(cfgs, s.DRAM)
	}
	rng := rand.New(rand.NewSource(1))
	for _, full := range cfgs {
		for channels := full.Channels; channels >= 1; channels /= 2 {
			cfg := full
			cfg.Channels = channels
			m := dram.NewMapper(&cfg)
			for i := 0; i < 2000; i++ {
				addr := rng.Uint64() >> 20
				ch, bi, _, row := m.MapReq(addr)
				bank, brow := m.BankRow(addr)
				if want := ch*cfg.Ranks*cfg.Banks + int(bi); bank != want || brow != row {
					t.Fatalf("%s ×%d: BankRow(%#x) = (%d, %d), controller (%d, %d)", cfg.Name, channels, addr, bank, brow, want, row)
				}
				if !m.RoundTrips(addr) {
					t.Fatalf("%s ×%d: Map(%#x) does not invert", cfg.Name, channels, addr)
				}
			}
		}
	}
}
