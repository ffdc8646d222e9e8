// Package cxl models a CXL memory expander (Sec. V-C of the paper): a
// full-duplex CXL 2.0 / PCIe-5 ×8 link in front of a single-controller
// DDR5-5600 device, standing in for the manufacturer's proprietary SystemC
// model.
//
// The architectural property the paper highlights is reproduced
// structurally: the link has independent transmit (host→device) and
// receive (device→host) directions. Read traffic moves request flits over
// TX and data flits over RX; write traffic moves data over TX and
// completions over RX. Balanced read/write mixes therefore use both
// directions and saturate at the DDR device's limit, while 100%-read or
// 100%-write traffic saturates one direction early and collapses — the
// inverse of DDR behaviour, and the paper's headline CXL finding.
package cxl

import (
	"fmt"

	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/sim"
)

// Config describes the expander.
type Config struct {
	// TxGBs and RxGBs are the effective per-direction link bandwidths
	// (payload, after protocol overheads). A PCIe 5.0 ×8 port moves
	// 32 GB/s raw per direction; ≈27 GB/s is realistic for CXL.mem data.
	TxGBs float64
	RxGBs float64
	// HeaderBytes is the flit overhead accompanying every transfer.
	HeaderBytes int
	// PropagationOneWay is the link + port + controller latency in each
	// direction.
	PropagationOneWay sim.Time
	// DDR is the device-side memory; the paper's device is a DDR5-5600
	// DIMM with two ranks behind one controller.
	DDR dram.Config
}

// Default returns the configuration matching the paper's device: one
// DDR5-5600 DIMM, CXL 2.0 ×8, maximum theoretical throughput ≈43.6 GB/s
// for the best (balanced) traffic mix.
func Default() Config {
	return Config{
		TxGBs:             27,
		RxGBs:             27,
		HeaderBytes:       16,
		PropagationOneWay: sim.FromNanoseconds(70),
		DDR:               dram.DDR5(5600, 1, 2),
	}
}

// Validate reports an error for an unusable configuration.
func (c *Config) Validate() error {
	if c.TxGBs <= 0 || c.RxGBs <= 0 {
		return fmt.Errorf("cxl: link bandwidths must be positive")
	}
	if c.HeaderBytes < 0 {
		return fmt.Errorf("cxl: negative header bytes")
	}
	return c.DDR.Validate()
}

// MaxTheoreticalGBs reports the best-mix throughput bound: the device
// memory peak capped by the sum of what each direction can carry.
func (c *Config) MaxTheoreticalGBs() float64 {
	ddr := c.DDR.PeakBandwidthGBs()
	// Balanced mix: reads ride RX, writes ride TX.
	link := c.TxGBs + c.RxGBs
	if ddr < link {
		return ddr * 0.975 // protocol overhead on the best mix
	}
	return link
}

// DevTagBase is the completion-entity tag of the device models: the
// engine tie-break tag their completions carry on the host engine. It
// sits far above the DRAM channel tags (1..channels) so a device sharing
// a host engine with a memory system never collides.
const DevTagBase int32 = 1 << 16

// Expander is the device model; it implements mem.Backend. Device-side
// transactions come from the expander's own request pool: each host access
// acquires one inner DDR request linked back via Parent, instead of
// allocating a fresh request plus completion closures per access.
type Expander struct {
	eng  *sim.Engine
	cfg  Config
	ddr  *dram.System
	pool *mem.RequestPool

	readDoneFn  mem.DoneFunc
	writeDoneFn mem.DoneFunc

	txFree sim.Time
	rxFree sim.Time
}

// New builds an expander on the engine; it panics on invalid configuration.
func New(eng *sim.Engine, cfg Config) *Expander {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Expander{eng: eng, cfg: cfg, ddr: dram.New(eng, cfg.DDR), pool: mem.NewRequestPool()}
	e.readDoneFn = e.readDone
	e.writeDoneFn = e.writeDone
	return e
}

// occupyTx reserves the host→device direction for n bytes and returns the
// completion time of the transfer.
func (e *Expander) occupyTx(now sim.Time, n int) sim.Time {
	svc := sim.FromNanoseconds(float64(n) / e.cfg.TxGBs)
	start := now
	if e.txFree > start {
		start = e.txFree
	}
	e.txFree = start + svc
	return e.txFree
}

func (e *Expander) occupyRx(now sim.Time, n int) sim.Time {
	svc := sim.FromNanoseconds(float64(n) / e.cfg.RxGBs)
	start := now
	if e.rxFree > start {
		start = e.rxFree
	}
	e.rxFree = start + svc
	return e.rxFree
}

// Access implements mem.Backend. Latency is measured from the host input
// pins, as the manufacturer's curves are (Fig. 14a).
func (e *Expander) Access(req *mem.Request) {
	now := e.eng.Now()
	prop := e.cfg.PropagationOneWay
	hdr := e.cfg.HeaderBytes
	if req.Op == mem.Read {
		// Request flit over TX, DDR read, data over RX, back to host.
		txDone := e.occupyTx(now, hdr)
		inner := e.pool.Get(req.Addr, mem.Read, e.readDoneFn)
		inner.Parent = req
		inner.SendAt(e.eng, e.ddr, txDone+prop)
		return
	}
	// Write: data over TX, DDR write; completion flit over RX.
	txDone := e.occupyTx(now, req.Bytes()+hdr)
	inner := e.pool.Get(req.Addr, mem.Write, e.writeDoneFn)
	inner.Parent = req
	inner.SendAt(e.eng, e.ddr, txDone+prop)
}

// readDone completes a device-side read: data flits ride RX back to the
// host, then the host request completes (and returns to its pool).
func (e *Expander) readDone(ddrDone sim.Time, inner *mem.Request) {
	host := inner.Parent
	rxDone := e.occupyRx(ddrDone, host.Bytes()+e.cfg.HeaderBytes)
	host.CompleteAtTagged(e.eng, rxDone+e.cfg.PropagationOneWay, DevTagBase)
}

// writeDone completes a device-side write: the completion flit rides RX.
func (e *Expander) writeDone(ddrDone sim.Time, inner *mem.Request) {
	host := inner.Parent
	rxDone := e.occupyRx(ddrDone, e.cfg.HeaderBytes)
	host.CompleteAtTagged(e.eng, rxDone+e.cfg.PropagationOneWay, DevTagBase)
}

var _ mem.Backend = (*Expander)(nil)
