package main

import "time"

// The sandbox this benchmark runs in shares its cores: the same binary runs
// up to twice as slow from one quarter of an hour to the next, far more
// than any bound could absorb. Every run therefore also times a fixed
// computation that shares no code with the program, and reports its times
// scaled to a host on which that computation takes calRefSeconds. A change
// to the program cannot move the yardstick, and a slow quarter of an hour
// moves yardstick and workload together.

// calRefSeconds is the yardstick's time on the reference host (this
// sandbox when nothing else contends for it).
const calRefSeconds = 0.00475

// calBuf stays inside L1: the yardstick must read the core's speed and
// nothing else. An 8 MiB walk was tried first and was noisier than the
// workloads it was meant to steady (page faults and cache state differ from
// process to process); this one repeats within 2%.
var calBuf [1 << 12]uint64

var calSink uint64

// calibrate times one pass of the yardstick: a xorshift walk that
// read-modify-writes calBuf.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var sum uint64
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p := &calBuf[x&(1<<12-1)]
		*p += x
		sum += *p
	}
	calSink = sum
	return time.Since(t0).Seconds()
}

// hostSpeed collects yardstick samples around the work it qualifies.
type hostSpeed struct{ samples []float64 }

func (h *hostSpeed) sample(n int) {
	for i := 0; i < n; i++ {
		h.samples = append(h.samples, calibrate())
	}
}

// factor converts a measured time into reference-host time. The median
// ignores the samples a burst of contention inflated.
func (h *hostSpeed) factor() float64 {
	for len(h.samples) < 8 {
		h.sample(1)
	}
	return calRefSeconds / median(h.samples)
}
