package workloads

import (
	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
)

// Phase is one segment of a phased application: either a compute kernel
// running for a duration, or an MPI call during which cores generate no
// memory traffic.
type Phase struct {
	Name     string
	Kernel   cpu.Kernel
	Duration sim.Time
	MPICall  bool // true: communication, no memory traffic
}

// HPCGPhases returns the proxy structure of one HPCG iteration. HPCG's
// dominant kernels — sparse matrix-vector multiply (SpMV), the symmetric
// Gauss-Seidel smoother (SymGS) and dot products (DDOT) — are all
// bandwidth-bound streaming kernels with read-heavy traffic; the iteration
// is delimited by MPI_Allreduce calls, exactly the structure the paper's
// timeline analysis keys on (Fig. 16).
func HPCGPhases() []Phase {
	spmv := cpu.Kernel{Name: "HPCG:SpMV", Loads: 3, Stores: 1, ElemsPerLine: 8, ALUPerElem: 3}
	symgs := cpu.Kernel{Name: "HPCG:SymGS", Loads: 3, Stores: 1, ElemsPerLine: 8, ALUPerElem: 4}
	ddot := cpu.Kernel{Name: "HPCG:DDOT", Loads: 2, ElemsPerLine: 8, ALUPerElem: 3}
	waxpby := cpu.Kernel{Name: "HPCG:WAXPBY", Loads: 2, Stores: 1, ElemsPerLine: 8, ALUPerElem: 3}
	return []Phase{
		{Name: "SymGS", Kernel: symgs, Duration: 120 * sim.Microsecond},
		{Name: "SpMV", Kernel: spmv, Duration: 90 * sim.Microsecond},
		{Name: "MPI_Allreduce", MPICall: true, Duration: 8 * sim.Microsecond},
		{Name: "DDOT", Kernel: ddot, Duration: 30 * sim.Microsecond},
		{Name: "WAXPBY", Kernel: waxpby, Duration: 40 * sim.Microsecond},
		{Name: "MPI_Allreduce", MPICall: true, Duration: 8 * sim.Microsecond},
	}
}

// PhaseSpan is a labelled interval of the application timeline: one phase
// of a PhasedApp run, as the profiler tags its windows with.
type PhaseSpan struct {
	Name       string
	Start, End sim.Time
	MPI        bool
}

// PhasedApp drives all cores through a repeating phase schedule on one
// engine, emitting phase events. It is the workload side of the Mess
// application-profiling experiments.
type PhasedApp struct {
	Eng      *sim.Engine
	Counting *mem.CountingBackend
	Spec     platform.Spec

	hier   *cache.Hierarchy
	phases []Phase
	cores  int
	active []*cpu.KernelCore
	events []PhaseSpan
	arrays uint64
}

// NewPhasedApp builds the application over the platform's detailed memory
// system (backend == nil) or a supplied model.
func NewPhasedApp(spec platform.Spec, phases []Phase, backend mem.BackendFactory) *PhasedApp {
	eng := sim.New()
	var b mem.Backend
	if backend != nil {
		b = backend(eng)
	} else {
		b = dram.New(eng, spec.DRAM)
	}
	counting := mem.NewCounting(b)
	hier := cache.New(eng, spec.CacheConfig(), counting)
	return &PhasedApp{
		Eng:      eng,
		Counting: counting,
		Spec:     spec,
		hier:     hier,
		phases:   phases,
		cores:    spec.Cores,
		arrays:   32 << 20,
	}
}

// Run executes the schedule until the deadline, looping over the phases.
func (a *PhasedApp) Run(until sim.Time) {
	idx := 0
	var runPhase func(sim.Time)
	runPhase = func(now sim.Time) {
		if now >= until {
			a.stopCores()
			return
		}
		ph := a.phases[idx%len(a.phases)]
		idx++
		end := now + ph.Duration
		a.events = append(a.events, PhaseSpan{Name: ph.Name, Start: now, End: end, MPI: ph.MPICall})
		a.stopCores()
		if !ph.MPICall {
			a.startCores(ph.Kernel)
		}
		a.Eng.Schedule(end, runPhase)
	}
	runPhase(a.Eng.Now())
	a.Eng.RunUntil(until)
}

func (a *PhasedApp) startCores(k cpu.Kernel) {
	narr := k.Loads + k.Stores
	a.active = a.active[:0]
	for c := 0; c < a.cores; c++ {
		bases := make([]uint64, narr)
		for arr := 0; arr < narr; arr++ {
			bases[arr] = uint64(1)<<33 + uint64(c)*(1<<29+16<<10) + uint64(arr)*(1<<27+32<<10)
		}
		core := cpu.NewKernelCore(a.Eng, a.hier.Port(c), k, cpu.CoreConfig{
			CycleTime:  a.Spec.CycleTime(),
			ArrayBases: bases,
			ArrayBytes: a.arrays,
			Seed:       uint64(c)*2654435761 + 97,
		})
		core.Start()
		a.active = append(a.active, core)
	}
}

func (a *PhasedApp) stopCores() {
	for _, c := range a.active {
		c.Stop()
	}
	a.active = a.active[:0]
}

// Events reports the recorded phase timeline.
func (a *PhasedApp) Events() []PhaseSpan { return a.events }
