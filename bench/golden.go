package main

// The simulated outcome is pinned. Whatever --seed a run is given, each
// simulated workload also runs a small instance of itself at pinnedSeed
// and compares what it simulated with the values below: sim.digest (RT
// histogram, outcome counters, events processed) for the cells, the
// cells' digest and the exact SR4-over-RR ratio for the sweep. A
// mismatch makes the run incorrect.
//
// A change meant only to make the simulator faster must leave these
// values alone. A change that means to alter what is simulated updates
// them — the failed check prints the new ones — in a change of its own
// that claims no gain.
const (
	pinnedSeed    = 1
	pinnedQueries = 10000

	goldenCellSR4     = 0x90656379eebd
	goldenCellFlowlet = 0x3e6d1c8f9642
	goldenFig2        = 0x159ec41e883c
	goldenSR4vsRR     = 2.062221335920557
)
