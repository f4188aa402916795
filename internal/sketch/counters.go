package sketch

// Counters is the per-VIP outcome counter set: how many queries were
// offered to a VIP and how each one ended. Offered ==
// OK + Refused + Unfinished once a run has drained.
type Counters struct {
	Offered    uint64
	OK         uint64
	Refused    uint64
	Unfinished uint64
}
