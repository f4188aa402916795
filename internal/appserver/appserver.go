// Package appserver models the paper's application servers (§IV-C): an
// Apache HTTP server with mpm_prefork, 32 worker threads and a TCP backlog
// of 128, running inside a 2-core VM, with the Linux
// tcp_abort_on_overflow behavior (RST instead of silent drop when the
// accept queue is full).
//
// The service is CPU-bound (the paper's workload is a PHP busy loop), so a
// server with k busy workers runs each of them at min(1, cores/k) of a
// core: egalitarian processor sharing. This contention is the mechanism
// behind the paper's entire evaluation — a random load balancer piles
// tens of connections on one box (slowing each by 10×+) while another box
// idles, and the power-of-two-choices acceptance policy prevents exactly
// that.
//
// The processor-sharing engine is event-exact: on every arrival and
// departure the remaining work of in-service requests is settled against
// elapsed virtual time, and the next completion is rescheduled. The
// in-service set is a slice in admission order — the order completions
// sharing an instant are reported in, so it is never sorted (see
// Server.inService) — and the next completion is one timer the server
// moves: an event costs one pass over ≤ 32 requests and no garbage.
package appserver

import (
	"fmt"
	"slices"
	"time"

	"srlb/internal/des"
)

// Config describes one application server. The defaults (via Default) are
// the paper's testbed values.
type Config struct {
	Workers int     // worker threads (paper: 32)
	Cores   float64 // CPU cores shared by the workers (paper: 2)
	Backlog int     // accept-queue capacity (paper: 128)
	// AbortOnOverflow mirrors tcp_abort_on_overflow=1: a connection
	// arriving to a full backlog is rejected immediately (RST) instead of
	// being silently dropped.
	AbortOnOverflow bool
}

// Default returns the paper's server configuration.
func Default() Config {
	return Config{Workers: 32, Cores: 2, Backlog: 128, AbortOnOverflow: true}
}

func (c Config) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("appserver: Workers must be positive, got %d", c.Workers)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("appserver: Cores must be positive, got %v", c.Cores)
	}
	if c.Backlog < 0 {
		return fmt.Errorf("appserver: Backlog must be non-negative, got %d", c.Backlog)
	}
	return nil
}

// Verdict is the outcome of offering a connection to the server.
type Verdict int

// Connection admission outcomes.
const (
	// Admitted: a worker slot or backlog slot was taken; the handshake
	// completes and the request will eventually be served.
	Admitted Verdict = iota + 1
	// Rejected: backlog full with AbortOnOverflow — the caller should
	// emit a TCP RST.
	Rejected
	// DroppedSilently: backlog full without AbortOnOverflow — the SYN is
	// ignored (the client would retransmit; the simulation records it).
	DroppedSilently
)

func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case Rejected:
		return "rejected"
	case DroppedSilently:
		return "dropped"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// request is one offered connection's work item. Requests are recycled
// through Server.free: one goes back when its offer overflows, or once
// its onDone has returned — not before, because the callback may re-enter
// Offer, which would hand the still-running request out again.
type request struct {
	id        uint64
	remaining float64 // CPU-seconds still owed
	onDone    func()
	next      *request // free-list link
}

// Scoreboard is the shared-memory view the paper's server agent reads
// (§IV-B): the number of busy worker threads, available to the virtual
// router at zero cost. It is satisfied by *Server.
type Scoreboard interface {
	// BusyWorkers returns the number of workers currently serving (or
	// assigned to) a connection.
	BusyWorkers() int
	// TotalWorkers returns the size of the worker pool.
	TotalWorkers() int
}

// Stats aggregates server-side accounting.
type Stats struct {
	Admitted  uint64
	Rejected  uint64
	Dropped   uint64
	Completed uint64
	// BusyTime integrates busy-worker-seconds, for utilization reports.
	BusyTime time.Duration
	// CPUTime integrates CPU-seconds actually granted.
	CPUTime time.Duration
}

// Server is the processor-sharing application server.
type Server struct {
	cfg  Config
	sim  *des.Simulator
	name string

	// inService holds the requests on a worker in ascending admission id.
	// Appending keeps it so: a request is admitted straight onto a worker
	// only while the backlog is empty (the backlog fills only when every
	// worker is busy and complete refills the workers from it before
	// returning), so it is younger than everything in service; and
	// complete promotes from the backlog FIFO, oldest first, onto requests
	// that were admitted before the backlog formed.
	inService []*request
	finished  []*request // complete's scratch, grown on first use
	backlog   []*request
	free      *request // recycled requests, see request
	nextID    uint64

	lastSettle time.Duration
	// nextDone is the completion event: created by the first admission
	// with s.complete bound once, then moved while pending and re-armed
	// after it fired.
	nextDone    *des.Timer
	lastBusyAcc time.Duration

	stats Stats
}

// New creates a server bound to the simulator. Invalid configs panic:
// server construction is static testbed setup.
func New(sim *des.Simulator, name string, cfg Config) *Server {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Server{cfg: cfg, sim: sim, name: name}
}

// Name returns the server's display name.
func (s *Server) Name() string { return s.name }

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// Stats returns a copy of the server's counters.
func (s *Server) Stats() Stats { return s.stats }

// BusyWorkers implements Scoreboard: workers currently serving.
func (s *Server) BusyWorkers() int { return len(s.inService) }

// TotalWorkers implements Scoreboard.
func (s *Server) TotalWorkers() int { return s.cfg.Workers }

// QueueLen returns the number of connections waiting in the backlog.
func (s *Server) QueueLen() int { return len(s.backlog) }

// Utilization returns the fraction of CPU capacity used since t0.
func (s *Server) Utilization(since time.Duration) float64 {
	elapsed := s.sim.Now() - since
	if elapsed <= 0 {
		return 0
	}
	return float64(s.stats.CPUTime) / (float64(elapsed) * s.cfg.Cores)
}

// Offer presents a new connection with the given CPU demand. onDone fires
// when the response has been computed (the caller then sends the response
// packet). The verdict tells the caller whether to continue the handshake,
// RST, or stay silent.
func (s *Server) Offer(demand time.Duration, onDone func()) Verdict {
	if demand < 0 {
		demand = 0
	}
	s.settle()
	req := s.free
	if req == nil {
		req = new(request)
	} else {
		s.free = req.next
	}
	*req = request{id: s.nextID, remaining: demand.Seconds(), onDone: onDone}
	s.nextID++
	if len(s.inService) < s.cfg.Workers {
		s.stats.Admitted++
		s.inService = append(s.inService, req)
		s.reschedule()
		return Admitted
	}
	if len(s.backlog) < s.cfg.Backlog {
		s.stats.Admitted++
		s.backlog = append(s.backlog, req)
		return Admitted
	}
	s.release(req)
	if s.cfg.AbortOnOverflow {
		s.stats.Rejected++
		return Rejected
	}
	s.stats.Dropped++
	return DroppedSilently
}

// release returns req to the free list, dropping its callback.
func (s *Server) release(req *request) {
	req.onDone, req.next, s.free = nil, s.free, req
}

// rate returns the per-request CPU rate (CPU-seconds per second).
func (s *Server) rate() float64 {
	k := len(s.inService)
	if k == 0 {
		return 0
	}
	if float64(k) <= s.cfg.Cores {
		return 1
	}
	return s.cfg.Cores / float64(k)
}

// settle charges elapsed virtual time against remaining work.
func (s *Server) settle() {
	now := s.sim.Now()
	dt := (now - s.lastSettle).Seconds()
	s.lastSettle = now
	if dt <= 0 || len(s.inService) == 0 {
		return
	}
	r := s.rate()
	granted := r * dt
	for _, req := range s.inService {
		req.remaining -= granted
		if req.remaining < 0 {
			req.remaining = 0
		}
	}
	s.stats.CPUTime += time.Duration(float64(len(s.inService)) * granted * float64(time.Second))
	s.stats.BusyTime += time.Duration(float64(len(s.inService)) * dt * float64(time.Second))
}

// reschedule plans the next completion event.
func (s *Server) reschedule() {
	if len(s.inService) == 0 {
		s.sim.Cancel(s.nextDone)
		return
	}
	minRemaining := -1.0
	for _, req := range s.inService {
		if minRemaining < 0 || req.remaining < minRemaining {
			minRemaining = req.remaining
		}
	}
	r := s.rate()
	wait := time.Duration(minRemaining / r * float64(time.Second))
	// Clamp to the simulator's 1ns clock grid: a sub-nanosecond residual
	// would otherwise truncate to a zero-delay timer whose settle() grants
	// zero work — an infinite loop at one instant.
	if wait < 1 {
		wait = 1
	}
	if s.nextDone == nil {
		s.nextDone = s.sim.After(wait, s.complete)
		return
	}
	s.sim.Reschedule(s.nextDone, s.sim.Now()+wait)
}

// complete settles work and finishes every request that has none left,
// calling back in admission order so that packet emission is
// deterministic.
func (s *Server) complete() {
	s.settle()
	const eps = 1e-12 // FP slack: half a picosecond of CPU work
	done, live := s.finished[:0], s.inService[:0]
	for _, req := range s.inService {
		if req.remaining <= eps {
			done = append(done, req)
		} else {
			live = append(live, req)
		}
	}
	// Promote backlog into freed worker slots (FIFO, like the kernel
	// accept queue).
	promoted := min(len(s.backlog), s.cfg.Workers-len(live))
	live = append(live, s.backlog[:promoted]...)
	// Shift the rest down rather than re-slicing from the front, which
	// walks a saturated backlog through its array and makes append
	// re-allocate it every cap admissions.
	s.backlog = slices.Delete(s.backlog, 0, promoted)
	// No more were promoted than finished (a backlog means every worker
	// was busy), so live is a prefix; the slots behind it are vacated.
	clear(s.inService[len(live):])
	s.inService = live
	s.reschedule()
	for _, req := range done {
		s.stats.Completed++
		if req.onDone != nil {
			req.onDone()
		}
		s.release(req)
	}
	clear(done)
	s.finished = done
}
