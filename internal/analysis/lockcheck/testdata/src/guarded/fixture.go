// Fixture for lockcheck: a Server/job pair mirroring internal/serve's
// shapes — same-struct and cross-struct guarded-by annotations, the
// Lock/defer Unlock and Lock…Unlock window idioms, the worker-style
// "unlock and bail in a branch" pattern, the *Locked suffix convention,
// fresh-local construction, closures, and malformed annotations.
package guarded

import "sync"

type Server struct {
	mu       sync.Mutex
	jobs     map[string]int // guarded-by: mu
	draining bool           // guarded-by: mu
}

type job struct {
	id    string // immutable after creation: unannotated
	state string // guarded-by: Server.mu
}

// Get holds mu for the whole body via defer.
func (s *Server) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[k]
}

// Peek reads a guarded field with no lock at all.
func (s *Server) Peek(k string) int {
	return s.jobs[k] // want `read of jobs without holding mu`
}

// Put writes a guarded field with no lock at all.
func (s *Server) Put(k string, v int) {
	s.jobs[k] = v // want `write to jobs without holding mu`
}

// Swap accesses the field inside an explicit Lock…Unlock window.
func (s *Server) Swap(k string, v int) int {
	s.mu.Lock()
	old := s.jobs[k]
	s.jobs[k] = v
	s.mu.Unlock()
	return old
}

// Stale releases the mutex before the access.
func (s *Server) Stale(k string) int {
	s.mu.Lock()
	s.mu.Unlock()
	return s.jobs[k] // want `read of jobs without holding mu`
}

// Work mirrors serve's worker loop: the draining branch unlocks and
// leaves, so the fall-through path still holds mu at the len() access.
func (s *Server) Work() {
	for i := 0; i < 3; i++ {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			continue
		}
		_ = len(s.jobs)
		s.mu.Unlock()
	}
}

// Flaky's first branch unlocks without leaving, so after the join the
// mutex is only conditionally held — which counts as not held.
func (s *Server) Flaky(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
	}
	s.jobs["x"] = 1 // want `write to jobs without holding mu`
	if !cond {
		s.mu.Unlock()
	}
}

// dropLocked runs with the receiver's mutexes held by convention: its
// own guarded accesses need no explicit Lock.
func (s *Server) dropLocked(k string) {
	delete(s.jobs, k)
}

// Drop violates that convention at the call site.
func (s *Server) Drop(k string) {
	s.dropLocked(k) // want `call to Server.dropLocked without holding Server's mutex`
}

// DropSafe honors it.
func (s *Server) DropSafe(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(k)
}

// Status reads a cross-struct guarded field while holding the owning
// Server's mutex: any hold of a Server mu satisfies Server.mu guards.
func (s *Server) Status(j *job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

// leak reads the job field with no Server lock anywhere in scope.
func leak(j *job) string {
	return j.state // want `read of state without holding Server.mu`
}

// NewServer initializes guarded fields on a value no other goroutine
// can see yet: fresh locals are exempt until published.
func NewServer() *Server {
	s := &Server{jobs: make(map[string]int)}
	s.jobs["seed"] = 1
	s.draining = false
	return s
}

// Snapshot documents a deliberate unguarded read.
func (s *Server) Snapshot() int {
	return len(s.jobs) //dtmlint:allow lockcheck approximate gauge read; tearing is acceptable
}

// Spawn's closure may run after Unlock, on another goroutine: it starts
// with an empty held set and must lock for itself.
func (s *Server) Spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.jobs["x"] = 2 // want `write to jobs without holding mu`
	}()
}

// SpawnSafe's closure acquires the lock itself.
func (s *Server) SpawnSafe() {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.jobs["y"] = 3
	}()
}

// Cfg holds the malformed-annotation cases: each is reported at the
// field rather than silently ignored. A sync.RWMutex guard is malformed:
// lockcheck guards with sync.Mutex only.
type Cfg struct {
	mu sync.Mutex
	rw sync.RWMutex
	// guarded-by:
	a int // want `malformed guarded-by annotation`
	// guarded-by: nosuch
	b int // want `the struct has no sync.Mutex field nosuch`
	// guarded-by: Missing.mu
	c int // want `no type Missing in this package`
	// guarded-by: job.state
	d int // want `job has no sync.Mutex field state`
	// guarded-by: rw
	e []int // want `malformed guarded-by annotation: rw is a sync.RWMutex`
	// guarded-by: Cfg.rw
	f []int // want `malformed guarded-by annotation: Cfg.rw is a sync.RWMutex`
}

var _ = leak
