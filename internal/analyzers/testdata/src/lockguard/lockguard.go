// Package lockguard exercises the lock-discipline analyzer on the
// shape the real shard code uses: a mutex field next to the state it
// guards, annotated with the human "guarded by mu" idiom.
package lockguard

import "sync"

// slot mirrors internal/shard's per-shard slot.
type slot struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Locked reads n under mu, the way every shard accessor does.
func (s *slot) Locked() int {
	s.mu.Lock()
	v := s.n
	s.mu.Unlock()
	return v
}

// DeferLocked holds mu through a defer, the checkpoint-path idiom.
func (s *slot) DeferLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Unlocked is the acceptance case: the mu.Lock() line deleted.
func (s *slot) Unlocked() int {
	return s.n // want `access to n \(guarded by mu\) without holding s\.mu`
}

// AfterUnlock touches n after releasing mu.
func (s *slot) AfterUnlock() int {
	s.mu.Lock()
	s.mu.Unlock()
	return s.n // want `access to n \(guarded by mu\) without holding s\.mu`
}

// WriteUnlocked stores without the lock; writes are findings too.
func (s *slot) WriteUnlocked(v int) {
	s.n = v // want `access to n \(guarded by mu\) without holding s\.mu`
}

// peek requires mu held at entry; inside, the guarded access needs no
// Lock of its own.
//
//memento:locked mu
func (s *slot) peek() int { return s.n }

// CallsPeekHeld holds mu across the peek call.
func (s *slot) CallsPeekHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peek()
}

// CallsPeekUnheld calls a locked method without the lock.
func (s *slot) CallsPeekUnheld() int {
	return s.peek() // want `call to peek requires holding s\.mu \(//memento:locked mu\)`
}

// TryLocked reads n only where TryLock succeeded: the then arm holds
// mu, the code after the if (reached when it failed) does not.
func (s *slot) TryLocked() int {
	if s.mu.TryLock() {
		v := s.n
		s.mu.Unlock()
		return v
	}
	return s.n // want `access to n \(guarded by mu\) without holding s\.mu`
}

// FirstFree is internal/shard's dealing loop: skip a busy slot, use
// the first free one. After if !TryLock() { continue } mu is held;
// inside the skip arm it is not.
func FirstFree(slots []slot) int {
	for i := range slots {
		sl := &slots[i]
		if !sl.mu.TryLock() {
			_ = sl.n // want `access to n \(guarded by mu\) without holding sl\.mu`
			continue
		}
		v := sl.n
		sl.mu.Unlock()
		return v
	}
	return 0
}

// TryLockFallsThrough holds mu on one arm only, so not after the if.
func (s *slot) TryLockFallsThrough() int {
	if s.mu.TryLock() {
		s.n++
	}
	return s.n // want `access to n \(guarded by mu\) without holding s\.mu`
}

// TryLockDiscarded ignores TryLock's answer, so nothing is held.
func (s *slot) TryLockDiscarded() int {
	s.mu.TryLock()
	return s.n // want `access to n \(guarded by mu\) without holding s\.mu`
}

// NewSlot writes the guarded field before the instance is shared —
// the constructor waiver idiom the real tree uses.
func NewSlot(n int) *slot {
	s := &slot{}
	//memento:allow lock "instance under construction; not yet shared"
	s.n = n
	return s
}
