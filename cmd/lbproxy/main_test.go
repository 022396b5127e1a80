package main

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"memento/internal/delta"
)

// exclusiveSource is a delta.Source with shard.HHH.WriteChain's
// contract made checkable: one caller at a time. Each call stays open
// for a few periods of the test's ticker, so a second caller would
// land inside it.
type exclusiveSource struct {
	busy  atomic.Bool
	calls atomic.Int64
}

func (s *exclusiveSource) WriteChain(w io.Writer, rebase bool) (bool, error) {
	if !s.busy.CompareAndSwap(false, true) {
		return false, errors.New("WriteChain entered while another call was in flight")
	}
	defer s.busy.Store(false)
	s.calls.Add(1)
	time.Sleep(2 * time.Millisecond)
	_, err := w.Write([]byte{1})
	return rebase, err
}

// TestCheckpointTicksSerialized pins the shutdown shape: the periodic
// ticks and the final checkpoint come from one goroutine, the final
// one is written after stop is requested, and nothing ticks once stop
// has returned. Run under -race, which also watches the Checkpointer's
// own unsynchronized sequence state.
func TestCheckpointTicksSerialized(t *testing.T) {
	src := &exclusiveSource{}
	cp, err := delta.NewCheckpointer(t.TempDir(), src, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Written only by the checkpoint goroutine; read after stop has
	// waited for it to exit.
	seen := map[string]bool{}
	var errs []error
	stop := startCheckpoints(cp, time.Millisecond, func(path string, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		if seen[path] {
			errs = append(errs, errors.New("two ticks renamed onto "+path))
		}
		seen[path] = true
	})
	// Back-to-back periodic ticks, so stop lands while one is in flight.
	for src.calls.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	before := src.calls.Load()
	stop()
	after := src.calls.Load()
	for _, err := range errs {
		t.Error(err)
	}
	if after <= before {
		t.Fatalf("no final checkpoint: %d WriteChain calls before stop, %d after", before, after)
	}
	if int64(len(seen)) != after {
		t.Fatalf("%d chain files reported for %d WriteChain calls", len(seen), after)
	}
	time.Sleep(5 * time.Millisecond)
	if late := src.calls.Load(); late != after {
		t.Fatalf("%d ticks after stop returned", late-after)
	}
}
