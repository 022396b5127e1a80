package netwide

import (
	"net"
	"sync"
	"testing"
	"time"

	"memento/internal/core"
	"memento/internal/hierarchy"
)

// TestAgentConcurrentObserve hammers Observe from many goroutines while
// the controller consumes, and reads the controller's sketch the whole
// time: Estimate and Output from four goroutines and Mitigate from one
// more, all under the ingest lock the absorbing handler takes. Run with
// -race to validate the locking.
func TestAgentConcurrentObserve(t *testing.T) {
	params := Params{Budget: 2, BatchSize: 8, Window: 1 << 12}
	ctrl, addr := startController(t, params, 512)
	a, err := DialAgent(addr, AgentConfig{Name: "mt", Params: params, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	waitFor(t, "join", func() bool { return ctrl.Agents() == 1 })

	// Estimates, outputs and verdicts must be readable while reports
	// land; each reader runs at least 100 rounds, and keeps going until
	// the observers are done.
	observed := make(chan struct{})
	var q sync.WaitGroup
	reader := func(read func(i int)) {
		q.Add(1)
		go func() {
			defer q.Done()
			for i := 0; ; i++ {
				if i >= 100 {
					select {
					case <-observed:
						return
					default:
					}
				}
				read(i)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		reader(func(i int) {
			_ = ctrl.Estimate(hierarchy.Prefix{Src: uint32(i) << 24, SrcLen: 1})
			_ = ctrl.Output(0.5)
		})
	}
	reader(func(int) {
		if _, err := ctrl.Mitigate(0.05, ActionDeny); err != nil {
			t.Errorf("Mitigate: %v", err)
		}
	})

	const workers = 8
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				a.Observe(hierarchy.Packet{Src: uint32(w<<24 | i)})
			}
		}(w)
	}
	wg.Wait()
	if a.Err() != nil {
		t.Fatalf("transport error under concurrency: %v", a.Err())
	}
	waitFor(t, "some reports", func() bool { return ctrl.Reports() > 0 })
	close(observed)
	q.Wait()
}

// TestBroadcastDuringChurn exercises Broadcast while agents connect
// and disconnect.
func TestBroadcastDuringChurn(t *testing.T) {
	params := Params{Budget: 2, BatchSize: 4, Window: 1 << 10}
	ctrl, addr := startController(t, params, 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a, err := DialAgent(addr, AgentConfig{Name: "churn", Params: params, Seed: uint64(i + 1)})
			if err != nil {
				continue
			}
			for j := 0; j < 100; j++ {
				a.Observe(hierarchy.Packet{Src: uint32(j)})
			}
			a.Close()
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := ctrl.Broadcast([]Verdict{{Subnet: 1 << 24, PrefixBytes: 1, Act: ActionDeny}}); err != nil {
			t.Fatalf("broadcast during churn: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	_ = net.IPv4len
}

// TestOutputMergedBesideDeltaApply runs OutputMerged and
// MergedSnapshots while the agent handlers patch their replicas in
// place, as fast as two agents can produce records. Both read a
// replica under its follower's lock, the lock Apply runs under: under
// -race a read outside it is reported as a data race, and every copy
// MergedSnapshots hands out must be a whole state, never one caught
// mid-patch — it holds every sketch invariant, and a merge running
// beside later records does not change it. The reader keeps going
// until records have applied during sixteen of its rounds.
func TestOutputMergedBesideDeltaApply(t *testing.T) {
	hier := hierarchy.OneD{}
	params := Params{Budget: 1, BatchSize: 1, Window: 1 << 12}
	ctrl, agents := deltaFleet(t, hier, params, 256, 2, 0)
	stream := fleetStream(1<<14, 11)

	stop := make(chan struct{})
	var feed sync.WaitGroup
	defer feed.Wait()
	defer close(stop)
	for _, a := range agents {
		feed.Add(1)
		go func(a *Agent) {
			defer feed.Done()
			for {
				for _, p := range stream {
					a.Observe(p)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(a)
	}

	probes := make([]hierarchy.Prefix, 0, 5*32)
	for _, p := range stream[:32] {
		for i := 0; i < hier.H(); i++ {
			probes = append(probes, hier.Prefix(p, i))
		}
	}
	fingerprint := func(snap *core.HHHSnapshot) float64 {
		sum := float64(snap.Updates())
		snap.Sketch().ForEachEstimate(func(_ hierarchy.Prefix, upper, lower float64) bool {
			sum += upper + lower
			return true
		})
		for _, p := range probes {
			sum += snap.Query(p)
		}
		return sum
	}
	var snaps []*core.HHHSnapshot
	var before []float64
	overlapped := 0
	for deadline := time.Now().Add(30 * time.Second); overlapped < 16; {
		if time.Now().After(deadline) {
			t.Fatalf("records applied during %d reader rounds (%d records applied)", overlapped, ctrl.Deltas())
		}
		applied := ctrl.Deltas()
		snaps = ctrl.MergedSnapshots(snaps[:0])
		before = before[:0]
		for _, snap := range snaps {
			if err := snap.Sketch().Validate(); err != nil {
				t.Fatalf("copied replica: %v", err)
			}
			before = append(before, fingerprint(snap))
		}
		ctrl.OutputMerged(0.05)
		for i, snap := range snaps {
			if got := fingerprint(snap); got != before[i] {
				t.Fatalf("copied replica changed under a merge: fingerprint %g, was %g", got, before[i])
			}
		}
		if ctrl.Deltas() > applied {
			overlapped++
		}
	}
}
