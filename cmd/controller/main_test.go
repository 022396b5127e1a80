package main

import (
	"strings"
	"testing"

	"memento/internal/hierarchy"
	"memento/internal/netwide"
)

// TestCheckTheta pins the degenerate-threshold rule at the command's
// own defaults (-window 2^20, -counters 2^14, -budget 1, -batch 44):
// the default θ passes, the old default of 0.01 is refused with an
// error naming the smallest θ that passes, and θ just above that bound
// passes. CI's smoke run at -window 65536 needs θ above ≈ 0.126.
func TestCheckTheta(t *testing.T) {
	for _, c := range []struct {
		window     int
		theta, min float64
	}{
		{window: 1 << 20, theta: 0.05, min: 0.0314},
		{window: 1 << 16, theta: 0.2, min: 0.126},
	} {
		ctrl, err := netwide.NewController(netwide.ControllerConfig{
			Hier:     hierarchy.OneD{},
			Params:   netwide.Params{Budget: 1, BatchSize: 44, Window: c.window},
			Counters: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		comp := ctrl.Compensation()
		ctrl.Close()
		if got := comp / float64(c.window); got < c.min*0.99 || got > c.min*1.01 {
			t.Fatalf("window %d: smallest θ %.4g, want ≈ %g", c.window, got, c.min)
		}
		if err := checkTheta(c.theta, c.window, comp); err != nil {
			t.Fatalf("window %d: θ %g refused: %v", c.window, c.theta, err)
		}
		err = checkTheta(0.01, c.window, comp)
		if err == nil || !strings.Contains(err.Error(), "above") {
			t.Fatalf("window %d: θ 0.01 accepted or unexplained: %v", c.window, err)
		}
		if err := checkTheta(comp/float64(c.window)*1.0001, c.window, comp); err != nil {
			t.Fatalf("window %d: θ just above the bound refused: %v", c.window, err)
		}
	}
}
