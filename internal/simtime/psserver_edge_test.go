package simtime

import (
	"testing"
	"time"
)

// The edge cases below pin behaviors the virtual-time rewrite must
// preserve; each scenario runs against both engines through the
// differential harness so the contract is stated once.

func forBothEngines(t *testing.T, f func(t *testing.T, legacy bool)) {
	t.Helper()
	for _, tc := range []struct {
		name   string
		legacy bool
	}{{"virtual-time", false}, {"legacy", true}} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.legacy) })
	}
}

// Zero-work jobs complete via a same-instant event (not inline in
// Submit), even while other jobs keep the server busy, and do not
// disturb the resident jobs' completion times.
func TestPSServerZeroWorkAmongActiveJobs(t *testing.T) {
	forBothEngines(t, func(t *testing.T, legacy bool) {
		sim := New()
		h := newPSHarness(sim, 1, legacy)
		var longDone, zeroDone time.Duration
		h.submit(2*time.Second, func() { longDone = sim.Now() })
		sim.At(time.Second, func() {
			h.submit(0, func() { zeroDone = sim.Now() })
			if zeroDone != 0 {
				t.Error("zero-work completion ran inline inside Submit")
			}
		})
		sim.Run()
		if zeroDone != time.Second {
			t.Fatalf("zero-work job completed at %v, want 1s", zeroDone)
		}
		// The long job shared the core only with a zero-work job, which
		// holds a slot for zero time: 2s of work still ends at 2s.
		if longDone != 2*time.Second {
			t.Fatalf("long job completed at %v, want 2s", longDone)
		}
	})
}

// Simultaneous completions fire their callbacks in submission order,
// regardless of the order the job heap yields them.
func TestPSServerSimultaneousCompletionsSeqOrdered(t *testing.T) {
	forBothEngines(t, func(t *testing.T, legacy bool) {
		sim := New()
		h := newPSHarness(sim, 8, legacy)
		var order []int
		// Same work, same instant: all complete in one batch.
		for i := 0; i < 6; i++ {
			id := i
			h.submit(time.Second, func() { order = append(order, id) })
		}
		sim.Run()
		if len(order) != 6 {
			t.Fatalf("completed %d jobs, want 6", len(order))
		}
		for i, id := range order {
			if id != i {
				t.Fatalf("completion order %v, want submission order", order)
			}
		}
	})
}

// Cancelling the soonest-finishing job must reschedule onto the next
// candidate, whose completion time reflects only the sharing that
// actually happened.
func TestPSServerCancelSoonestJob(t *testing.T) {
	forBothEngines(t, func(t *testing.T, legacy bool) {
		sim := New()
		h := newPSHarness(sim, 1, legacy)
		var survivorDone time.Duration
		cancelFirst, _ := h.submit(time.Second, func() { t.Error("cancelled job completed") })
		h.submit(3*time.Second, func() { survivorDone = sim.Now() })
		sim.At(500*time.Millisecond, func() { cancelFirst() })
		sim.Run()
		// Shared at rate 1/2 for 0.5s (0.25s progress), then alone:
		// 2.75s more, done at 3.25s.
		want := 3250 * time.Millisecond
		if d := survivorDone - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("survivor completed at %v, want ~%v", survivorDone, want)
		}
	})
}

// JobSeconds queried mid-quantum (between completion events) must
// account the partial interval without perturbing any completion.
func TestPSServerJobSecondsMidQuantum(t *testing.T) {
	forBothEngines(t, func(t *testing.T, legacy bool) {
		sim := New()
		h := newPSHarness(sim, 2, legacy)
		var done time.Duration
		h.submit(4*time.Second, func() { done = sim.Now() })
		h.submit(4*time.Second, nil)
		h.submit(4*time.Second, nil)
		// Three jobs on two cores run at rate 2/3; probe at 1.5s, far
		// from any completion boundary: 3 jobs resident for 1.5s.
		var mid float64
		sim.At(1500*time.Millisecond, func() { mid = h.jobSeconds() })
		sim.Run()
		if mid < 4.499 || mid > 4.501 {
			t.Fatalf("mid-quantum integral = %v, want ~4.5", mid)
		}
		// 4s of work at rate 2/3 -> 6s, unaffected by the probe.
		if d := done - 6*time.Second; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("completion at %v, want ~6s (probe disturbed the schedule)", done)
		}
	})
}

// With fewer jobs than capacity the per-job rate clamps at 1: spare
// cores never make a job run faster than real time.
func TestPSServerRateClampUnderCapacity(t *testing.T) {
	forBothEngines(t, func(t *testing.T, legacy bool) {
		sim := New()
		h := newPSHarness(sim, 16, legacy)
		var done time.Duration
		_, remaining := h.submit(8*time.Second, func() { done = sim.Now() })
		var mid time.Duration
		sim.At(3*time.Second, func() { mid = remaining() })
		sim.Run()
		if done != 8*time.Second {
			t.Fatalf("completed at %v, want exactly 8s (rate must clamp at 1)", done)
		}
		if d := mid - 5*time.Second; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("remaining at 3s = %v, want ~5s", mid)
		}
	})
}

// Remaining on a cancelled job reports the residual frozen at
// cancellation time.
func TestPSServerRemainingFrozenAtCancel(t *testing.T) {
	forBothEngines(t, func(t *testing.T, legacy bool) {
		sim := New()
		h := newPSHarness(sim, 1, legacy)
		cancel, remaining := h.submit(4*time.Second, func() { t.Error("cancelled job completed") })
		sim.At(time.Second, func() { cancel() })
		// Keep the server busy so virtual progress keeps accruing after
		// the cancellation.
		sim.At(time.Second, func() { h.submit(2*time.Second, nil) })
		var afterwards time.Duration
		sim.At(2*time.Second, func() { afterwards = remaining() })
		sim.Run()
		if d := afterwards - 3*time.Second; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("remaining after cancel = %v, want ~3s frozen at cancellation", afterwards)
		}
	})
}

// The Active() observer fires after every change — submission, Cancel
// and each completion batch — and, within a batch, once after the
// drained jobs leave and before their callbacks run, so the last value
// it received always equals Active().
func TestPSServerActiveObserver(t *testing.T) {
	sim := New()
	p := NewPSServer(sim, 2)
	var seen []int
	last := -1
	p.OnActiveChange(func(active int) {
		seen = append(seen, active)
		last = active
	})
	check := func(where string) {
		t.Helper()
		if last != p.Active() {
			t.Fatalf("%s: observer holds %d, Active() = %d", where, last, p.Active())
		}
	}
	// Three jobs finish together at 1.5s (rate 2/3 each); one more is
	// cancelled before then and a transient one finishes alone later.
	for i := 0; i < 3; i++ {
		p.SubmitTransient(time.Second, func() { check("batch callback") })
	}
	doomed := p.Submit(5*time.Second, nil)
	check("after submits")
	sim.At(500*time.Millisecond, func() {
		doomed.Cancel()
		check("after cancel")
		doomed.Cancel() // no-op: must not notify again
	})
	sim.Run()
	check("after run")
	want := []int{1, 2, 3, 4, 3, 0}
	if len(seen) != len(want) {
		t.Fatalf("observer saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observer saw %v, want %v", seen, want)
		}
	}
	// Removing the observer stops notifications.
	p.OnActiveChange(nil)
	p.SubmitTransient(time.Second, nil)
	sim.Run()
	if len(seen) != len(want) {
		t.Fatalf("removed observer still notified: %v", seen)
	}
}
