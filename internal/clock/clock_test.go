package clock

import (
	"slices"
	"testing"
	"time"
)

// TestFakeClockFiresInDeadlineOrder: Advance runs what falls due on the
// way, earliest first and in arming order at one instant, with the clock
// reading each deadline; a callback's own re-arming fires within the
// same Advance when it falls due there; a stopped timer does not fire,
// and Fired counts what did.
func TestFakeClockFiresInDeadlineOrder(t *testing.T) {
	start := time.Unix(100, 0)
	c := NewFake(start)
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, name+"@"+c.Now().Sub(start).String()) }
	}
	var ticker Timer
	ticks := 0
	ticker = c.AfterFunc(3*time.Second, func() {
		at("tick")()
		if ticks++; ticks < 3 {
			ticker.Reset(3 * time.Second)
		}
	})
	c.AfterFunc(5*time.Second, at("b"))
	c.AfterFunc(5*time.Second, at("c"))
	stopped := c.AfterFunc(time.Second, at("stopped"))
	if !stopped.Stop() || stopped.Stop() {
		t.Error("Stop did not report the timer pending once, then not")
	}

	c.Advance(4 * time.Second)
	if want := []string{"tick@3s"}; !slices.Equal(got, want) {
		t.Fatalf("after 4 s: %v, want %v", got, want)
	}
	if now := c.Now().Sub(start); now != 4*time.Second {
		t.Fatalf("the clock reads %v after Advance(4 s), want 4s", now)
	}
	c.Advance(10 * time.Second)
	if want := []string{"tick@3s", "b@5s", "c@5s", "tick@6s", "tick@9s"}; !slices.Equal(got, want) {
		t.Fatalf("after 14 s: %v, want %v", got, want)
	}
	if n := c.Fired(); n != 5 {
		t.Errorf("Fired = %d, want 5", n)
	}
	c.Advance(time.Hour)
	if n := c.Fired(); n != 5 {
		t.Errorf("an idle hour fired %d callbacks", n-5)
	}
}

// TestFakeTimerReset: Reset re-arms from the clock's reading, whether
// the timer is pending or not, and reports which.
func TestFakeTimerReset(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	fired := 0
	tm := c.AfterFunc(time.Second, func() { fired++ })
	c.Advance(900 * time.Millisecond)
	if !tm.Reset(time.Second) {
		t.Error("Reset of a pending timer reported it idle")
	}
	c.Advance(900 * time.Millisecond)
	if fired != 0 {
		t.Fatal("a timer fired at its deadline from before Reset")
	}
	c.Advance(100 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times at the deadline Reset set, want 1", fired)
	}
	if tm.Reset(time.Second) {
		t.Error("Reset of a fired timer reported it pending")
	}
	c.Advance(time.Second)
	if fired != 2 {
		t.Errorf("fired %d times after a Reset of a fired timer, want 2", fired)
	}
}
