package core

import (
	"testing"
	"time"

	"govents/internal/telemetry"
)

// TestExecutorE2EGatedOnPublishStamp proves the legacy-publisher
// witness: a delivery whose envelope carried no publish stamp (pub ==
// 0, as sent by a pre-telemetry binary) closes the dispatch stage but
// records nothing in the end-to-end histogram, while a stamped delivery
// records both.
func TestExecutorE2EGatedOnPublishStamp(t *testing.T) {
	p := telemetry.NewPlane()
	x := newExecutor(func(submission) bool { return true }, p, 0, 0, &overloadCounters{})

	deq := telemetry.Now()
	if x.submit(&submission{o: freeTick{N: 1}, deq: deq, id: "legacy-1", class: "freeTick"}) != submitOK {
		t.Fatal("submit refused")
	}
	if x.submit(&submission{o: freeTick{N: 2}, deq: deq, pub: time.Now().UnixNano(), id: "modern-1", class: "freeTick"}) != submitOK {
		t.Fatal("submit refused")
	}

	// close returns once no delivery is running, so after both have
	// finished: finish records Dispatch before E2E, and a wait on the
	// Dispatch count alone could read between the two.
	x.close()
	if got := p.StageSnapshot(telemetry.StageDispatch).Count; got != 2 {
		t.Fatalf("dispatch samples = %d, want 2", got)
	}
	if got := p.StageSnapshot(telemetry.StageE2E).Count; got != 1 {
		t.Errorf("e2e samples = %d, want 1 (the stamped delivery only)", got)
	}
}
