package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collect reads every record with offset >= from into a map.
func collect(t *testing.T, l *SegmentLog, from uint64) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	if err := l.ReadFrom(from, func(off uint64, data []byte) error {
		out[off] = append([]byte(nil), data...)
		return nil
	}); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return out
}

func TestSegmentLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := range 20 {
		rec := []byte(fmt.Sprintf("record-%d", i))
		off, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := uint64(i + 1); off != got {
			t.Fatalf("offset = %d, want %d", off, got)
		}
		want = append(want, rec)
	}
	check := func(l *SegmentLog) {
		t.Helper()
		got := collect(t, l, 1)
		if len(got) != len(want) {
			t.Fatalf("got %d records, want %d", len(got), len(want))
		}
		for i, rec := range want {
			if !bytes.Equal(got[uint64(i+1)], rec) {
				t.Fatalf("record %d = %q, want %q", i+1, got[uint64(i+1)], rec)
			}
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: same contents, offsets continue.
	l, err = OpenSegmentLog(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l)
	if got := l.NextOffset(); got != 21 {
		t.Fatalf("NextOffset after reopen = %d, want 21", got)
	}
}

func TestSegmentLogRollAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record (plus frame) overflows 1 byte, so
	// each record lands in its own segment.
	l, err := OpenSegmentLog(dir, SegmentConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := range 5 {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments != 5 {
		t.Fatalf("segments = %d, want 5", st.Segments)
	}
	segs, recs, err := l.Compact(4) // drop offsets 1..3
	if err != nil {
		t.Fatal(err)
	}
	if segs != 3 || recs != 3 {
		t.Fatalf("Compact dropped %d segs / %d recs, want 3/3", segs, recs)
	}
	if got := l.FirstOffset(); got != 4 {
		t.Fatalf("FirstOffset = %d, want 4", got)
	}
	got := collect(t, l, 1)
	if len(got) != 2 || got[4] == nil || got[5] == nil {
		t.Fatalf("post-compact records = %v", got)
	}
	// The active segment is never dropped, even when eligible.
	if _, _, err := l.Compact(100); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after full compact = %d, want the active 1", st.Segments)
	}
}

func TestSegmentLogCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir, SegmentConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := l.Compact(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenSegmentLog(dir, SegmentConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.FirstOffset(); got != 3 {
		t.Fatalf("FirstOffset after reopen = %d, want 3", got)
	}
	if got := l.NextOffset(); got != 5 {
		t.Fatalf("NextOffset after reopen = %d, want 5", got)
	}
}

// TestSegmentLogTornTailEveryByte is the property test for torn-write
// recovery at the segment layer: truncating the final segment at every
// byte offset inside the final record must still open, replaying the
// longest valid prefix.
func TestSegmentLogTornTailEveryByte(t *testing.T) {
	base := t.TempDir()
	// Build a reference log once to learn the file layout.
	refDir := filepath.Join(base, "ref")
	l, err := OpenSegmentLog(refDir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	records := [][]byte{
		[]byte("alpha"), []byte("beta-beta"), []byte("gamma!"), []byte("the final record"),
	}
	for _, rec := range records {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segFile := segPath(refDir, 1)
	full, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := frameHeader + len(records[len(records)-1])
	goodBytes := len(full) - lastFrame

	for cut := goodBytes; cut < len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenSegmentLog(dir, SegmentConfig{})
		if err != nil {
			t.Fatalf("cut at %d: Open failed: %v", cut, err)
		}
		got := collect(t, l, 1)
		if len(got) != len(records)-1 {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), len(records)-1)
		}
		for i, rec := range records[:len(records)-1] {
			if !bytes.Equal(got[uint64(i+1)], rec) {
				t.Fatalf("cut at %d: record %d = %q, want %q", cut, i+1, got[uint64(i+1)], rec)
			}
		}
		// A cut exactly on the frame boundary is a clean EOF (the final
		// record simply never made it to disk); any cut inside the
		// frame is a torn tail and must be counted.
		wantTorn := uint64(1)
		if cut == goodBytes {
			wantTorn = 0
		}
		if st := l.Stats(); st.TornTails != wantTorn {
			t.Fatalf("cut at %d: TornTails = %d, want %d", cut, st.TornTails, wantTorn)
		}
		// The log must accept appends after recovery, reusing the
		// truncated record's offset.
		off, err := l.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if off != uint64(len(records)) {
			t.Fatalf("cut at %d: post-recovery offset = %d, want %d", cut, off, len(records))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A flipped byte in the interior of a sealed segment is corruption, not
// a torn tail: Open must refuse rather than silently drop records.
func TestSegmentLogInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentLog(dir, SegmentConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := l.Append([]byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first (sealed, non-final) segment's record body.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentLog(dir, SegmentConfig{}); err == nil {
		t.Fatal("Open accepted interior corruption")
	}
}

func TestSegmentLogSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch} {
		dir := t.TempDir()
		l, err := OpenSegmentLog(dir, SegmentConfig{Sync: policy})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 10 {
			if _, err := l.Append([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		st := l.Stats()
		if policy == SyncAlways && st.Syncs != 10 {
			t.Fatalf("SyncAlways: %d syncs for 10 appends", st.Syncs)
		}
		if policy == SyncBatch && st.Syncs != 0 {
			t.Fatalf("SyncBatch: %d syncs before any barrier", st.Syncs)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendPartsTornTailEveryByte is the torn-write property over
// records appended as parts: the segment file is byte for byte what
// Append of each concatenation writes, and truncating it at every
// offset inside the final record still opens to the longest valid
// prefix, whose records read back as the concatenations.
func TestAppendPartsTornTailEveryByte(t *testing.T) {
	base := t.TempDir()
	records := [][][]byte{
		{[]byte("hdr"), []byte("alpha")},
		{nil, []byte("beta-beta")},
		{[]byte("one part")},
		{[]byte("h"), nil, []byte("gamma!"), []byte("tail")},
		{[]byte("the final"), []byte(" record")},
	}
	partsDir, wholeDir := filepath.Join(base, "parts"), filepath.Join(base, "whole")
	lp, err := OpenSegmentLog(partsDir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lw, err := OpenSegmentLog(wholeDir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var whole [][]byte
	for i, parts := range records {
		rec := bytes.Join(parts, nil)
		whole = append(whole, rec)
		op, err := lp.AppendParts(parts...)
		if err != nil {
			t.Fatal(err)
		}
		ow, err := lw.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if op != ow || op != uint64(i+1) {
			t.Fatalf("record %d: offsets %d (parts) and %d (whole), want %d", i, op, ow, i+1)
		}
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(segPath(partsDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(segPath(wholeDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, ref) {
		t.Fatalf("AppendParts wrote\n%x\nAppend of the concatenations wrote\n%x", full, ref)
	}

	goodBytes := len(full) - (frameHeader + len(whole[len(whole)-1]))
	for cut := goodBytes; cut <= len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenSegmentLog(dir, SegmentConfig{})
		if err != nil {
			t.Fatalf("cut at %d: Open failed: %v", cut, err)
		}
		want := whole[:len(whole)-1]
		if cut == len(full) {
			want = whole
		}
		got := collect(t, l, 1)
		if len(got) != len(want) {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), len(want))
		}
		for i, rec := range want {
			if !bytes.Equal(got[uint64(i+1)], rec) {
				t.Fatalf("cut at %d: record %d = %q, want %q", cut, i+1, got[uint64(i+1)], rec)
			}
		}
		wantTorn := uint64(1)
		if cut == goodBytes || cut == len(full) {
			wantTorn = 0 // a frame boundary is a clean end
		}
		if st := l.Stats(); st.TornTails != wantTorn {
			t.Fatalf("cut at %d: TornTails = %d, want %d", cut, st.TornTails, wantTorn)
		}
		// The framing buffer is reused: a record appended after recovery
		// must not carry bytes of an earlier, longer one.
		off, err := l.AppendParts([]byte("post"), []byte("-recovery"))
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if got := collect(t, l, off)[off]; string(got) != "post-recovery" {
			t.Fatalf("cut at %d: post-recovery record = %q", cut, got)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendPartsConcurrent appends records of many lengths from several
// goroutines at once: the framing buffer is shared under the log's lock,
// so every record must read back whole and as one of those written.
func TestAppendPartsConcurrent(t *testing.T) {
	l, err := OpenSegmentLog(t.TempDir(), SegmentConfig{SegmentBytes: 4 << 10, Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				head := []byte(fmt.Sprintf("w%d-%d:", w, i))
				body := bytes.Repeat([]byte{byte('a' + w)}, (i*37)%900)
				if _, err := l.AppendParts(head, body); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got := collect(t, l, 1)
	if len(got) != writers*each {
		t.Fatalf("read back %d records, want %d", len(got), writers*each)
	}
	for off, rec := range got {
		var w, i int
		head, body, ok := bytes.Cut(rec, []byte(":"))
		if _, err := fmt.Sscanf(string(head), "w%d-%d", &w, &i); !ok || err != nil {
			t.Fatalf("record %d: malformed head %q", off, rec)
		}
		if want := bytes.Repeat([]byte{byte('a' + w)}, (i*37)%900); !bytes.Equal(body, want) {
			t.Fatalf("record %d (writer %d, #%d): body of %d bytes, want %d of %q", off, w, i, len(body), len(want), 'a'+w)
		}
	}
}
