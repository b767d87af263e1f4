package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeHoledCursors is testdata/parent-pr28/mkgolden.go.txt's scenario:
// two outbox consumers and one inbox cursor acknowledge out of order,
// and a GC and a Compact leave each meta log holding one snapshot of
// cursors with holes in them.
func writeHoledCursors(t *testing.T, dir string) (*Outbox, *Inbox) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := SegmentConfig{SegmentBytes: 96}

	ob, err := OpenOutbox(filepath.Join(dir, "outbox-data"), filepath.Join(dir, "outbox-meta"), cfg)
	must(err)
	must(ob.RegisterConsumer("sub-a"))
	must(ob.RegisterConsumer("sub-b"))
	for i := 1; i <= 12; i++ {
		_, err := ob.Add(Entry{ID: fmt.Sprintf("e%d", i), Payload: []byte(fmt.Sprintf("payload-%d", i))})
		must(err)
	}
	must(ob.AckRuns("sub-a", []Run{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 4}, {Lo: 7, Hi: 9}}))
	must(ob.AckRuns("sub-b", []Run{{Lo: 1, Hi: 1}, {Lo: 3, Hi: 3}, {Lo: 11, Hi: 11}}))
	_, err = ob.GC()
	must(err)

	ib, err := OpenInbox(filepath.Join(dir, "inbox-data"), filepath.Join(dir, "inbox-acks"), cfg)
	must(err)
	_, err = ib.EnsureCursor("d1")
	must(err)
	for i := 1; i <= 10; i++ {
		_, err := ib.Stage(fmt.Sprintf("s%d", i), "pub", []byte(fmt.Sprintf("staged-%d", i)))
		must(err)
	}
	for _, i := range []int{1, 2, 4, 6, 7, 9} {
		must(ib.Ack("d1", fmt.Sprintf("s%d", i)))
	}
	must(ib.Compact())
	return ob, ib
}

// TestHoledCursorSnapshotsMatchParent: the cursors' encoding on disk is
// the one testdata/parent-pr28/dir was written in. The scenario writes
// those files byte for byte, cursor snapshots with holes included, and
// this code reads back from them what their writer read (expect.json).
func TestHoledCursorSnapshotsMatchParent(t *testing.T) {
	const golden = "testdata/parent-pr28/dir"
	var expect struct {
		Pending map[string][]string
		Replay  []string
	}
	raw, err := os.ReadFile("testdata/parent-pr28/expect.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &expect); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ob, ib := writeHoledCursors(t, dir)
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ib.Close(); err != nil {
		t.Fatal(err)
	}
	var files []string
	err = filepath.WalkDir(golden, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) == 0 {
		t.Fatalf("golden files: %v, %v", files, err)
	}
	for _, path := range files {
		rel, _ := filepath.Rel(golden, path)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", rel, got, want)
		}
	}

	parent := t.TempDir() // opening may append: work on a copy
	if err := os.CopyFS(parent, os.DirFS(golden)); err != nil {
		t.Fatal(err)
	}
	cfg := SegmentConfig{SegmentBytes: 96}
	ob, err = OpenOutbox(filepath.Join(parent, "outbox-data"), filepath.Join(parent, "outbox-meta"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ob.Close()
	pending := map[string][]string{}
	for c := range expect.Pending {
		entries, err := ob.Pending(c)
		if err != nil {
			t.Fatal(err)
		}
		pending[c] = []string{}
		for _, e := range entries {
			pending[c] = append(pending[c], e.ID)
		}
	}
	if !reflect.DeepEqual(pending, expect.Pending) {
		t.Errorf("outbox pending:\n got %v\nwant %v", pending, expect.Pending)
	}
	ib, err = OpenInbox(filepath.Join(parent, "inbox-data"), filepath.Join(parent, "inbox-acks"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()
	var replay []string
	if err := ib.Replay("d1", func(id, _ string, _ []byte) error {
		replay = append(replay, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, expect.Replay) {
		t.Errorf("inbox replay:\n got %v\nwant %v", replay, expect.Replay)
	}
}
