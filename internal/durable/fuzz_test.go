package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// recoveryLogs are the four logs of a class, by the directory of each.
var recoveryLogs = []string{obData, obMeta, ibData, ibAcks}

// recoveryDisk is a class's outbox and inbox after a little of
// everything: registrations, appends and stagings, acknowledgements in
// and out of order, a compaction on each side and history after it.
func recoveryDisk(tb testing.TB) *simDisk {
	disk := newSimDisk()
	cfg := SegmentConfig{SegmentBytes: 128, Sync: SyncBatch, fs: disk}
	o, err := OpenOutbox(obData, obMeta, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ib, err := OpenInbox(ibData, ibAcks, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(o.RegisterConsumer("c1"))
	_, err = ib.EnsureCursor("d1")
	must(err)
	for i, id := range crashIDs[:8] {
		off, err := o.Add(Entry{ID: id, Payload: []byte("payload-" + id)})
		must(err)
		_, err = ib.Stage(id, "pub", []byte("payload-"+id))
		must(err)
		if i == 2 {
			must(o.RegisterConsumer("c2"))
			_, err = ib.EnsureCursor("d2")
			must(err)
		}
		if i%2 == 1 {
			must(o.AckRuns("c1", []Run{{off, off}, {off - 1, off - 1}}))
			must(ib.Ack("d1", id))
			must(ib.Ack("d1", crashIDs[i-1]))
		}
		if i == 5 {
			must(o.AckRuns("c2", []Run{{1, off}}))
			_, err = o.GC()
			must(err)
			must(ib.Compact())
		}
	}
	must(o.Close())
	must(ib.Close())
	return disk
}

// lastSegment is the newest segment file of the log in dir.
func lastSegment(disk *simDisk, dir string) string {
	var names []string
	for name := range disk.files {
		if filepath.Dir(name) == dir && strings.HasSuffix(name, ".seg") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names[len(names)-1]
}

// frameRecords frames each record of src, a sequence of [u8 length]
// [bytes], with a valid CRC: what a log would have written, so that
// recovery gets past the frame to the record decoders.
func frameRecords(src []byte) []byte {
	var out []byte
	for len(src) > 0 {
		n := min(int(src[0]), len(src)-1)
		rec := src[1 : 1+n]
		src = src[1+n:]
		out = binary.BigEndian.AppendUint32(out, uint32(len(rec)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(rec))
		out = append(out, rec...)
	}
	return out
}

// unframeRecords is frameRecords' inverse, for the seeds.
func unframeRecords(seg []byte) []byte {
	var out []byte
	r := bytes.NewReader(seg)
	for {
		rec, _, err := readFrame(r)
		if err != nil || len(rec) > 255 {
			return out
		}
		out = append(append(out, byte(len(rec))), rec...)
	}
}

// FuzzSegmentRecovery: arbitrary bytes as the newest segment of one of
// a class's four logs — raw, or as records behind valid frames. Opening
// the outbox or the inbox either fails with an error or recovers; a
// recovered one takes new records, compacts and reopens. Recovery never
// panics, and never allocates past maxRecordBytes whatever a length
// claims.
func FuzzSegmentRecovery(f *testing.F) {
	base := recoveryDisk(f)
	for which, dir := range recoveryLogs {
		seg := slices.Clone(base.files[lastSegment(base, dir)])
		f.Add(uint8(which), false, seg)
		f.Add(uint8(which), true, unframeRecords(seg))
		f.Add(uint8(which), false, seg[:len(seg)/2])
	}
	huge := binary.BigEndian.AppendUint32(nil, maxRecordBytes) // a length at the limit, and nothing behind it
	f.Add(uint8(0), false, append(huge, 0, 0, 0, 0))
	f.Add(uint8(1), true, []byte{9, metaCursors, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1}) // a count no record holds

	f.Fuzz(func(t *testing.T, which uint8, framed bool, seg []byte) {
		dir := recoveryLogs[int(which)%len(recoveryLogs)]
		if framed {
			seg = frameRecords(seg)
		}
		disk := newSimDisk()
		for name, b := range base.files {
			disk.files[name] = slices.Clone(b)
		}
		disk.files[lastSegment(disk, dir)] = slices.Clone(seg)
		cfg := SegmentConfig{SegmentBytes: 128, Sync: SyncBatch, fs: disk}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var reopen func() error
		if filepath.Dir(dir) == "ob" {
			o, err := OpenOutbox(obData, obMeta, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				return
			}
			consumers, _ := o.Consumers()
			for _, c := range consumers {
				if _, err := o.Pending(c); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := o.Add(Entry{ID: "new", Payload: []byte("p")}); err != nil {
				t.Fatal(err)
			}
			for _, c := range consumers {
				if err := o.AckRuns(c, []Run{{0, math.MaxUint64}}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := o.GC(); err != nil {
				t.Fatal(err)
			}
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			reopen = func() error {
				o, err := OpenOutbox(obData, obMeta, cfg)
				if err == nil {
					err = o.Close()
				}
				return err
			}
		} else {
			ib, err := OpenInbox(ibData, ibAcks, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				return
			}
			if _, err := ib.Stage("new", "pub", []byte("p")); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{"d1", "d2"} {
				if ib.HasCursor(d) {
					if err := ib.Replay(d, func(string, string, []byte) error { return nil }); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ib.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := ib.Close(); err != nil {
				t.Fatal(err)
			}
			reopen = func() error {
				ib, err := OpenInbox(ibData, ibAcks, cfg)
				if err == nil {
					err = ib.Close()
				}
				return err
			}
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > maxRecordBytes {
			t.Fatalf("recovering a %d-byte segment allocated %d bytes", len(seg), n)
		}
		if err := reopen(); err != nil {
			t.Fatalf("recovered, then failed to reopen: %v", err)
		}
	})
}
