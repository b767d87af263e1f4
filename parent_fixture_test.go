package govents_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"govents"
	"govents/internal/codec"
	"govents/internal/durable"
	iobvent "govents/internal/obvent"
	"govents/netsim"
	"govents/obvent"
)

// parentReading and parentTick are the classes of
// testdata/parent-pr25/mkfixture_test.go.txt, which wrote, with the build
// before gob was retired as a payload encoding, the stored record of one
// event of each: parentReading's TimelyBase made its payload gob
// (encoding 0), parentTick's compiled (encoding 1). Keep the two alike.
type parentReading struct {
	obvent.Base
	obvent.CertifiedBase
	obvent.TimelyBase
	Sensor string
	Value  float64
	Seq    int
}

type parentTick struct {
	obvent.Base
	obvent.CertifiedBase
	Sensor string
	Value  float64
	Seq    int
}

// parentTickValue is the event the fixture's flat record holds.
var parentTickValue = parentTick{Sensor: "s-1", Value: 21.5, Seq: 7}

// parentTickEnvelope is the envelope the fixture's flat record holds,
// encoded by cdc.
func parentTickEnvelope(t *testing.T, cdc *codec.Codec) *codec.Envelope {
	t.Helper()
	env, err := cdc.EncodeFrom("node-0", parentTickValue)
	if err != nil {
		t.Fatal(err)
	}
	env.ID = "0123456789abcdef0123456789abcdef" // the parent's random ID, which reads as a name
	env.Name, _ = codec.ParseName(env.ID)
	env.PubNanos = 1790000000123456789
	return env
}

// withRetiredSeqZeroed returns a parent's stored record of env as this
// build writes it. The parent's fixtures set the envelope's per-publisher
// sequence number to 42, a field nothing else set or read and that is
// gone: this build reads that byte and drops it, and writes 0 in its
// place, so its record is the parent's with that one byte zeroed. It
// sits behind format, flags, Enc and the three length-prefixed strings.
func withRetiredSeqZeroed(t *testing.T, record []byte, env *codec.Envelope) []byte {
	t.Helper()
	at := 3 + 1 + len(env.ID) + 1 + len(env.Type) + 1 + len(env.Publisher)
	if record[at] != 42 {
		t.Fatalf("the parent's record holds %d where its sequence number 42 was", record[at])
	}
	out := bytes.Clone(record)
	out[at] = 0
	return out
}

// sameEnvelope reports whether two envelopes agree on every exported
// field, which is what a record carries.
func sameEnvelope(a, b *codec.Envelope) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestParentRecordsOfTheGobEra: the break that retired gob is one way.
// This build opens the parent's record of a flat class field for field
// and writes it back byte for byte, by copy and in place, bar the
// retired sequence number (withRetiredSeqZeroed); it refuses the
// parent's record of a Timely class, which names payload encoding 0.
func TestParentRecordsOfTheGobEra(t *testing.T) {
	flat, err := os.ReadFile("testdata/parent-pr25/flat.bin")
	if err != nil {
		t.Fatal(err)
	}
	timely, err := os.ReadFile("testdata/parent-pr25/timely.bin")
	if err != nil {
		t.Fatal(err)
	}
	cdc := codec.New(iobvent.NewRegistry())
	want := parentTickEnvelope(t, cdc)
	got, err := codec.Unmarshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	opened := *want
	opened.ID = "" // the parent's ID is a name's text: it opens as the name, with no text
	if !sameEnvelope(got, &opened) {
		t.Errorf("the parent's flat record opens to\n%+v, want\n%+v", got, opened)
	}
	o, err := cdc.Decode(got)
	if err != nil || o != parentTickValue {
		t.Errorf("its payload decodes to %+v, %v; want %+v", o, err, parentTickValue)
	}
	flat = withRetiredSeqZeroed(t, flat, want)
	if again, err := codec.Marshal(want); err != nil || !bytes.Equal(again, flat) {
		t.Errorf("this build writes the record as\n%x, %v; the parent wrote\n%x", again, err, flat)
	}
	if sealed, err := codec.Seal(want); err != nil || !bytes.Equal(sealed, flat) || &sealed[len(sealed)-1] != &want.Payload[len(want.Payload)-1] {
		t.Errorf("this build seals the record in place as\n%x, %v; the parent wrote\n%x", sealed, err, flat)
	}

	_, err = codec.Unmarshal(timely)
	if !errors.Is(err, codec.ErrPayloadEncoding) || !strings.Contains(err.Error(), "payload encoding 0") {
		t.Errorf("the parent's Timely record: %v, want ErrPayloadEncoding naming encoding 0", err)
	}
}

// poisonLog keeps the errors of the replay's "undecodable envelope"
// warnings.
type poisonLog struct {
	mu   sync.Mutex
	errs []string
}

func (h *poisonLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *poisonLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *poisonLog) WithGroup(string) slog.Handler            { return h }

func (h *poisonLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "govents: durable replay: undecodable envelope; dropping" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "err" {
			h.mu.Lock()
			h.errs = append(h.errs, a.Value.String())
			h.mu.Unlock()
		}
		return true
	})
	return nil
}

// TestParentGobRecordReplaysAsPoison: staged in a durable inbox by the
// parent, the Timely record is dropped on replay as a poison record,
// acknowledged and logged, and never reaches the handler, while the flat
// record replays to its handler.
func TestParentGobRecordReplaysAsPoison(t *testing.T) {
	dir := t.TempDir()
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for class, file := range map[string]string{
		iobvent.TypeName(iobvent.TypeOf[parentTick]()):    "flat.bin",
		iobvent.TypeName(iobvent.TypeOf[parentReading]()): "timely.bin",
	} {
		record, err := os.ReadFile("testdata/parent-pr25/" + file)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := m.InboxFor(class)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ib.EnsureCursor("sub-1"); err != nil {
			t.Fatal(err)
		}
		if _, err := ib.Stage("0123456789abcdef0123456789abcdef", "node-0", record); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ep, err := net.NewEndpoint("node-1")
	if err != nil {
		t.Fatal(err)
	}
	logs := &poisonLog{}
	d, err := govents.Open(ctx, "node-1", govents.WithTransport(ep), govents.WithPeers("node-1"),
		govents.WithDurability(dir), govents.WithLogger(slog.New(logs)),
		govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(ctx)

	var ticks []parentTick
	var readings int
	if _, err := govents.SubscribeDurable(d, "sub-1", func(p parentTick) { ticks = append(ticks, p) }); err != nil {
		t.Fatal(err)
	}
	if _, err := govents.SubscribeDurable(d, "sub-1", func(parentReading) { readings++ }); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 1 || ticks[0] != parentTickValue {
		t.Errorf("replayed ticks = %+v, want [%+v]", ticks, parentTickValue)
	}
	if readings != 0 {
		t.Errorf("%d readings of the gob record reached the handler", readings)
	}
	logs.mu.Lock()
	if len(logs.errs) != 1 || !strings.Contains(logs.errs[0], "payload encoding 0") {
		t.Errorf("replay warnings = %q, want one naming payload encoding 0", logs.errs)
	}
	logs.mu.Unlock()
	if st := d.DurableStats(); st.Replayed != 2 || st.Acked != 2 {
		t.Errorf("DurableStats Replayed = %d, Acked = %d; want 2 and 2 (the poison record acknowledged)", st.Replayed, st.Acked)
	}
}
