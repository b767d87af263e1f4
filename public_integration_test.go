// Public-API integration: publish → filtered subscribe across two
// Domains over the simulated network, with delivery-set equivalence
// against the internal oracle (per-subscription filter.Evaluate) —
// the transparency check of the whole public pipeline: facade →
// engine → DACE routing → multicast → netsim and back up.
package govents_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"govents"
	"govents/filter"
	"govents/netsim"
	"govents/obvent"
	"govents/workload"

	ifilter "govents/internal/filter"
)

// TestPublicAPIDeliverySetMatchesOracle runs the same filtered
// publication stream under both filter placements and requires the
// delivered set to equal the oracle set computed by evaluating the
// subscriber's filter directly — no event delivered that the filter
// rejects, none missing that it accepts.
func TestPublicAPIDeliverySetMatchesOracle(t *testing.T) {
	for _, placement := range []govents.Placement{govents.AtSubscriber, govents.AtPublisher} {
		placement := placement
		name := map[govents.Placement]string{
			govents.AtSubscriber: "AtSubscriber",
			govents.AtPublisher:  "AtPublisher",
		}[placement]
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			net := netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 7})
			defer net.Close()

			open := func(addr string) *govents.Domain {
				ep, err := net.NewEndpoint(addr)
				if err != nil {
					t.Fatal(err)
				}
				d, err := govents.Open(ctx, addr,
					govents.WithTransport(ep),
					govents.WithPlacement(placement),
					govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
				)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = d.Close(context.Background()) })
				workload.RegisterTypes(d.Registry())
				return d
			}
			pub, sub := open("pub"), open("sub")
			peers := []string{"pub", "sub"}
			if err := pub.SetPeers(peers...); err != nil {
				t.Fatal(err)
			}
			if err := sub.SetPeers(peers...); err != nil {
				t.Fatal(err)
			}

			// The subscriber's interest, via the public facade. The
			// subscription is active on return.
			gen := workload.NewQuoteGen(21, 8)
			spec := gen.Interests(1)[0]
			var mu sync.Mutex
			delivered := make(map[int]int)
			_, err := govents.Subscribe(sub, spec.Filter(), func(q workload.StockQuote) {
				mu.Lock()
				delivered[q.Amount]++
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && pub.RemoteSubscriptionCount() < 1 {
				time.Sleep(time.Millisecond)
			}
			net.Settle()

			// Publish a seeded stream, keying each quote by a unique
			// Amount; compute the oracle set with the internal
			// evaluator on the same values.
			const events = 200
			oracle := make(map[int]bool)
			f := spec.Filter()
			for i := 0; i < events; i++ {
				q := gen.Next()
				q.Amount = i // unique key
				ok, err := ifilter.Evaluate(f, q)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					oracle[i] = true
				}
				if err := pub.Publish(ctx, q); err != nil {
					t.Fatal(err)
				}
			}

			want := len(oracle)
			deadline = time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				mu.Lock()
				n := len(delivered)
				mu.Unlock()
				if n >= want {
					break
				}
				time.Sleep(time.Millisecond)
			}
			net.Settle()

			mu.Lock()
			defer mu.Unlock()
			for key, n := range delivered {
				if !oracle[key] {
					t.Errorf("delivered event %d that the filter rejects", key)
				}
				if n != 1 {
					t.Errorf("event %d delivered %d times", key, n)
				}
			}
			for key := range oracle {
				if delivered[key] == 0 {
					t.Errorf("event %d accepted by the filter but never delivered", key)
				}
			}
			if t.Failed() {
				t.Logf("placement=%v delivered=%d oracle=%d (of %d published, selectivity %s)",
					placement, len(delivered), want, events, fmt.Sprintf("%.2f", float64(want)/events))
			}
		})
	}
}

// keyBody holds a key and its accessor, and is embedded unexported in
// hiddenKeyed: Go promotes both, so the class reads as if it had a Key.
type keyBody struct{ Key int }

func (b keyBody) GetKey() int { return b.Key }

type hiddenKeyed struct {
	obvent.Base
	obvent.FIFOOrderBase
	keyBody
}

// TestUnexportedEmbeddedFieldIsRefused: a class whose exported fields sit
// in an unexported embedded struct cannot travel (gob's rule leaves the
// embedded field off the wire), yet the field and its accessor read as
// the class's own. The build before delivered every such event with Key
// 0: under a filter GetKey < 50 it delivered the event keyed 70 too, and
// under GetKey < 0 it delivered the one keyed -5 not at all. Publish
// refuses the class instead, naming the field, and nothing reaches a
// subscriber that the filter would not pass with the value published.
// Register refuses the class too.
func TestUnexportedEmbeddedFieldIsRefused(t *testing.T) {
	d, err := govents.Open(context.Background(), "local")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	if err := d.Register(hiddenKeyed{}); err == nil || !strings.Contains(err.Error(), "keyBody.Key") {
		t.Errorf("Register: %v, want an error naming keyBody.Key", err)
	}
	for _, placement := range []govents.Placement{govents.AtSubscriber, govents.AtPublisher} {
		for _, tc := range []struct {
			bound int64
			keys  []int
		}{{50, []int{10, 70}}, {0, []int{-5, 30}}} {
			t.Run(fmt.Sprintf("placement=%d/GetKey<%d", placement, tc.bound), func(t *testing.T) {
				ctx := context.Background()
				net := netsim.New(netsim.Config{})
				defer net.Close()
				domains := make([]*govents.Domain, 2)
				addrs := []string{"pub", "sub"}
				for i, addr := range addrs {
					ep, err := net.NewEndpoint(addr)
					if err != nil {
						t.Fatal(err)
					}
					d, err := govents.Open(ctx, addr, govents.WithTransport(ep), govents.WithPeers(addrs...),
						govents.WithPlacement(placement))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = d.Close(context.Background()) })
					domains[i] = d
				}
				var mu sync.Mutex
				var got []int
				_, err := govents.Subscribe(domains[1], filter.Path("GetKey").Lt(filter.Int(tc.bound)), func(e hiddenKeyed) {
					mu.Lock()
					got = append(got, e.Key)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the subscription ad", func() bool { return domains[0].RemoteSubscriptionCount() >= 1 })
				want := map[int]bool{}
				for _, k := range tc.keys {
					err := domains[0].Publish(ctx, hiddenKeyed{keyBody: keyBody{Key: k}})
					switch {
					case err == nil:
						if int64(k) < tc.bound {
							want[k] = true
						}
					case !errors.Is(err, govents.ErrCannotPublish) || !strings.Contains(err.Error(), "keyBody.Key"):
						t.Errorf("Publish of key %d: %v, want %v naming keyBody.Key", k, err, govents.ErrCannotPublish)
					}
				}
				waitFor(t, "the deliveries", func() bool {
					mu.Lock()
					defer mu.Unlock()
					return len(got) >= len(want)
				})
				net.Settle()
				mu.Lock()
				defer mu.Unlock()
				delivered := map[int]bool{}
				for _, k := range got {
					if !want[k] {
						t.Errorf("delivered an event with Key %d; published %v under GetKey < %d", k, tc.keys, tc.bound)
					}
					delivered[k] = true
				}
				for k := range want {
					if !delivered[k] {
						t.Errorf("the event keyed %d passes GetKey < %d and was not delivered", k, tc.bound)
					}
				}
			})
		}
	}
}
