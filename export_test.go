package govents

import "govents/internal/clock"

// CertifiedOutboxLen shows this package's tests how many events of a
// certified class a distributed domain's outbox holds.
func CertifiedOutboxLen(d *Domain, class string) int {
	return d.node.CertifiedOutboxLen(class)
}

// WithClock runs a domain's timers on clk: its links', its heartbeat's
// and its retention's.
func WithClock(clk clock.Clock) Option {
	return func(c *config) { c.clock = clk }
}
