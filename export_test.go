package govents

// CertifiedOutboxLen shows this package's tests how many events of a
// certified class a distributed domain's outbox holds.
func CertifiedOutboxLen(d *Domain, class string) int {
	return d.node.CertifiedOutboxLen(class)
}
