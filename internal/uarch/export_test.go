package uarch

// DebugState exposes internal occupancy to the tests.
func (c *Core) DebugState() (fetchBlocked bool, robCount, iqCount, frontLen int) {
	return c.now < c.fetchGate, c.count, c.iqCount, c.fqLen
}
