package pmem

// SetEntries is how many times c has entered a cache set (test only).
func SetEntries(c *Ctx) uint64 { return c.setEntries }
