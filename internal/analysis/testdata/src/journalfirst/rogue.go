// rogue.go is NOT an allowed file: direct writes to journaled state here
// bypass the write-ahead journal.
package journalfirst

// Hijack mutates acknowledged state without a WAL record.
func Hijack(c *Core, j *Job) {
	c.free += 4                     // want "write to journaled state Core.free"
	c.nextID++                      // want "write to journaled state Core.nextID"
	c.jobs[j.ID] = j                // want "write to journaled state Core.jobs"
	c.events = append(c.events, 99) // want "write to journaled state Core.events"
	j.State = 2                     // want "write to journaled state Job.State"
	j.pendingFree += 4              // want "write to journaled state Job.pendingFree"
	j.EndTime = 1.5                 // want "write to journaled state Job.EndTime"
	j.Spec.Tenant = "stolen"        // want "write to journaled state JobSpec.Tenant"
	j.Spec.Name = "renamed"         // labels are not journaled state: legal
}

// Configure touches configuration, not journaled state: legal anywhere.
func Configure(c *Core) {
	c.Policy = "paper"
}

// Inspect only reads: reads are unrestricted.
func Inspect(c *Core) int {
	return c.nextID + len(c.jobs)
}

// Sanctioned shows the escape hatch on a genuinely non-replayed cache.
func Sanctioned(c *Core) {
	//lint:allow journalfirst rebuilding a derived index, not acknowledged state
	c.events = nil
}
