// linear.go is NOT an allowed file: the scheduler once kept a second,
// linear-scan core here that shared the journaled state machine's choke
// points. With one core left, a file of that name starting jobs itself
// writes journaled state without a WAL record.
package journalfirst

// startHead starts a queued job in place of the journaled entry points.
func startHead(c *Core, j *Job) {
	j.State = 1      // want "write to journaled state Job.State"
	c.free -= j.Topo // want "write to journaled state Core.free"
}
