// core.go is an allowed state-machine file: every write below is legal.
package journalfirst

// JobSpec mirrors the scheduler's job specification: the tenant tag is
// journaled with the submit record, so it is guarded like Core/Job state.
type JobSpec struct {
	Name   string // not journaled state in the guarded sense: label only
	Tenant string
}

// Job mirrors the scheduler's job record (guarded fields by name).
type Job struct {
	ID          int
	Spec        JobSpec
	State       int
	Topo        int
	pendingFree int
	EndTime     float64
}

// Core mirrors the scheduler core's journaled state.
type Core struct {
	Policy       string // not journaled: configuration, not state
	free         int
	nextID       int
	jobs         map[int]*Job
	events       []int
	lastBusyTime float64
}

// Submit is a journaled entry point: writes here are the state machine.
func (c *Core) Submit(j *Job) {
	c.free -= j.Topo
	c.nextID++
	c.jobs[j.ID] = j
	c.events = append(c.events, j.ID)
	j.State = 1
	j.Spec.Tenant = "stamped-at-submit"
}
