// Package sdk stands in for an SDK under pkg/: options and a per-rank
// handle whose unused parts only tests reach.
package sdk

type config struct{ iters, timeout int }

// Option configures Run.
type Option func(*config)

// Context is a rank's handle on the running application.
type Context struct{ job, iter int }

// Run applies the defaults and hands the app its Context.
func Run(app func(*Context) error, opts ...Option) error {
	cfg := &config{}
	for _, o := range append(defaults, opts...) {
		o(cfg)
	}
	rc := &Context{}
	for rc.Iter() < cfg.iters {
		if err := app(rc); err != nil {
			return err
		}
		rc.iter++
	}
	return nil
}

var defaults = []Option{WithIterations(10)}

// entry is the package-level root that reaches Run.
var entry = Run

// WithIterations is reached through defaults.
func WithIterations(n int) Option { return func(c *config) { c.iters = n } }

// WithTimeout is an option no caller passes.
func WithTimeout(d int) Option { return func(c *config) { c.timeout = d } } // want "WithTimeout is reached only from tests"

// Iter is reached from Run.
func (rc *Context) Iter() int { return rc.iter }

// JobID is a getter nothing but a test reads.
func (rc *Context) JobID() int { return rc.job } // want "Context.JobID is reached only from tests"
