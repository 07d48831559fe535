package rpc

import (
	"errors"
	"sync"
	"time"

	"repro/internal/scheduler"
)

// Admission control: the server protects itself from noisy tenants and
// runaway connections by shedding over-quota requests *before* they reach
// the scheduler lock, with a typed overload reply (CodeOverload) the
// client can distinguish from application errors. Shedding is accounted in
// Stats.Shed; shed requests are never counted in Stats.Requests because
// they were never dispatched.
//
// Two independent layers apply, both token buckets with inflight caps:
//
//   - per tenant: requests are attributed to the tenant named by the
//     request envelope (falling back to the job spec's Tenant on submits),
//     so one tenant exhausting its quota cannot consume another tenant's
//     scheduler throughput;
//   - per connection: a multiplexed connection that floods frames is
//     clipped regardless of which tenants it claims, bounding the damage
//     of a misattributing or malicious client.
//
// Blocking requests (Wait, Watch) hold an inflight slot for as long as
// they run: an inflight cap therefore bounds a tenant's parked waits and
// open subscriptions, not just its instantaneous burst. OpCancel is
// exempt from admission — shedding cancels would leak the very requests
// an overloaded client is trying to abandon.

// ErrOverload is the typed shed error. Server replies carry CodeOverload
// on the wire, and the reshape client's ServerError matches it via
// errors.Is.
var ErrOverload = errors.New("rpc: overloaded: request shed by admission control")

// Limits configures admission control for a Server. The zero value
// disables every check (the default: no behavioral change for existing
// deployments). Each knob is independent; zero disables just that check.
type Limits struct {
	// TenantRate is the sustained per-tenant request rate (requests per
	// second) enforced by a token bucket of capacity TenantBurst. A zero
	// TenantBurst defaults to max(1, TenantRate).
	TenantRate  float64
	TenantBurst int
	// ConnRate / ConnBurst shape each connection the same way.
	ConnRate  float64
	ConnBurst int
	// TenantInflight caps one tenant's concurrently executing requests
	// (including parked Waits and open Watch streams).
	TenantInflight int
	// ConnInflight caps one connection's concurrently executing requests.
	ConnInflight int
}

// enabled reports whether any check is configured.
func (l Limits) enabled() bool {
	return l.TenantRate > 0 || l.ConnRate > 0 || l.TenantInflight > 0 || l.ConnInflight > 0
}

// WithLimits installs admission control on a server.
func WithLimits(l Limits) ServerOption {
	return func(s *Server) { s.limits = l }
}

// bucket is a lazily refilled token bucket. Callers hold the owning
// admEntry's lock.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills at rate (tokens/second, capped at burst) and consumes one
// token. A zero rate admits everything.
func (b *bucket) take(rate float64, burst int, now time.Time) bool {
	if rate <= 0 {
		return true
	}
	limit := float64(burst)
	if limit <= 0 {
		limit = rate
		if limit < 1 {
			limit = 1
		}
	}
	if b.last.IsZero() {
		b.tokens = limit // a fresh bucket starts full
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rate
		if b.tokens > limit {
			b.tokens = limit
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admEntry is one admission scope — a tenant or a connection.
type admEntry struct {
	mu       sync.Mutex
	bkt      bucket
	inflight int
}

// admit checks the scope's inflight cap and rate, reserving one inflight
// slot on success. The inflight check runs first so a denied request
// consumes no token.
func (e *admEntry) admit(rate float64, burst, inflightCap int, now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if inflightCap > 0 && e.inflight >= inflightCap {
		return false
	}
	if !e.bkt.take(rate, burst, now) {
		return false
	}
	e.inflight++
	return true
}

// release returns the inflight slot admit reserved.
func (e *admEntry) release() {
	e.mu.Lock()
	e.inflight--
	e.mu.Unlock()
}

// tenantEntry returns (creating on first use) the admission scope for a
// tenant. Entries are never evicted: the map is bounded by the number of
// distinct tenant names the deployment actually serves.
func (s *Server) tenantEntry(tenant string) *admEntry {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	e := s.admTenants[tenant]
	if e == nil {
		if s.admTenants == nil {
			s.admTenants = make(map[string]*admEntry)
		}
		e = &admEntry{}
		s.admTenants[tenant] = e
	}
	return e
}

// admit runs both admission layers for one request attributed to tenant,
// arriving on the connection whose scope is connAdm. On success the
// request holds a slot in te (nil without limits) and connAdm until the
// caller passes both to release; on shed it returns ok=false with
// Stats.Shed already incremented.
func (s *Server) admit(tenant string, connAdm *admEntry) (te *admEntry, ok bool) {
	l := s.limits
	if !l.enabled() {
		return nil, true
	}
	now := time.Now()
	if !connAdm.admit(l.ConnRate, l.ConnBurst, l.ConnInflight, now) {
		s.shed.Add(1)
		return nil, false
	}
	te = s.tenantEntry(tenant)
	if !te.admit(l.TenantRate, l.TenantBurst, l.TenantInflight, now) {
		connAdm.release()
		s.shed.Add(1)
		return nil, false
	}
	return te, true
}

// release returns the slots admit reserved; te nil holds none.
func (s *Server) release(te, connAdm *admEntry) {
	if te != nil {
		te.release()
		connAdm.release()
	}
}

// requestTenant attributes a request to a tenant: the envelope's Tenant
// field, or — for submits with an unset envelope — the job spec's. On
// submits the spec is stamped with the envelope tenant when the spec's own
// is empty, so a client-level tenant identity tags every job it submits
// without every call site repeating it.
func requestTenant(op Op, envelope string, spec *scheduler.JobSpec) string {
	if op == OpSubmit {
		if spec.Tenant == "" {
			spec.Tenant = envelope
		}
		return spec.Tenant
	}
	return envelope
}
