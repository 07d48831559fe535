// Package rpc exposes the ReSHAPE scheduler over TCP so applications and
// command-line tools can talk to a reshaped daemon. Two wire protocols
// share one listening port, told apart by the first byte of each
// connection:
//
//   - v1 (the reference protocol): one gob-encoded Request and one
//     gob-encoded Response per connection — simple, stateless and pinned
//     by differential tests as the behavioural reference.
//   - v2 (see wire.go): a persistent, multiplexed connection carrying
//     length-prefixed frames with request IDs, concurrent server-side
//     dispatch, cancellation of blocking ops, and a streaming Watch
//     subscription. Frames are hand-encoded in package codec's varint
//     vocabulary, the one the WAL writes, and a unary round trip
//     allocates nothing in steady state. The typed client for v2 lives in
//     package reshape.
//
// The v1 Client in this package remains as the reference client; it too
// implements the full resize.Scheduler capability surface (Watch degrades
// to status polling, since v1 has no server push). Only v1 uses gob.
package rpc

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/scheduler"
)

// Op selects the remote operation.
type Op string

// Operations common to both protocol versions.
const (
	OpSubmit         Op = "submit"
	OpContact        Op = "contact"
	OpResizeComplete Op = "resize-complete"
	OpJobEnd         Op = "job-end"
	OpJobError       Op = "job-error"
	OpWait           Op = "wait"
	OpStatus         Op = "status"
)

// Request is the v1 wire request envelope.
type Request struct {
	Op Op
	// Tenant attributes the request for admission control (see
	// Frame.Tenant for the v2 counterpart and the stamping rule).
	Tenant     string
	JobID      int
	Topo       grid.Topology
	IterTime   float64
	RedistTime float64
	Spec       scheduler.JobSpec
}

// Response is the v1 wire response envelope. Errors carry a
// machine-readable Code alongside the human-readable Err.
type Response struct {
	Err      string
	Code     string
	JobID    int
	Decision scheduler.Decision
	Status   scheduler.ClusterStatus
}

// Stats counts server activity since start; all fields are cumulative.
type Stats struct {
	V1Conns      uint64 // v1 (one-shot) connections accepted
	V2Conns      uint64 // v2 (multiplexed) connections accepted
	Requests     uint64 // operations dispatched to the scheduler
	Malformed    uint64 // undecodable frames / unknown ops rejected
	Watches      uint64 // v2 watch subscriptions opened
	AcceptErrors uint64 // transient listener Accept failures
	Shed         uint64 // requests shed by admission control (never dispatched)
}

// Server serves scheduler requests over TCP, speaking both protocol
// versions on one port.
type Server struct {
	sched *scheduler.Server
	ln    net.Listener
	wg    sync.WaitGroup
	logf  func(format string, args ...any)

	// baseCtx is cancelled on Close; every blocking v1 dispatch and v2
	// request inherits from it.
	//lint:allow ctxfirst server-lifetime context (net/http BaseContext pattern): cancelled on Close, never a request context
	baseCtx context.Context
	cancel  context.CancelFunc

	mu    sync.Mutex
	done  bool
	conns map[net.Conn]struct{}

	v1Conns      atomic.Uint64
	v2Conns      atomic.Uint64
	requests     atomic.Uint64
	malformed    atomic.Uint64
	watches      atomic.Uint64
	acceptErrors atomic.Uint64
	shed         atomic.Uint64
	lastErr      atomic.Value // error

	// Admission control (see admission.go). limits is fixed at Serve time;
	// admTenants grows one entry per distinct tenant name.
	limits     Limits
	admMu      sync.Mutex
	admTenants map[string]*admEntry

	// work hands a decoded v2 request to a parked dispatch worker;
	// idleWorkers counts the parked ones (see dispatchWorker).
	work        chan v2req
	idleWorkers atomic.Int32
}

// ServerOption configures Serve.
type ServerOption func(*Server)

// WithLogf installs a log hook for server-side events (accept failures,
// protocol errors). The default discards them.
func WithLogf(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// Serve starts listening on addr (e.g. "127.0.0.1:7077"; port 0 picks a
// free port). The returned server is already accepting.
func Serve(addr string, sched *scheduler.Server, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		sched:   sched,
		ln:      ln,
		logf:    func(string, ...any) {},
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		work:    make(chan v2req),
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		V1Conns:      s.v1Conns.Load(),
		V2Conns:      s.v2Conns.Load(),
		Requests:     s.requests.Load(),
		Malformed:    s.malformed.Load(),
		Watches:      s.watches.Load(),
		AcceptErrors: s.acceptErrors.Load(),
		Shed:         s.shed.Load(),
	}
}

// Err returns the most recent transient accept error (nil if accepting has
// been healthy). It complements the WithLogf hook for callers that poll.
func (s *Server) Err() error {
	if e, ok := s.lastErr.Load().(error); ok {
		return e
	}
	return nil
}

// Close stops accepting, severs live connections (in-flight waits and
// watches end with a cancelled error) and waits for handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Accept backoff bounds: transient listener failures (fd exhaustion,
// ECONNABORTED) back off exponentially instead of hot-spinning.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed() {
				return
			}
			s.acceptErrors.Add(1)
			s.lastErr.Store(err)
			s.logf("rpc: accept: %v (retrying in %v)", err, backoff)
			select {
			case <-s.baseCtx.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		if !s.track(conn, true) {
			// Close() ran between Accept and tracking; it never saw this
			// connection, so sever it here or shutdown would hang waiting
			// on an idle client.
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// track registers or unregisters a live connection. Registering fails
// (returns false) once the server is closed.
func (s *Server) track(conn net.Conn, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.done {
			return false
		}
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	return true
}

// serveConn sniffs the protocol version from the connection's first byte:
// MagicV2 starts a multiplexed v2 session, anything else is the opening
// byte of a v1 gob request.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == MagicV2 {
		_, _ = br.Discard(1)
		s.v2Conns.Add(1)
		s.serveV2(conn, br)
		return
	}
	s.v1Conns.Add(1)
	s.handleV1(conn, br)
}

// handleV1 serves one one-shot v1 exchange. Malformed requests get a
// structured error response (Code CodeBadRequest) instead of a silent
// hangup, and are counted in Stats.Malformed.
func (s *Server) handleV1(conn net.Conn, br *bufio.Reader) {
	var req Request
	if err := gob.NewDecoder(br).Decode(&req); err != nil {
		s.malformed.Add(1)
		s.logf("rpc: malformed v1 request from %v: %v", conn.RemoteAddr(), err)
		_ = gob.NewEncoder(conn).Encode(Response{
			Err:  fmt.Sprintf("rpc: malformed request: %v", err),
			Code: CodeBadRequest,
		})
		return
	}
	release, ok := s.admit(requestTenant(req.Op, req.Tenant, &req.Spec), nil)
	if !ok {
		_ = gob.NewEncoder(conn).Encode(Response{Err: ErrOverload.Error(), Code: CodeOverload})
		return
	}
	defer release()
	resp := s.dispatch(req)
	_ = gob.NewEncoder(conn).Encode(resp)
}

func appErr(err error) Response {
	return Response{Err: err.Error(), Code: CodeApp}
}

func (s *Server) dispatch(req Request) Response {
	ctx := s.baseCtx
	switch req.Op {
	case OpSubmit:
		s.requests.Add(1)
		id, err := s.sched.Submit(ctx, req.Spec)
		if err != nil {
			return appErr(err)
		}
		return Response{JobID: id}
	case OpContact:
		s.requests.Add(1)
		d, err := s.sched.Contact(ctx, req.JobID, req.Topo, req.IterTime, req.RedistTime)
		if err != nil {
			return appErr(err)
		}
		return Response{Decision: d}
	case OpResizeComplete:
		s.requests.Add(1)
		if err := s.sched.ResizeComplete(ctx, req.JobID, req.RedistTime); err != nil {
			return appErr(err)
		}
		return Response{}
	case OpJobEnd:
		s.requests.Add(1)
		if err := s.sched.JobEnd(ctx, req.JobID); err != nil {
			return appErr(err)
		}
		return Response{}
	case OpJobError:
		s.requests.Add(1)
		if err := s.sched.JobError(ctx, req.JobID); err != nil {
			return appErr(err)
		}
		return Response{}
	case OpWait:
		s.requests.Add(1)
		// v1 parks the whole connection on the wait — the cost v2's
		// multiplexed Wait/Watch removes.
		if err := s.sched.Wait(ctx, req.JobID); err != nil {
			if ctx.Err() != nil {
				return Response{Err: "rpc: server shutting down", Code: CodeCancelled}
			}
			return appErr(err)
		}
		return Response{}
	case OpStatus:
		s.requests.Add(1)
		st, err := s.sched.Status(ctx)
		if err != nil {
			return appErr(err)
		}
		return Response{Status: st}
	default:
		s.malformed.Add(1)
		return Response{Err: fmt.Sprintf("rpc: unknown op %q", req.Op), Code: CodeUnknownOp}
	}
}

// Client is the v1 reference client: one TCP dial and one gob round trip
// per call. It implements the full resize.Scheduler surface so code
// written against the capability interface runs over v1 unchanged; prefer
// the reshape package (rpc/v2) for anything performance-sensitive.
type Client struct {
	Addr string
	// Tenant, when set, attributes every request to that tenant for
	// server-side admission control and tags submitted jobs whose spec
	// carries no tenant of its own.
	Tenant string
	// DialTimeout bounds connection establishment when the call context
	// carries no deadline (default 10s).
	DialTimeout time.Duration
	// PollInterval is the Status-polling cadence behind Watch — v1 has no
	// server push, so watches are synthesized from snapshots (default
	// 50ms).
	PollInterval time.Duration
}

var _ resize.Scheduler = (*Client)(nil)

// call performs one request/response round trip, honouring ctx for dial,
// send and receive.
func (c *Client) call(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if req.Tenant == "" {
		req.Tenant = c.Tenant
	}
	dialTimeout := c.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return Response{}, fmt.Errorf("rpc: dial %s: %w", c.Addr, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	// Unblock the in-flight read/write if ctx is cancelled mid-call.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Unix(1, 0))
		case <-watchDone:
		}
	}()
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return Response{}, fmt.Errorf("rpc: encode: %w", err)
	}
	var resp Response
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
		return Response{}, fmt.Errorf("rpc: decode: %w", err)
	}
	if resp.Code == CodeOverload {
		return resp, ErrOverload
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("rpc: server: %s", resp.Err)
	}
	return resp, nil
}

// Submit enqueues a job and returns its id.
func (c *Client) Submit(ctx context.Context, spec scheduler.JobSpec) (int, error) {
	resp, err := c.call(ctx, Request{Op: OpSubmit, Spec: spec})
	return resp.JobID, err
}

// Contact implements resize.Client.
func (c *Client) Contact(ctx context.Context, jobID int, topo grid.Topology, iterTime, redistTime float64) (scheduler.Decision, error) {
	resp, err := c.call(ctx, Request{
		Op: OpContact, JobID: jobID, Topo: topo, IterTime: iterTime, RedistTime: redistTime,
	})
	return resp.Decision, err
}

// ResizeComplete implements resize.Client.
func (c *Client) ResizeComplete(ctx context.Context, jobID int, redistTime float64) error {
	_, err := c.call(ctx, Request{Op: OpResizeComplete, JobID: jobID, RedistTime: redistTime})
	return err
}

// JobEnd implements resize.Client.
func (c *Client) JobEnd(ctx context.Context, jobID int) error {
	_, err := c.call(ctx, Request{Op: OpJobEnd, JobID: jobID})
	return err
}

// JobError reports an application failure (the application monitor's
// job-error signal): the job is deleted and its resources recovered.
func (c *Client) JobError(ctx context.Context, jobID int) error {
	_, err := c.call(ctx, Request{Op: OpJobError, JobID: jobID})
	return err
}

// Wait blocks until a job completes. Note the v1 cost: the wait parks a
// dedicated TCP connection on the server.
func (c *Client) Wait(ctx context.Context, jobID int) error {
	_, err := c.call(ctx, Request{Op: OpWait, JobID: jobID})
	return err
}

// Status fetches a typed scheduler snapshot.
func (c *Client) Status(ctx context.Context) (scheduler.ClusterStatus, error) {
	resp, err := c.call(ctx, Request{Op: OpStatus})
	return resp.Status, err
}

// Watch implements the capability interface over v1 by polling Status and
// synthesizing transition events from consecutive snapshots. Semantics are
// deliberately degraded relative to v2 server push: transitions that
// happen faster than PollInterval may be missed or coalesced, event Time
// is taken from the job's recorded timestamps (0 for resize transitions),
// and failures surface as "end". It exists so v1 remains a complete
// reference implementation of resize.Scheduler.
func (c *Client) Watch(ctx context.Context, jobID int) (*scheduler.Subscription, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	baseline, err := c.Status(ctx)
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	ch := make(chan scheduler.JobEvent, 256)
	sub := scheduler.NewSubscription(ch, cancel)
	go func() {
		defer close(ch)
		prev := snapshotByID(baseline)
		var seq uint64
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-wctx.Done():
				return
			case <-ticker.C:
			}
			st, err := c.Status(wctx)
			if err != nil {
				if wctx.Err() != nil {
					return
				}
				continue // transient; keep polling
			}
			for _, ev := range diffStatus(prev, st, jobID) {
				seq++
				ev.Seq = seq
				select {
				case ch <- ev:
				default:
					// Slow consumer: drop and count, like the
					// server-side broker.
					sub.NoteDrop()
				}
			}
			prev = snapshotByID(st)
		}
	}()
	return sub, nil
}

func snapshotByID(st scheduler.ClusterStatus) map[int]scheduler.JobInfo {
	m := make(map[int]scheduler.JobInfo, len(st.Jobs))
	for _, j := range st.Jobs {
		m[j.ID] = j
	}
	return m
}

// diffStatus converts the delta between two status snapshots into
// synthetic JobEvents (filtered to jobID unless it is scheduler.AllJobs).
func diffStatus(prev map[int]scheduler.JobInfo, st scheduler.ClusterStatus, jobID int) []scheduler.JobEvent {
	var out []scheduler.JobEvent
	emit := func(j scheduler.JobInfo, kind string, t float64) {
		if jobID != scheduler.AllJobs && jobID != j.ID {
			return
		}
		out = append(out, scheduler.JobEvent{
			Time: t, JobID: j.ID, Job: j.Name, Kind: kind, Topo: j.Topo,
			Busy: st.Busy, Free: st.Free,
		})
	}
	for _, j := range st.Jobs {
		old, seen := prev[j.ID]
		if !seen {
			emit(j, "submit", j.Submit)
			if j.State != "queued" {
				emit(j, "start", j.Start)
			}
			if j.State == "done" {
				emit(j, "end", j.End)
			}
			continue
		}
		if old.State == "queued" && j.State != "queued" {
			emit(j, "start", j.Start)
		}
		if j.State == "running" && old.State == "running" && j.Topo != old.Topo {
			kind := "expand"
			if j.Topo.Count() < old.Topo.Count() {
				kind = "shrink"
			}
			emit(j, kind, 0)
		}
		if old.State != "done" && j.State == "done" {
			emit(j, "end", j.End)
		}
	}
	return out
}
