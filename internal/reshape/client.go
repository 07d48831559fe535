package reshape

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// Client talks rpc/v2 to a reshaped daemon over a small pool of
// multiplexed connections, plus one connection per open Watch. All methods
// are safe for concurrent use; one Client is meant to be shared
// process-wide.
type Client struct {
	addr        string
	poolSize    int
	dialTimeout time.Duration
	tenant      string

	mu      sync.Mutex
	conns   []*conn // fixed-size slot array; nil/dead slots redial lazily
	watches map[net.Conn]struct{}
	rr      int
	closed  bool

	// dials counts TCP connections established over the client's lifetime
	// (reconnects included) — the "conns/op" numerator in benchmarks.
	dials int
}

var _ resize.Scheduler = (*Client)(nil)

// Option configures Dial.
type Option func(*Client)

// WithPoolSize sets how many multiplexed connections the client spreads
// requests over (default 1; a single v2 connection already pipelines).
func WithPoolSize(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithDialTimeout bounds each connection attempt (default 10s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) { c.dialTimeout = d }
}

// WithTenant sets the tenant identity stamped on every request the client
// sends: the server's admission control attributes quota to it, and jobs
// submitted with no Spec.Tenant of their own are tagged with it.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// Dial creates a client for the daemon at addr and establishes the first
// connection eagerly so configuration errors surface immediately.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:        addr,
		poolSize:    1,
		dialTimeout: 10 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	c.conns = make([]*conn, c.poolSize)
	c.watches = make(map[net.Conn]struct{})
	if _, err := c.getConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// errClosed is the error of every call on a closed client.
var errClosed = errors.New("reshape: client closed")

// Close severs every connection; in-flight calls fail and watch streams
// close.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := append([]*conn(nil), c.conns...)
	for nc := range c.watches {
		nc.Close()
	}
	c.mu.Unlock()
	for _, cn := range conns {
		if cn != nil {
			cn.fail(errClosed)
		}
	}
	return nil
}

// Dials reports how many TCP connections the client has established since
// creation (1 per pool slot and 1 per Watch, plus reconnects).
func (c *Client) Dials() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dials
}

// getConn returns a live pooled connection (round-robin), redialing dead
// slots.
func (c *Client) getConn() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	slot := c.rr % len(c.conns)
	c.rr++
	if cn := c.conns[slot]; cn != nil && !cn.isDead() {
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()

	nc, err := c.dial()
	if err != nil {
		return nil, err
	}
	cn := &conn{
		client:  c,
		nc:      nc,
		fw:      rpc.NewFrameWriter(nc),
		deadCh:  make(chan struct{}),
		pending: make(map[uint64]chan rpc.Reply),
	}
	go cn.readLoop()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cn.failAsync(errClosed)
		return nil, errClosed
	}
	c.dials++
	if old := c.conns[slot]; old != nil && !old.isDead() {
		// A concurrent caller repaired the slot first; keep theirs.
		cn.failAsync(fmt.Errorf("reshape: duplicate connection"))
		return old, nil
	}
	c.conns[slot] = cn
	return cn, nil
}

// dial opens a v2 connection to the daemon: TCP, then the magic byte.
func (c *Client) dial() (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("reshape: dial %s: %w", c.addr, err)
	}
	if _, err := nc.Write([]byte{rpc.MagicV2}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("reshape: handshake %s: %w", c.addr, err)
	}
	return nc, nil
}

// replyPool recycles the 1-slot channels that carry each request's one
// reply from the read loop to its caller. The read loop unregisters a
// request as it delivers, so the send never blocks it; connection death is
// signalled out of band (conn.deadCh). A channel goes back only after its
// caller has consumed the reply, so nothing else can reach it. One
// abandoned on cancellation or connection death is left to the GC, since a
// late reply may still be on its way into it.
var replyPool = sync.Pool{New: func() any { return make(chan rpc.Reply, 1) }}

// conn is one multiplexed v2 connection.
type conn struct {
	client *Client
	nc     net.Conn
	fw     *rpc.FrameWriter
	// deadCh is closed when the connection dies; consumers select on it
	// alongside their reply channel.
	deadCh chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan rpc.Reply
	nextID  uint64
	dead    bool
	err     error
}

func (cn *conn) isDead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dead
}

// deadErr returns the error the connection died with.
func (cn *conn) deadErr() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return cn.err
	}
	return fmt.Errorf("reshape: connection closed")
}

// fail marks the connection dead (exactly once) and wakes every pending
// request via deadCh.
func (cn *conn) fail(err error) {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return
	}
	cn.dead = true
	cn.err = err
	cn.pending = make(map[uint64]chan rpc.Reply)
	cn.mu.Unlock()
	_ = cn.nc.Close()
	close(cn.deadCh)
}

// failAsync is fail for callers holding the client mutex.
func (cn *conn) failAsync(err error) { go cn.fail(err) }

func (cn *conn) readLoop() {
	fr := rpc.NewFrameReader(cn.nc)
	for {
		var r rpc.Reply
		if err := fr.Read(&r); err != nil {
			cn.fail(fmt.Errorf("reshape: connection lost: %w", err))
			return
		}
		cn.mu.Lock()
		ch := cn.pending[r.ID]
		delete(cn.pending, r.ID)
		cn.mu.Unlock()
		if ch != nil { // nil: a reply for a cancelled/abandoned request
			ch <- r
		}
	}
}

// register allocates a request ID and routes its reply to ch.
func (cn *conn) register(ch chan rpc.Reply) (uint64, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.dead {
		return 0, cn.err
	}
	cn.nextID++
	id := cn.nextID
	cn.pending[id] = ch
	return id, nil
}

func (cn *conn) unregister(id uint64) {
	cn.mu.Lock()
	delete(cn.pending, id)
	cn.mu.Unlock()
}

// send writes one frame through the connection's group writer, possibly
// in another caller's batch; it returns once the batch is written. A write
// failure kills the connection (the peer's view of the stream is
// unknowable), so callers may safely retry on a fresh one.
func (cn *conn) send(f *rpc.Frame) error {
	err := cn.fw.Write(f)
	if err != nil {
		cn.fail(fmt.Errorf("reshape: write: %w", err))
	}
	return err
}

// cancelRemote tells the server to abort request id (best effort).
func (cn *conn) cancelRemote(id uint64) {
	ack := make(chan rpc.Reply, 1)
	cancelID, err := cn.register(ack)
	if err != nil {
		return
	}
	if err := cn.send(&rpc.Frame{ID: cancelID, Op: rpc.OpCancel, CancelID: id}); err != nil {
		return
	}
	// Collect the ack asynchronously so cancellation never blocks the
	// caller.
	go func() {
		select {
		case <-ack:
		case <-cn.deadCh:
		case <-time.After(5 * time.Second):
			cn.unregister(cancelID)
		}
	}()
}

// ServerError is a scheduler-side failure relayed over the wire, carrying
// the protocol's machine-readable code (rpc.CodeApp, rpc.CodeCancelled…).
// Transport failures are ordinary errors; only ServerError means the
// server actually processed the request.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("reshape: server: %s", e.Msg) }

// Is makes errors.Is(err, rpc.ErrOverload) match admission-control sheds
// relayed over the wire (Code rpc.CodeOverload).
func (e *ServerError) Is(target error) bool {
	return target == rpc.ErrOverload && e.Code == rpc.CodeOverload
}

// errServerSide reports whether err came from the scheduler rather than
// the transport (server-side errors must not be retried — the op ran).
func errServerSide(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// call issues a unary request, transparently redialing once if the pooled
// connection was already dead before anything was sent. A failed write, or
// a connection that dies before the reply, is retried once on a fresh
// connection only for idempotent ops: the server may have run a frame the
// client never heard back about, so re-sending a mutating op (e.g. Submit)
// could execute it twice. A written frame is no more certain to have been
// served than one whose write failed, so the two failures are treated
// alike.
func (c *Client) call(ctx context.Context, f rpc.Frame, idempotent bool) (rpc.Reply, error) {
	if err := ctx.Err(); err != nil {
		return rpc.Reply{}, err
	}
	if f.Tenant == "" {
		f.Tenant = c.tenant
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cn, err := c.getConn()
		if err != nil {
			return rpc.Reply{}, err
		}
		ch := replyPool.Get().(chan rpc.Reply)
		id, err := cn.register(ch)
		if err != nil {
			replyPool.Put(ch)
			lastErr = err
			continue // conn was dead before the request existed; redial
		}
		f.ID = id
		if err := cn.send(&f); err != nil {
			lastErr = err
			if idempotent {
				continue
			}
			return rpc.Reply{}, err
		}
		finish := func(r rpc.Reply) (rpc.Reply, error) {
			if r.Err != "" {
				return r, &ServerError{Code: r.Code, Msg: r.Err}
			}
			return r, nil
		}
		select {
		case r := <-ch:
			replyPool.Put(ch)
			return finish(r)
		case <-cn.deadCh:
			// The reply may have been delivered just before death.
			select {
			case r := <-ch:
				return finish(r)
			default:
			}
			// The request may have executed before the transport died;
			// only an idempotent one is re-run.
			lastErr = cn.deadErr()
			if idempotent {
				continue
			}
			return rpc.Reply{}, lastErr
		case <-ctx.Done():
			cn.unregister(id)
			cn.cancelRemote(id)
			return rpc.Reply{}, ctx.Err()
		}
	}
	return rpc.Reply{}, lastErr
}

// Submit enqueues a job and returns its id.
func (c *Client) Submit(ctx context.Context, spec scheduler.JobSpec) (int, error) {
	r, err := c.call(ctx, rpc.Frame{Op: rpc.OpSubmit, Spec: spec}, false)
	return r.JobID, err
}

// Contact implements resize.Client over rpc/v2.
func (c *Client) Contact(ctx context.Context, jobID int, topo grid.Topology, iterTime, redistTime float64) (scheduler.Decision, error) {
	r, err := c.call(ctx, rpc.Frame{
		Op: rpc.OpContact, JobID: jobID, Topo: topo, IterTime: iterTime, RedistTime: redistTime,
	}, false)
	return r.Decision, err
}

// ResizeComplete implements resize.Client over rpc/v2.
func (c *Client) ResizeComplete(ctx context.Context, jobID int, redistTime float64) error {
	_, err := c.call(ctx, rpc.Frame{Op: rpc.OpResizeComplete, JobID: jobID, RedistTime: redistTime}, false)
	return err
}

// JobEnd implements resize.Client over rpc/v2.
func (c *Client) JobEnd(ctx context.Context, jobID int) error {
	_, err := c.call(ctx, rpc.Frame{Op: rpc.OpJobEnd, JobID: jobID}, false)
	return err
}

// JobError reports an application failure (the application monitor's
// job-error signal): the job is deleted and its resources recovered.
func (c *Client) JobError(ctx context.Context, jobID int) error {
	_, err := c.call(ctx, rpc.Frame{Op: rpc.OpJobError, JobID: jobID}, false)
	return err
}

// Status fetches a typed scheduler snapshot.
func (c *Client) Status(ctx context.Context) (scheduler.ClusterStatus, error) {
	r, err := c.call(ctx, rpc.Frame{Op: rpc.OpStatus}, true)
	if err != nil {
		return scheduler.ClusterStatus{}, err
	}
	if r.Status == nil {
		return scheduler.ClusterStatus{}, fmt.Errorf("reshape: status reply missing payload")
	}
	return *r.Status, nil
}

// Wait blocks until the job completes or ctx is done. The wait shares the
// multiplexed connection instead of pinning its own; transport failures
// are retried (waiting is idempotent) until ctx expires.
func (c *Client) Wait(ctx context.Context, jobID int) error {
	for {
		_, err := c.call(ctx, rpc.Frame{Op: rpc.OpWait, JobID: jobID}, true)
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case errServerSide(err):
			return err
		}
		// Transport hiccup: back off briefly and re-issue.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Watch subscribes to job-state transitions (scheduler.AllJobs for the
// whole cluster) as rpc/v2 server push on a connection of its own. The
// connection is read only as fast as C drains, so a consumer that lags
// loses nothing: TCP carries the backpressure back to the server, whose
// cursor into its event trace waits. If the connection drops, the client
// redials and resubscribes automatically, and Seq gaps reveal the events
// published in between. The stream ends when ctx is done, Cancel is
// called, or the client is closed.
func (c *Client) Watch(ctx context.Context, jobID int) (*scheduler.Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	out := make(chan scheduler.JobEvent)
	go c.watchLoop(wctx, jobID, out)
	return scheduler.NewSubscription(out, cancel), nil
}

// watchLoop owns one subscription across reconnects.
func (c *Client) watchLoop(ctx context.Context, jobID int, out chan<- scheduler.JobEvent) {
	defer close(out)
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for ctx.Err() == nil {
		nc, err := c.watchConn()
		if errors.Is(err, errClosed) {
			return
		}
		if err == nil {
			c.stream(ctx, nc, jobID, out)
			// The server ended the stream (e.g. shutdown) or the
			// connection was lost: resubscribe.
			backoff = 50 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, maxBackoff)
	}
}

// watchConn dials a connection for one Watch stream and adds it to the set
// Close severs.
func (c *Client) watchConn() (net.Conn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	nc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		nc.Close()
		return nil, errClosed
	}
	c.dials++
	c.watches[nc] = struct{}{}
	return nc, nil
}

// stream runs one physical Watch stream on nc until the server ends it,
// the connection fails or ctx is done, and then closes nc. It reads the
// next event only once out has taken the last.
func (c *Client) stream(ctx context.Context, nc net.Conn, jobID int, out chan<- scheduler.JobEvent) {
	defer func() {
		c.mu.Lock()
		delete(c.watches, nc)
		c.mu.Unlock()
		nc.Close()
	}()
	// Closing the connection is what cancels the stream on the server.
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()
	if err := rpc.NewFrameWriter(nc).Write(rpc.Frame{ID: 1, Op: rpc.OpWatch, JobID: jobID, Tenant: c.tenant}); err != nil {
		return
	}
	fr := rpc.NewFrameReader(nc)
	for {
		var r rpc.Reply
		if fr.Read(&r) != nil || r.Final {
			return
		}
		if r.Event == nil {
			continue
		}
		select {
		case out <- *r.Event:
		case <-ctx.Done():
			return
		}
	}
}
