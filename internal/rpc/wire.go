package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/scheduler"
)

// Wire protocol v2.
//
// A connection opens with the single magic byte MagicV2; the server
// refuses any other first byte. After the magic byte each direction is one
// persistent stream of frames, [uvarint payload length][payload], with the
// payload written in package codec's vocabulary (the WAL's):
//
//	Frame:  ID uvarint | Op string | Tenant string | fields of Op
//	        submit           job spec (codec.AppendSpecExact)
//	        contact          JobID | Topo | IterTime | RedistTime
//	        resize-complete  JobID | RedistTime
//	        job-end, job-error, wait, watch   JobID
//	        cancel           CancelID uvarint
//	        status, unknown  nothing (an unknown op's further bytes are skipped)
//	Reply:  ID uvarint | byte Final + 2*payload kind | Err | Code | payload
//	        kind 0 none, 1 JobID, 2 Decision, 3 Status, 4 Event
//
// Every frame carries a client-chosen nonzero request ID; the client may
// have any number of requests in flight and the server dispatches them
// concurrently, so replies arrive in completion order, matched by ID. A
// request normally produces exactly one reply with Final set; OpWatch
// produces a stream of event replies (Final false) terminated by a Final
// reply when the subscription ends.
//
// MagicV2 was 0xB2 while the frames were gob; a peer still speaking that
// dialect is refused like any other non-v2 opener.
const MagicV2 = 0xB3

// Additional v2 operations.
const (
	// OpWatch subscribes to job-state transitions (JobID, or
	// scheduler.AllJobs) and streams them until cancelled.
	OpWatch Op = "watch"
	// OpCancel cancels the in-flight request identified by CancelID
	// (a pending Wait or a Watch subscription; other ops are unaffected).
	OpCancel Op = "cancel"
)

// Reply error codes (Reply.Code).
const (
	// CodeBadRequest marks malformed or unparseable requests.
	CodeBadRequest = "bad-request"
	// CodeUnknownOp marks structurally valid requests naming no operation.
	CodeUnknownOp = "unknown-op"
	// CodeApp marks scheduler-level failures (unknown job, invalid spec…).
	CodeApp = "app"
	// CodeCancelled marks requests terminated by OpCancel or shutdown.
	CodeCancelled = "cancelled"
	// CodeOverload marks requests shed by admission control (see
	// ErrOverload); the request never reached the scheduler and may be
	// retried after backing off.
	CodeOverload = "overload"
)

// Frame is the v2 client→server request envelope.
type Frame struct {
	// ID matches replies to requests; it must be nonzero and unique among
	// the connection's in-flight requests.
	ID uint64
	Op Op
	// Tenant attributes the request for admission control and, on submits
	// with an unset Spec.Tenant, tags the submitted job. Typed clients
	// stamp it from their configured identity (reshape.WithTenant).
	Tenant     string
	JobID      int
	Topo       grid.Topology
	IterTime   float64
	RedistTime float64
	Spec       scheduler.JobSpec
	// CancelID names the request an OpCancel frame targets.
	CancelID uint64
}

// Reply is the v2 server→client envelope. Exactly one of the payload
// fields is meaningful, selected by the originating op; the encoder sends
// the first set one of Event, Status, Decision, JobID.
type Reply struct {
	ID    uint64
	Final bool
	Err   string
	Code  string

	JobID    int
	Decision scheduler.Decision
	Status   *scheduler.ClusterStatus
	Event    *scheduler.JobEvent
}

// Reply payload kinds.
const (
	payloadNone byte = iota
	payloadJobID
	payloadDecision
	payloadStatus
	payloadEvent
)

// ErrMalformed marks bytes that do not decode as a v2 frame: a bad length
// prefix or a payload that is not a Frame or Reply. A stream that merely
// ends reports io.EOF (between frames) or io.ErrUnexpectedEOF (inside one).
var ErrMalformed = errors.New("rpc: malformed v2 frame")

var errTarget = errors.New("rpc: v2 frames are Frame or Reply values")

// maxFrameSize bounds one payload. A reader grows its buffer only as bytes
// arrive, so a corrupt length costs what the peer actually sent.
const maxFrameSize = 1 << 30

// keepBuf is the largest buffer a reader or writer keeps between frames;
// one huge status reply does not pin its memory for the connection's life.
const keepBuf = 64 << 10

// FrameWriter emits one direction of a v2 stream and is the connection's
// group writer: any number of goroutines may write through it at once.
// Each frame is encoded, under the writer's mutex, onto the end of a
// pending buffer. The writer that finds no flush in flight becomes the
// leader: it yields once, so goroutines that are already runnable can
// queue behind it, then hands everything pending to w in one w.Write, and
// repeats until nothing is pending. Everyone else is a follower and waits
// until the batch carrying its frame has been written. So a nil return
// means w accepted the frame, and a peer that stops reading blocks every
// writer, not only the leader. Frames from one goroutine reach w in the
// order it wrote them. The first failed w.Write is latched: it is returned
// by every later call, and nothing more is written.
type FrameWriter struct {
	w io.Writer

	mu       sync.Mutex
	wrote    sync.Cond // broadcast after each batch is written or fails
	pending  []byte    // frames queued since the leader last took a batch
	spare    []byte    // the last batch written, reused as the next pending
	flushing bool      // a leader is writing
	taken    uint64    // batches the leader has taken off pending
	written  uint64    // batches w.Write has returned for
	err      error
}

// NewFrameWriter starts a frame stream on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{w: w, pending: make([]byte, 0, 512)}
	fw.wrote.L = &fw.mu
	return fw
}

// Write sends one frame — a Frame or Reply, by value or pointer: Queue,
// then Flush.
func (fw *FrameWriter) Write(v any) error {
	if err := fw.Queue(v); err != nil {
		return err
	}
	return fw.Flush()
}

// Queue encodes one frame onto the pending batch without writing it; the
// next Flush on this writer, by any goroutine, sends it.
func (fw *FrameWriter) Queue(v any) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return fw.err
	}
	b, err := appendFramed(fw.pending, v)
	fw.pending = b
	return err
}

// Flush returns once everything queued before it has been written, or
// with the first write error. With no flush in flight the caller leads;
// otherwise it waits for the leader to write the batch in flight and, if
// more is pending, the next one.
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if !fw.flushing && fw.err == nil && len(fw.pending) > 0 {
		fw.lead()
	}
	last := fw.taken
	if len(fw.pending) > 0 {
		last++ // the leader takes it before it stops
	}
	for fw.written < last && fw.err == nil {
		fw.wrote.Wait()
	}
	return fw.err
}

// lead writes batches until nothing is pending. fw.mu is held on entry and
// on return, and released around the yield and each w.Write.
func (fw *FrameWriter) lead() {
	fw.flushing = true
	fw.mu.Unlock()
	// Without this yield a leader on a machine with few processors almost
	// always writes a batch of one frame: the goroutines that would have
	// joined it are runnable but not yet running.
	runtime.Gosched()
	fw.mu.Lock()
	for len(fw.pending) > 0 && fw.err == nil {
		batch := fw.pending
		fw.pending = fw.spare[:0]
		fw.taken++
		fw.mu.Unlock()
		_, err := fw.w.Write(batch)
		fw.mu.Lock()
		fw.err = err
		fw.written++
		fw.spare = nil
		if cap(batch) <= keepBuf {
			fw.spare = batch
		}
		fw.wrote.Broadcast()
	}
	fw.flushing = false
}

// appendFramed appends v as one frame, [uvarint payload length][payload],
// to b. On errTarget b is returned unchanged.
func appendFramed(b []byte, v any) ([]byte, error) {
	// One byte of prefix fits a payload under 128 bytes, most of them; a
	// longer one moves its payload along to make room.
	start := len(b)
	b = append(b, 0)
	switch v := v.(type) {
	case *Frame:
		b = appendFrame(b, v)
	case Frame:
		b = appendFrame(b, &v)
	case *Reply:
		b = appendReply(b, v)
	case Reply:
		b = appendReply(b, &v)
	default:
		return b[:start], errTarget
	}
	n := len(b) - start - 1
	if k := uvarintLen(uint64(n)); k > 1 {
		b = append(b, make([]byte, k-1)...)
		copy(b[start+k:], b[start+1:start+1+n])
	}
	binary.PutUvarint(b[start:], uint64(n))
	return b, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func appendFrame(b []byte, f *Frame) []byte {
	b = codec.AppendUint(b, f.ID)
	b = codec.AppendString(b, string(f.Op))
	b = codec.AppendString(b, f.Tenant)
	switch f.Op {
	case OpSubmit:
		b = codec.AppendSpecExact(b, &f.Spec)
	case OpContact:
		b = codec.AppendInt(b, f.JobID)
		b = codec.AppendTopo(b, f.Topo)
		b = codec.AppendFloat(b, f.IterTime)
		b = codec.AppendFloat(b, f.RedistTime)
	case OpResizeComplete:
		b = codec.AppendInt(b, f.JobID)
		b = codec.AppendFloat(b, f.RedistTime)
	case OpJobEnd, OpJobError, OpWait, OpWatch:
		b = codec.AppendInt(b, f.JobID)
	case OpCancel:
		b = codec.AppendUint(b, f.CancelID)
	}
	return b
}

func appendReply(b []byte, r *Reply) []byte {
	kind := payloadNone
	switch {
	case r.Event != nil:
		kind = payloadEvent
	case r.Status != nil:
		kind = payloadStatus
	case r.Decision != (scheduler.Decision{}):
		kind = payloadDecision
	case r.JobID != 0:
		kind = payloadJobID
	}
	head := kind << 1
	if r.Final {
		head |= 1
	}
	b = codec.AppendUint(b, r.ID)
	b = append(b, head)
	b = codec.AppendString(b, r.Err)
	b = codec.AppendString(b, r.Code)
	switch kind {
	case payloadJobID:
		b = codec.AppendInt(b, r.JobID)
	case payloadDecision:
		b = codec.AppendInt(b, int(r.Decision.Action))
		b = codec.AppendTopo(b, r.Decision.Target)
		var buf [128]byte
		text := r.Decision.AppendText(buf[:0]) // the reason's text, rendered on the stack
		b = append(codec.AppendUint(b, uint64(len(text))), text...)
	case payloadStatus:
		b = appendStatus(b, r.Status)
	case payloadEvent:
		ev := r.Event
		b = codec.AppendUint(b, ev.Seq)
		b = codec.AppendFloat(b, ev.Time)
		b = codec.AppendInt(b, ev.JobID)
		b = codec.AppendString(b, ev.Job)
		b = codec.AppendString(b, ev.Kind)
		b = codec.AppendTopo(b, ev.Topo)
		b = codec.AppendInt(b, ev.Busy)
		b = codec.AppendInt(b, ev.Free)
	}
	return b
}

func appendStatus(b []byte, st *scheduler.ClusterStatus) []byte {
	b = codec.AppendInt(b, st.Total)
	b = codec.AppendInt(b, st.Free)
	b = codec.AppendInt(b, st.Busy)
	b = codec.AppendInt(b, st.QueueLen)
	b = codec.AppendLen(b, len(st.Jobs), st.Jobs == nil)
	for i := range st.Jobs {
		j := &st.Jobs[i]
		b = codec.AppendInt(b, j.ID)
		b = codec.AppendString(b, j.Name)
		b = codec.AppendString(b, j.App)
		b = codec.AppendString(b, j.Tenant)
		b = codec.AppendString(b, j.State)
		b = codec.AppendInt(b, j.Priority)
		b = codec.AppendTopo(b, j.Topo)
		b = codec.AppendInt(b, j.Procs)
		b = codec.AppendFloat(b, j.Submit)
		b = codec.AppendFloat(b, j.Start)
		b = codec.AppendFloat(b, j.End)
	}
	b = codec.AppendLen(b, len(st.Tenants), st.Tenants == nil)
	for _, t := range st.Tenants {
		b = codec.AppendString(b, t.Tenant)
		b = codec.AppendInt(b, t.Running)
		b = codec.AppendInt(b, t.Queued)
		b = codec.AppendInt(b, t.Procs)
	}
	return b
}

// FrameReader consumes one direction of a v2 stream. A frame that fits the
// bufio buffer decodes in place; strings from small vocabularies are
// interned per reader, so a steady stream of unary frames decodes without
// allocating.
type FrameReader struct {
	br   *bufio.Reader
	buf  []byte // assembles a frame larger than br's buffer
	syms codec.Symbols
}

// NewFrameReader starts reading a frame stream from r (used directly when
// it is already a *bufio.Reader).
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameReader{br: br}
}

// Read decodes the next frame into v, a *Frame or *Reply, overwriting it.
// Failures are io.EOF at a frame boundary, io.ErrUnexpectedEOF inside a
// frame, ErrMalformed for bytes that are not a frame, or the underlying
// reader's error.
func (fr *FrameReader) Read(v any) error {
	payload, err := fr.next()
	if err != nil {
		return err
	}
	d := codec.NewDecoder(payload, ErrMalformed, &fr.syms)
	switch v := v.(type) {
	case *Frame:
		decodeFrame(&d, v)
	case *Reply:
		decodeReply(&d, v)
	default:
		err = errTarget
	}
	if len(payload) <= fr.br.Size() {
		_, _ = fr.br.Discard(len(payload)) // decoded in place
	}
	if err != nil {
		return err
	}
	return d.Finish()
}

// next returns the next frame's payload: a view into br when it fits,
// otherwise assembled in fr.buf as the bytes arrive.
func (fr *FrameReader) next() ([]byte, error) {
	n, err := fr.readLen()
	if err != nil {
		return nil, err
	}
	if n > maxFrameSize {
		return nil, ErrMalformed
	}
	size := int(n)
	if size <= fr.br.Size() {
		p, err := fr.br.Peek(size)
		if err != nil {
			return nil, unexpected(err)
		}
		return p, nil
	}
	fr.buf = fr.buf[:0]
	for len(fr.buf) < size {
		p, err := fr.br.Peek(min(size-len(fr.buf), fr.br.Size()))
		fr.buf = append(fr.buf, p...)
		_, _ = fr.br.Discard(len(p))
		if err != nil {
			return nil, unexpected(err)
		}
	}
	p := fr.buf
	if cap(fr.buf) > keepBuf {
		fr.buf = nil
	}
	return p, nil
}

// readLen reads a frame's uvarint length prefix byte by byte, so a stream
// that pauses between frames never blocks on bytes the peer has not sent.
func (fr *FrameReader) readLen() (uint64, error) {
	var x uint64
	for i, shift := 0, uint(0); i < binary.MaxVarintLen64; i, shift = i+1, shift+7 {
		c, err := fr.br.ReadByte()
		if err != nil {
			if i > 0 {
				return 0, unexpected(err)
			}
			return 0, err
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			return x | uint64(c)<<shift, nil
		}
		x |= uint64(c&0x7f) << shift
	}
	return 0, ErrMalformed
}

// unexpected turns an end of stream inside a frame into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func decodeFrame(d *codec.Decoder, f *Frame) {
	*f = Frame{ID: d.Uint(), Op: Op(d.Sym()), Tenant: d.Sym()}
	switch f.Op {
	case OpSubmit:
		d.SpecExact(&f.Spec)
	case OpContact:
		f.JobID = d.Int()
		f.Topo = d.Topo()
		f.IterTime = d.Float()
		f.RedistTime = d.Float()
	case OpResizeComplete:
		f.JobID = d.Int()
		f.RedistTime = d.Float()
	case OpJobEnd, OpJobError, OpWait, OpWatch:
		f.JobID = d.Int()
	case OpCancel:
		f.CancelID = d.Uint()
	case OpStatus:
	default:
		// An op this build does not know: whatever it carries is skipped,
		// and the server answers CodeUnknownOp.
		d.Skip()
	}
}

func decodeReply(d *codec.Decoder, r *Reply) {
	*r = Reply{ID: d.Uint()}
	head := d.Byte()
	r.Final = head&1 != 0
	r.Err = d.Str()
	r.Code = d.Sym()
	switch head >> 1 {
	case payloadNone:
	case payloadJobID:
		r.JobID = d.Int()
	case payloadDecision:
		act := d.Int() // outside none..shrink is malformed, not truncated to a byte
		if act < int(scheduler.ActionNone) || act > int(scheduler.ActionShrink) {
			d.Fail("unknown decision action")
		}
		r.Decision.Action = scheduler.Action(act)
		r.Decision.Target = d.Topo()
		r.Decision.Reason = d.Sym()
	case payloadStatus:
		r.Status = decodeStatus(d)
	case payloadEvent:
		r.Event = &scheduler.JobEvent{
			Seq:   d.Uint(),
			Time:  d.Float(),
			JobID: d.Int(),
			Job:   d.Str(),
			Kind:  d.Sym(),
			Topo:  d.Topo(),
			Busy:  d.Int(),
			Free:  d.Int(),
		}
	default:
		d.Fail("unknown reply payload")
	}
}

// Smallest encodings of a status row, which bound a row count by the bytes
// left: a job is nine one-byte fields plus three floats, a tenant four
// one-byte fields.
const (
	minJobInfoBytes = 9 + 3*8
	minTenantBytes  = 4
)

func decodeStatus(d *codec.Decoder) *scheduler.ClusterStatus {
	st := &scheduler.ClusterStatus{Total: d.Int(), Free: d.Int(), Busy: d.Int(), QueueLen: d.Int()}
	if n, isNil := d.Len(maxFrameSize, minJobInfoBytes); !isNil {
		st.Jobs = make([]scheduler.JobInfo, n)
		for i := range st.Jobs {
			st.Jobs[i] = scheduler.JobInfo{
				ID:       d.Int(),
				Name:     d.Str(),
				App:      d.Sym(),
				Tenant:   d.Sym(),
				State:    d.Sym(),
				Priority: d.Int(),
				Topo:     d.Topo(),
				Procs:    d.Int(),
				Submit:   d.Float(),
				Start:    d.Float(),
				End:      d.Float(),
			}
		}
	}
	if n, isNil := d.Len(maxFrameSize, minTenantBytes); !isNil {
		st.Tenants = make([]scheduler.TenantUsage, n)
		for i := range st.Tenants {
			st.Tenants[i] = scheduler.TenantUsage{Tenant: d.Sym(), Running: d.Int(), Queued: d.Int(), Procs: d.Int()}
		}
	}
	return st
}
