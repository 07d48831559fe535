package rpc

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/scheduler"
)

var update = flag.Bool("update", false, "rewrite testdata/v2-frames.golden from the current encoder")

// goldenFrames and goldenReplies are one frame per op and one reply per
// payload kind, with values that need multi-byte and negative varints.
func goldenFrames() []Frame {
	chain := []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}}
	return []Frame{
		{ID: 1, Op: OpSubmit, Tenant: "physics", Spec: scheduler.JobSpec{
			Name: "lu-12k", App: "lu", ProblemSize: 12000, BlockSize: 64, Iterations: 10,
			Priority: -2, InitialTopo: chain[0], Chain: chain}},
		{ID: 300, Op: OpContact, JobID: 17, Topo: grid.Topology{Rows: 2, Cols: 2}, IterTime: 129.63, RedistTime: 8},
		{ID: 301, Op: OpResizeComplete, JobID: 17, RedistTime: 5.5},
		{ID: 302, Op: OpJobEnd, JobID: 17},
		{ID: 303, Op: OpJobError, JobID: 200},
		{ID: 304, Op: OpWait, JobID: 17},
		{ID: 305, Op: OpStatus, Tenant: "chem"},
		{ID: 306, Op: OpWatch, JobID: scheduler.AllJobs},
		{ID: 307, Op: OpCancel, CancelID: 304},
	}
}

func goldenReplies() []Reply {
	return []Reply{
		{ID: 302, Final: true},
		{ID: 1, Final: true, JobID: 17},
		{ID: 300, Final: true, Decision: scheduler.Decision{
			Action: scheduler.ActionExpand, Target: grid.Topology{Rows: 2, Cols: 4}, Reason: "expand into idle processors"}},
		{ID: 305, Final: true, Status: &scheduler.ClusterStatus{
			Total: 16, Free: 8, Busy: 8, QueueLen: 1,
			Jobs: []scheduler.JobInfo{{ID: 17, Name: "lu-12k", App: "lu", Tenant: "physics", State: "running",
				Priority: -2, Topo: grid.Topology{Rows: 2, Cols: 4}, Procs: 8, Submit: 1.5, Start: 2}},
			Tenants: []scheduler.TenantUsage{{Tenant: "physics", Running: 1, Procs: 8}},
		}},
		{ID: 306, Event: &scheduler.JobEvent{Seq: 130, Time: 2, JobID: 17, Job: "lu-12k", Kind: "expand",
			Topo: grid.Topology{Rows: 2, Cols: 4}, Busy: 8, Free: 8}},
		{ID: 303, Final: true, Err: "scheduler: unknown job 200", Code: CodeApp},
	}
}

func goldenName(v any) string {
	switch v := v.(type) {
	case Frame:
		return "frame/" + string(v.Op)
	case Reply:
		switch {
		case v.Event != nil:
			return "reply/event"
		case v.Status != nil:
			return "reply/status"
		case v.Decision != (scheduler.Decision{}):
			return "reply/decision"
		case v.JobID != 0:
			return "reply/job-id"
		case v.Err != "":
			return "reply/error"
		}
		return "reply/none"
	}
	panic("unreachable")
}

// TestV2FramesGolden pins the v2 byte layout both ways: the encoder must
// write exactly the recorded bytes, and the recorded bytes must decode to
// the values they were made from. The file changes only under -update,
// and a change to it is a wire-format change (bump MagicV2).
func TestV2FramesGolden(t *testing.T) {
	var samples []any
	for _, f := range goldenFrames() {
		samples = append(samples, f)
	}
	for _, r := range goldenReplies() {
		samples = append(samples, r)
	}
	var text bytes.Buffer
	text.WriteString("# rpc/v2 frames (MagicV2 0xB3): name, then hex of [uvarint length][payload].\n")
	encoded := make([][]byte, len(samples))
	for i, v := range samples {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).Write(v); err != nil {
			t.Fatal(err)
		}
		encoded[i] = buf.Bytes()
		fmt.Fprintf(&text, "%s %x\n", goldenName(v), encoded[i])
	}
	const path = "testdata/v2-frames.golden"
	if *update {
		if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(text.Bytes(), want) {
		t.Fatalf("v2 encoding differs from %s:\n got:\n%s\nwant:\n%s", path, text.Bytes(), want)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")[1:]
	for i, line := range lines {
		_, hx, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(samples[i]))
		if err := NewFrameReader(bytes.NewReader(b)).Read(got.Interface()); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !wireEqual(got.Elem().Interface(), samples[i]) {
			t.Errorf("%s decodes to %+v, want %+v", goldenName(samples[i]), got.Elem().Interface(), samples[i])
		}
	}
}

// wireEqual is reflect.DeepEqual with floats compared by their bits, so
// NaN payloads and signed zeros count.
func wireEqual(a, b any) bool {
	return bitsEqual(reflect.ValueOf(a), reflect.ValueOf(b))
}

func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// gen draws wire values that stress the encoding: varints of every width
// and sign, non-finite floats, empty and multi-byte-length strings, nil
// and empty collections.
type gen struct{ *rand.Rand }

func (g gen) int() int {
	switch g.Intn(6) {
	case 0:
		return 0
	case 1:
		return g.Intn(64) - 32
	case 2:
		return g.Intn(1<<20) - 1<<19
	case 3:
		return math.MaxInt64 - g.Intn(3)
	case 4:
		return math.MinInt64 + g.Intn(3)
	}
	return int(g.Int63()) - 1<<62
}

func (g gen) uint() uint64 {
	if g.Intn(3) == 0 {
		return uint64(g.Intn(200))
	}
	return g.Uint64()
}

func (g gen) float() float64 {
	switch g.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(0x7ff8_0000_0000_0000 | g.Uint64()&0xffff) // NaN with a payload
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.SmallestNonzeroFloat64
	}
	return g.NormFloat64() * 1e6
}

func (g gen) str() string {
	switch g.Intn(4) {
	case 0:
		return ""
	case 1:
		return "lu"
	case 2:
		return strings.Repeat("é", 70+g.Intn(100)) // length needs a two-byte uvarint
	}
	return fmt.Sprintf("s%d", g.Intn(1000))
}

func (g gen) topo() grid.Topology { return grid.Topology{Rows: g.int(), Cols: g.int()} }

func (g gen) nilOrEmpty(n int) (int, bool) {
	switch g.Intn(3) {
	case 0:
		return 0, true
	case 1:
		return 0, false
	}
	return 1 + g.Intn(n), false
}

func (g gen) spec() scheduler.JobSpec {
	sp := scheduler.JobSpec{
		Name: g.str(), App: g.str(), ProblemSize: g.int(), BlockSize: g.int(), Iterations: g.int(),
		Priority: g.int(), Tenant: g.str(), InitialTopo: g.topo(),
	}
	if n, isNil := g.nilOrEmpty(5); !isNil {
		sp.Chain = make([]grid.Topology, n)
		for i := range sp.Chain {
			sp.Chain[i] = g.topo()
		}
	}
	return sp
}

var allOps = []Op{OpSubmit, OpContact, OpResizeComplete, OpJobEnd, OpJobError, OpWait, OpStatus, OpWatch, OpCancel, "future-op"}

// frame draws a frame of op carrying the fields that op reads.
func (g gen) frame(op Op) Frame {
	f := Frame{ID: g.uint(), Op: op, Tenant: g.str()}
	switch op {
	case OpSubmit:
		f.Spec = g.spec()
	case OpContact:
		f.JobID, f.Topo, f.IterTime, f.RedistTime = g.int(), g.topo(), g.float(), g.float()
	case OpResizeComplete:
		f.JobID, f.RedistTime = g.int(), g.float()
	case OpJobEnd, OpJobError, OpWait, OpWatch:
		f.JobID = g.int()
	case OpCancel:
		f.CancelID = g.uint()
	}
	return f
}

// reply draws a reply with payload kind k (0 none … 4 event).
func (g gen) reply(k int) Reply {
	r := Reply{ID: g.uint(), Final: g.Intn(2) == 0}
	if g.Intn(3) == 0 {
		r.Err, r.Code = g.str(), g.str()
	}
	switch k {
	case 1:
		r.JobID = g.int()
	case 2:
		r.Decision = scheduler.Decision{Action: scheduler.Action(g.Intn(3)), Target: g.topo(), Reason: g.str()}
	case 3:
		st := &scheduler.ClusterStatus{Total: g.int(), Free: g.int(), Busy: g.int(), QueueLen: g.int()}
		if n, isNil := g.nilOrEmpty(4); !isNil {
			st.Jobs = make([]scheduler.JobInfo, n)
			for i := range st.Jobs {
				st.Jobs[i] = scheduler.JobInfo{ID: g.int(), Name: g.str(), App: g.str(), Tenant: g.str(),
					State: g.str(), Priority: g.int(), Topo: g.topo(), Procs: g.int(),
					Submit: g.float(), Start: g.float(), End: g.float()}
			}
		}
		if n, isNil := g.nilOrEmpty(3); !isNil {
			st.Tenants = make([]scheduler.TenantUsage, n)
			for i := range st.Tenants {
				st.Tenants[i] = scheduler.TenantUsage{Tenant: g.str(), Running: g.int(), Queued: g.int(), Procs: g.int()}
			}
		}
		r.Status = st
	case 4:
		r.Event = &scheduler.JobEvent{Seq: g.uint(), Time: g.float(), JobID: g.int(), Job: g.str(),
			Kind: g.str(), Topo: g.topo(), Busy: g.int(), Free: g.int()}
	}
	return r
}

// decisionReply is a framed decision reply carrying action, written by hand
// because the encoder cannot write an action outside Action's range.
func decisionReply(action int) []byte {
	p := append(codec.AppendUint(nil, 300), payloadDecision<<1|1)
	p = codec.AppendString(codec.AppendString(p, ""), "")
	p = codec.AppendTopo(codec.AppendInt(p, action), grid.Topology{Rows: 2, Cols: 4})
	p = codec.AppendString(p, "expand into idle processors")
	return append(codec.AppendUint(nil, uint64(len(p))), p...)
}

// TestDecisionActionRange: a reply whose action is none, expand or shrink
// decodes; any other value, 257 (expand, truncated to a byte) included, is
// a malformed frame.
func TestDecisionActionRange(t *testing.T) {
	for action := -1; action <= 257; action++ {
		var r Reply
		err := NewFrameReader(bytes.NewReader(decisionReply(action))).Read(&r)
		switch valid := action >= 0 && action <= 2; {
		case valid && (err != nil || int(r.Decision.Action) != action):
			t.Errorf("action %d: decoded %+v, %v", action, r.Decision, err)
		case !valid && !errors.Is(err, ErrMalformed):
			t.Errorf("action %d: decoded %+v, %v; want ErrMalformed", action, r.Decision, err)
		}
	}
}

// TestCodedReasonOnTheWire: a decision whose reason is a code and operand
// goes out as exactly the bytes of its text, and renders without
// allocating.
func TestCodedReasonOnTheWire(t *testing.T) {
	coded := Reply{ID: 300, Final: true,
		Decision: scheduler.JobReason(scheduler.ActionShrink, grid.Topology{Rows: 1, Cols: 2}, scheduler.ReasonCoordinatedShrink, 1<<40)}
	text := coded
	text.Decision = scheduler.Decision{Action: scheduler.ActionShrink, Target: coded.Decision.Target,
		Reason: "coordinated shrink to start queued job 1099511627776"}
	if got, want := appendReply(nil, &coded), appendReply(nil, &text); !bytes.Equal(got, want) {
		t.Fatalf("coded reply encodes to %x, its text to %x", got, want)
	}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendReply(buf[:0], &coded) }); allocs != 0 {
		t.Fatalf("encoding a coded reply: %.2f allocations, want 0", allocs)
	}
}

// TestV2RoundTripProperty streams 2 000 seeded frames and 2 000 seeded
// replies — every op, every payload kind — through one writer and one
// reader each, so buffer reuse and symbol interning are exercised across
// frames, and requires every value back bit for bit.
func TestV2RoundTripProperty(t *testing.T) {
	g := gen{rand.New(rand.NewSource(24))}
	const n = 2000
	var frames []Frame
	var replies []Reply
	for i := 0; i < n; i++ {
		frames = append(frames, g.frame(allOps[i%len(allOps)]))
		replies = append(replies, g.reply(i%5))
	}
	var fbuf, rbuf bytes.Buffer
	fw, rw := NewFrameWriter(&fbuf), NewFrameWriter(&rbuf)
	for i := 0; i < n; i++ {
		if err := fw.Write(&frames[i]); err != nil {
			t.Fatal(err)
		}
		if err := rw.Write(replies[i]); err != nil {
			t.Fatal(err)
		}
	}
	fr, rr := NewFrameReader(&fbuf), NewFrameReader(&rbuf)
	var f Frame
	var r Reply
	for i := 0; i < n; i++ {
		if err := fr.Read(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !wireEqual(f, frames[i]) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, f, frames[i])
		}
		if err := rr.Read(&r); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !wireEqual(r, replies[i]) {
			t.Fatalf("reply %d:\n got %+v\nwant %+v", i, r, replies[i])
		}
	}
	if err := fr.Read(&f); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestV2LargeFrameRoundTrip sends a status reply far larger than the
// reader's buffer, which the reader assembles as the bytes arrive.
func TestV2LargeFrameRoundTrip(t *testing.T) {
	st := &scheduler.ClusterStatus{Total: 4096}
	for i := 0; i < 5000; i++ {
		st.Jobs = append(st.Jobs, scheduler.JobInfo{ID: i, Name: fmt.Sprintf("job-%d", i), App: "mw", State: "done"})
	}
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).Write(Reply{ID: 9, Final: true, Status: st}); err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := NewFrameReader(&buf).Read(&r); err != nil {
		t.Fatal(err)
	}
	if !wireEqual(r.Status, st) {
		t.Fatal("large status reply did not survive the round trip")
	}
}

// wireSeeds are streams worth mutating: every golden frame or reply, a
// truncated one, a huge length, and the opening of a gob-framed peer.
func wireSeeds(replies bool) [][]byte {
	var seeds [][]byte
	var stream bytes.Buffer
	w := NewFrameWriter(&stream)
	add := func(v any) {
		var one bytes.Buffer
		_ = NewFrameWriter(&one).Write(v)
		_ = w.Write(v)
		seeds = append(seeds, one.Bytes(), one.Bytes()[:one.Len()-1])
	}
	if replies {
		for _, r := range goldenReplies() {
			add(r)
		}
	} else {
		for _, f := range goldenFrames() {
			add(f)
		}
		add(Frame{ID: 5, Op: "future-op"})
	}
	if replies {
		seeds = append(seeds, decisionReply(257))
	}
	var gobbed bytes.Buffer
	_ = gob.NewEncoder(&gobbed).Encode(Frame{ID: 1, Op: OpStatus})
	return append(seeds, stream.Bytes(), gobbed.Bytes(), nil,
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		[]byte{0xFF, 0xFF, 0xFF, 0x7F, 0x01})
}

// fuzzStream reads frames into v until the stream fails, holding the
// decoder to its contract: no panic, only typed errors, each decoded value
// survives a canonical re-encode, and the bytes allocated stay within a
// constant factor of the bytes supplied (a decoded row or topology can be
// a few times its smallest encoding).
func fuzzStream(t *testing.T, data []byte, v any) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr := NewFrameReader(bytes.NewReader(data))
	var err error
	for frames := 0; ; frames++ {
		if err = fr.Read(v); err != nil {
			break
		}
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).Write(v); err != nil {
			t.Fatal(err)
		}
		again := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := NewFrameReader(&buf).Read(again); err != nil {
			t.Fatalf("canonical re-encode of frame %d does not decode: %v", frames, err)
		}
		if !wireEqual(again, v) {
			t.Fatalf("frame %d round trip diverged:\n first %+v\nsecond %+v", frames, v, again)
		}
	}
	runtime.ReadMemStats(&after)
	if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrMalformed) {
		t.Fatalf("untyped error %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*len(data)+256<<10) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
}

// FuzzReadFrame feeds arbitrary client→server streams to the server's
// frame decoder.
func FuzzReadFrame(f *testing.F) {
	for _, s := range wireSeeds(false) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzStream(t, data, new(Frame)) })
}

// FuzzReadReply feeds arbitrary server→client streams to the client's
// reply decoder.
func FuzzReadReply(f *testing.F) {
	for _, s := range wireSeeds(true) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzStream(t, data, new(Reply)) })
}

// TestStaleMagicRefused opens connections the way non-v2 peers do: the
// gob-framed dialect (0xB2, then a gob-encoded frame), an rpc/v1 client (a
// bare gob-encoded request) and a byte of noise. Each must be counted
// malformed and closed within a second, with nothing dispatched and
// nothing written back.
func TestStaleMagicRefused(t *testing.T) {
	// v1Request is, field for field, the envelope an rpc/v1 client
	// gob-encoded as the whole of its connection's opening.
	type v1Request struct {
		Op         Op
		Tenant     string
		JobID      int
		Topo       grid.Topology
		IterTime   float64
		RedistTime float64
		Spec       scheduler.JobSpec
	}
	gobbed := func(prefix []byte, v any) []byte {
		buf := bytes.NewBuffer(prefix)
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name   string
		opener []byte
	}{
		{"gob-framed-0xB2", gobbed([]byte{0xB2}, Frame{ID: 1, Op: OpStatus})},
		{"v1-request", gobbed(nil, v1Request{Op: OpStatus, Tenant: "acme"})},
		{"one-byte", []byte{'G'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := scheduler.NewServer(4, false, nil)
			var logged []string // read only after Close has waited out the server's goroutines
			srv, err := Serve("127.0.0.1:0", sched, WithLogf(func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opener); err != nil {
				t.Fatal(err)
			}
			// The server hangs up without answering; with the opener left
			// unread, the hang-up may arrive as a reset instead of EOF.
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			answer, err := io.ReadAll(conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept the connection open past 1s")
			}
			if len(answer) != 0 {
				t.Fatalf("server answered a non-v2 opener with %d bytes", len(answer))
			}
			if st := srv.Stats(); st.Malformed != 1 || st.Requests != 0 || st.Conns != 0 {
				t.Fatalf("stats %+v: want one malformed opener and nothing dispatched", st)
			}
			srv.Close()
			if len(logged) != 1 || !strings.Contains(logged[0], "not MagicV2") {
				t.Fatalf("log %q: want one \"not MagicV2\" line for the refused opener", logged)
			}
		})
	}
}
