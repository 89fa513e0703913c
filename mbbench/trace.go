package main

import (
	"bufio"
	"crypto/ecdh"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
	"repro/internal/transport"
)

// spanKind names a layer boundary the traced run records a span at.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanDialTCP
	spanDialFull
	spanDialResumed
	spanWrite
	spanRead
	spanCheck
	spanClose
	spanAdmit
	spanAccept
	spanProcess
	spanKeyShare
	spanChainVerify
	spanEndorse
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "tcpx.dial", "core.dial_full", "core.dial_resumed", "core.write", "core.read",
	"bench.check", "core.close", "sessionhost.admit", "core.accept", "mbapps.process",
	"hsfast.keyshare", "hsfast.chain_verify", "enclave.endorse",
}

// maxStoredSpans caps the span records a run keeps for its trace file;
// per-kind totals and the quantiles below use every span.
const maxStoredSpans = 200000

// span is one recorded interval. Client spans carry their op's id.
// Admission and accept spans carry the port of the connection they ran
// on (op -1) and get their op when the trace is written. Processor and
// keyshare spans carry neither: the program calls them without
// reference to a connection.
type span struct {
	op         int64
	port       int
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
}

// portUse is one connection's use of a port: from the time its dial
// began, the port stands for id.
type portUse struct{ from, id int64 }

// portLog keeps every use of each port in time order. The kernel hands
// out ephemeral ports again within a run, and not in order, so a span
// resolves to the use that was current when it started.
type portLog map[int][]portUse

func (l portLog) add(port int, from, id int64) {
	l[port] = append(l[port], portUse{from: from, id: id})
}

func (l portLog) at(port int, t int64) (int64, bool) {
	uses := l[port]
	for i := len(uses) - 1; i >= 0; i-- {
		if uses[i].from <= t {
			return uses[i].id, true
		}
	}
	return 0, false
}

// tracer records spans and counters from the benchmark's wrappers
// around each layer. A nil *tracer is the untraced run: every wrap
// method then returns its argument unchanged.
type tracer struct {
	epoch  time.Time
	active atomic.Bool

	mu     sync.Mutex
	spans  []span
	count  [numSpanKinds]int64
	total  [numSpanKinds]int64
	quants [numSpanKinds][]int64
	// links maps a middlebox→origin connection's local port to the
	// client port of the connection it serves; opPorts maps a client
	// port to its op.
	links   portLog
	opPorts portLog

	reads, writes, writevs, wireBytes atomic.Int64
	ticketOpens                       atomic.Int64
	chainLookups, chainHits           atomic.Int64
	endorseLookups, endorseHits       atomic.Int64
	coveredNs, opNs                   atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		spans:   make([]span, 0, 1024),
		links:   portLog{},
		opPorts: portLog{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin starts the measured window: what was recorded before (set-up,
// warm-up) is dropped.
func (t *tracer) begin() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.count = [numSpanKinds]int64{}
	t.total = [numSpanKinds]int64{}
	t.quants = [numSpanKinds][]int64{}
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{&t.reads, &t.writes, &t.writevs, &t.wireBytes, &t.ticketOpens,
		&t.chainLookups, &t.chainHits, &t.endorseLookups, &t.endorseHits, &t.coveredNs, &t.opNs} {
		c.Store(0)
	}
	t.active.Store(true)
}

func (t *tracer) stop() { t.active.Store(false) }

func (t *tracer) record(op int64, port int, k spanKind, start, end int64) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.count[k]++
	t.total[k] += end - start
	t.quants[k] = append(t.quants[k], end-start)
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{op: op, port: port, kind: k, start: start, end: end})
	}
	t.mu.Unlock()
}

// p50us is the median duration of kind k's spans in µs (0 if none).
func (t *tracer) p50us(k spanKind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.quants[k]
	if len(q) == 0 {
		return 0
	}
	sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	return float64(q[len(q)/2]) / 1e3
}

func (t *tracer) totalUs(k spanKind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.total[k]) / 1e3
}

func (t *tracer) spanCount(k spanKind) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[k]
}

// writeFile writes the stored spans as JSON lines. Admission and
// accept spans are resolved to the op of the client connection they
// served. A client span's self time is its duration minus the time
// its child spans (those of its op that it contains) cover.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Op    int64  `json:"op"`
		Span  string `json:"span"`
		Start int64  `json:"start_ns"`
		End   int64  `json:"end_ns"`
		Self  *int64 `json:"self_ns,omitempty"`
	}
	for i, s := range t.spans {
		l := line{Op: s.op, Span: spanNames[s.kind], Start: s.start, End: s.end}
		if s.op >= 0 {
			l.Self = &self[i]
		} else if s.port != 0 {
			port := s.port
			if s.kind == spanAccept {
				// The origin accepted the middlebox's upstream hop.
				id, ok := t.links.at(port, s.start)
				if !ok {
					id = -1
				}
				port = int(id)
			}
			if id, ok := t.opPorts.at(port, s.start); ok {
				l.Op = id
			}
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each stored client span's self time. The client
// spans of one op are sequential or nested (cache lookups inside a
// dial), so sorted by start, and by end descending, each span's parent
// is the innermost earlier span that still contains it.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	byOp := map[int64][]int{}
	for i, s := range t.spans {
		if s.op >= 0 {
			self[i] = s.end - s.start
			byOp[s.op] = append(byOp[s.op], i)
		}
	}
	for _, idx := range byOp {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := t.spans[idx[a]], t.spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			return sa.end > sb.end
		})
		var stack []int
		for _, i := range idx {
			s := t.spans[i]
			for len(stack) > 0 && t.spans[stack[len(stack)-1]].end < s.end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= s.end - s.start
			}
			stack = append(stack, i)
		}
	}
	return self
}

// opTrace is one client op's span context. A nil *opTrace records
// nothing. A client runs its op's calls one after another, so the
// op's child spans never overlap and their union is their sum.
type opTrace struct {
	tr      *tracer
	id      int64
	from    int64 // the op's start, before any of its connections
	covered int64
}

func noop() {}

// begin opens a child span of the op; the returned func closes it.
func (o *opTrace) begin(k spanKind) func() {
	if o == nil {
		return noop
	}
	start := o.tr.now()
	return func() {
		end := o.tr.now()
		o.covered += end - start
		o.tr.record(o.id, 0, k, start, end)
	}
}

// rw returns s with its Read and Write calls recorded as spans of o.
func (o *opTrace) rw(s *core.Session) io.ReadWriter {
	if o == nil {
		return s
	}
	return &opRW{s: s, op: o}
}

// opRW records a session's Write calls and the time blocked in Read.
type opRW struct {
	s  *core.Session
	op *opTrace
}

func (r *opRW) Read(p []byte) (int, error) {
	end := r.op.begin(spanRead)
	defer end()
	return r.s.Read(p)
}

func (r *opRW) Write(p []byte) (int, error) {
	end := r.op.begin(spanWrite)
	defer end()
	return r.s.Write(p)
}

// newOp starts op number id; finish records its span and coverage.
func (t *tracer) newOp(id int64) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{tr: t, id: id, from: t.now()}
}

func (t *tracer) finishOp(o *opTrace, start, end time.Time) {
	if t == nil {
		return
	}
	s, e := int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.record(o.id, 0, spanOp, s, e)
	if t.active.Load() {
		t.coveredNs.Add(o.covered)
		t.opNs.Add(e - s)
	}
}

func portOf(a net.Addr) int {
	if ta, ok := a.(*net.TCPAddr); ok {
		return ta.Port
	}
	return 0
}

// tracedConn counts a hop's socket calls and bytes. It forwards the
// optional interfaces the program asserts on (vectored writes for the
// tls12 record layer, corking for tcpx), so the traced run takes the
// same code path as the untraced one.
type tracedConn struct {
	net.Conn
	tr *tracer
	// port is the client-side port of the connection (the dialer's
	// local port); acceptedAt/serveAt time the server side.
	port       int
	acceptedAt int64
	serveAt    int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.active.Load() {
		c.tr.reads.Add(1)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.active.Load() {
		c.tr.writes.Add(1)
		c.tr.wireBytes.Add(int64(n))
	}
	return n, err
}

func (c *tracedConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	var n int64
	var err error
	if bw, ok := c.Conn.(transport.BuffersWriter); ok {
		n, err = bw.WriteBuffers(bufs)
	} else {
		n, err = bufs.WriteTo(c.Conn)
	}
	if c.tr.active.Load() {
		c.tr.writevs.Add(1)
		c.tr.wireBytes.Add(n)
	}
	return n, err
}

func (c *tracedConn) Cork() error {
	if k, ok := c.Conn.(transport.Corker); ok {
		return k.Cork()
	}
	return nil
}

func (c *tracedConn) Uncork() error {
	if k, ok := c.Conn.(transport.Corker); ok {
		return k.Uncork()
	}
	return nil
}

// clientConn wraps a client's connection to the middlebox and ties its
// port to op o.
func (t *tracer) clientConn(c net.Conn, o *opTrace) net.Conn {
	if t == nil {
		return c
	}
	port := portOf(c.LocalAddr())
	if o != nil {
		t.mu.Lock()
		t.opPorts.add(port, o.from, o.id)
		t.mu.Unlock()
	}
	return &tracedConn{Conn: c, tr: t, port: port}
}

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, port: portOf(c.RemoteAddr()), acceptedAt: l.tr.now()}, nil
}

func (t *tracer) listeners(lns []net.Listener) []net.Listener {
	if t == nil {
		return lns
	}
	out := make([]net.Listener, len(lns))
	for i, ln := range lns {
		out[i] = &tracedListener{Listener: ln, tr: t}
	}
	return out
}

// mbHandler is mbtls-proxy's handler. Traced, it records admission
// (listener Accept → Serve entry) and wraps the origin-bound hop.
func (t *tracer) mbHandler(mb *core.Middlebox, dial func() (net.Conn, error)) sessionhost.Handler {
	if t == nil {
		return sessionhost.NewMiddleboxHandler(mb, dial)
	}
	return sessionhost.HandlerFunc(func(ctl *sessionhost.Control, down net.Conn) error {
		clientPort := 0
		if tc, ok := down.(*tracedConn); ok {
			clientPort = tc.port
			t.record(-1, clientPort, spanAdmit, tc.acceptedAt, t.now())
		}
		inner := sessionhost.NewMiddleboxHandler(mb, func() (net.Conn, error) {
			from := t.now()
			up, err := dial()
			if err != nil {
				return nil, err
			}
			port := portOf(up.LocalAddr())
			t.mu.Lock()
			t.links.add(port, from, int64(clientPort))
			t.mu.Unlock()
			return &tracedConn{Conn: up, tr: t, port: port}, nil
		})
		return inner.Serve(ctl, down)
	})
}

// originHandler notes when the origin's handler starts on a connection;
// serveCallback closes the core.accept span there.
func (t *tracer) originHandler(h sessionhost.Handler) sessionhost.Handler {
	if t == nil {
		return h
	}
	return sessionhost.HandlerFunc(func(ctl *sessionhost.Control, conn net.Conn) error {
		if tc, ok := conn.(*tracedConn); ok {
			tc.serveAt = t.now()
		}
		return h.Serve(ctl, conn)
	})
}

func (t *tracer) serveCallback(f func(*core.Session) error) func(*core.Session) error {
	if t == nil {
		return f
	}
	return func(s *core.Session) error {
		if tc, ok := s.Transport().(*tracedConn); ok {
			t.record(-1, tc.port, spanAccept, tc.serveAt, t.now())
		}
		return f(s)
	}
}

type tracedProcessor struct {
	p  core.Processor
	tr *tracer
}

func (p *tracedProcessor) Process(dir core.Direction, chunk []byte) ([]byte, error) {
	start := p.tr.now()
	out, err := p.p.Process(dir, chunk)
	p.tr.record(-1, 0, spanProcess, start, p.tr.now())
	return out, err
}

func (t *tracer) processor(p core.Processor) core.Processor {
	if t == nil {
		return p
	}
	return &tracedProcessor{p: p, tr: t}
}

type tracedKeyShares struct {
	k  tls12.KeyShareSource
	tr *tracer
}

func (k *tracedKeyShares) X25519KeyShare() (*ecdh.PrivateKey, []byte, error) {
	start := k.tr.now()
	priv, pub, err := k.k.X25519KeyShare()
	k.tr.record(-1, 0, spanKeyShare, start, k.tr.now())
	return priv, pub, err
}

func (t *tracer) keyShares(k tls12.KeyShareSource) tls12.KeyShareSource {
	if t == nil {
		return k
	}
	return &tracedKeyShares{k: k, tr: t}
}

type tracedTicketKeys struct {
	tls12.TicketKeySource
	tr *tracer
}

func (k *tracedTicketKeys) OpenKeys() [][32]byte {
	if k.tr.active.Load() {
		k.tr.ticketOpens.Add(1)
	}
	return k.TicketKeySource.OpenKeys()
}

func (t *tracer) ticketKeys(k tls12.TicketKeySource) tls12.TicketKeySource {
	if t == nil {
		return k
	}
	return &tracedTicketKeys{TicketKeySource: k, tr: t}
}

// tracedCache wraps a verdict cache (tls12.ChainCache and
// enclave.QuoteCache share the method set) for one op's connection and
// counts its hits.
type tracedCache struct {
	c            tls12.ChainCache
	tr           *tracer
	op           int64
	kind         spanKind
	lookups, hit *atomic.Int64
}

func (c *tracedCache) Do(key [32]byte, verify func() error) (bool, error) {
	start := c.tr.now()
	cached, err := c.c.Do(key, verify)
	c.tr.record(c.op, 0, c.kind, start, c.tr.now())
	if c.tr.active.Load() {
		c.lookups.Add(1)
		if cached {
			c.hit.Add(1)
		}
	}
	return cached, err
}

// chainCache and quoteCache wrap the client process's shared caches
// for the connection of op o, so their spans carry o's id.
func (o *opTrace) chainCache(c tls12.ChainCache) tls12.ChainCache {
	if o == nil {
		return c
	}
	return &tracedCache{c: c, tr: o.tr, op: o.id, kind: spanChainVerify, lookups: &o.tr.chainLookups, hit: &o.tr.chainHits}
}

func (o *opTrace) quoteCache(c enclave.QuoteCache) enclave.QuoteCache {
	if o == nil {
		return c
	}
	return &tracedCache{c: c, tr: o.tr, op: o.id, kind: spanEndorse, lookups: &o.tr.endorseLookups, hit: &o.tr.endorseHits}
}
