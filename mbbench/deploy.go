package main

import (
	"context"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/hsfast"
	"repro/internal/httpx"
	"repro/internal/mbapps"
	"repro/internal/sessionhost"
	"repro/internal/tls12"
	"repro/internal/transport/tcpx"
)

const (
	originName = "origin.example"
	proxyName  = "proxy.example"
	// viaHeader/viaValue are what mbtls-proxy inserts by default;
	// seenHeader carries the value the origin received back to the
	// client.
	viaHeader  = "Via"
	viaValue   = "1.1 mbtls-proxy"
	seenHeader = "X-Via-Seen"
	// boundaryCost is fig7's simulated enclave transition cost.
	boundaryCost = time.Microsecond
	// maxSessions is mbtls-proxy's default -max-sessions.
	maxSessions = 256
	// bulkObject and bulkChunk shape the bulk workload: the origin
	// writes each object in bulkChunk-sized Session.Writes.
	bulkObject = 1 << 20
	bulkChunk  = 16 << 10
)

// deployment is one client → middlebox → origin chain over loopback
// TCP, configured the way mbtls-proxy -sgx and mbtls-server configure
// themselves, plus the client-side state a single client process
// shares across its connections.
type deployment struct {
	encl       *enclave.Enclave
	mb         *core.Middlebox
	mbHost     *sessionhost.Host
	originHost *sessionhost.Host
	relayPool  *core.RelayPool
	relayStart time.Time
	mbPool     *tls12.RecordBufPool
	keyShares  []*hsfast.KeySharePool

	roots      *x509.CertPool
	chainCache tls12.ChainCache
	verifier   *enclave.Verifier
	clientTr   *tcpx.Transport
	mbAddr     string

	tr      *tracer
	serving sync.WaitGroup
}

// deploy builds the PKI, the attestation authority and platform, both
// hosts and their listeners. withProcessor installs mbtls-proxy's
// header inserter (a pass-through Processor with o.stripHeader).
func deploy(o options, origin *corpus, withProcessor bool, tr *tracer) (d *deployment, err error) {
	d = &deployment{tr: tr, clientTr: tcpx.Default()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	ca, err := certs.NewCA("mbbench root")
	if err != nil {
		return nil, err
	}
	originCert, err := ca.Issue(originName, []string{originName}, nil)
	if err != nil {
		return nil, err
	}
	proxyCert, err := ca.Issue(proxyName, []string{proxyName}, nil)
	if err != nil {
		return nil, err
	}
	d.roots = ca.Pool()
	authority, err := enclave.NewAuthority()
	if err != nil {
		return nil, err
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		return nil, err
	}
	platform.SetBoundaryCost(boundaryCost)
	d.encl = platform.CreateEnclave(enclave.CodeImage{Name: "mbtls-proxy", Version: "1.0"})
	shards := runtime.GOMAXPROCS(0)

	// Origin: an mbTLS server host issuing STEK-sealed tickets, with a
	// shard-sized keyshare pool.
	originSTEK, err := hsfast.NewSTEK(time.Hour, nil)
	if err != nil {
		return nil, err
	}
	originKS := hsfast.NewKeySharePoolForShards(shards)
	d.keyShares = append(d.keyShares, originKS)
	scfg := &core.ServerConfig{
		TLS: &tls12.Config{
			Certificate:   originCert,
			EnableTickets: true,
			TicketKeys:    tr.ticketKeys(originSTEK),
			KeyShares:     tr.keyShares(originKS),
		},
		AcceptMiddleboxes: true,
		MiddleboxTLS:      &tls12.Config{RootCAs: d.roots},
	}
	serve := serveHTTP(origin)
	if o.workload == "bulk" {
		serve = serveBulk(origin)
	}
	d.originHost, err = sessionhost.New(sessionhost.Config{
		Name:         "mbbench-origin",
		Handler:      tr.originHandler(sessionhost.NewServerHandler(scfg, tr.serveCallback(serve))),
		KeySharePool: originKS,
		TicketKeys:   originSTEK,
	})
	if err != nil {
		return nil, err
	}
	originLns, err := tcpx.New(tcpx.Config{}).ListenShards("127.0.0.1:0", d.originHost.Shards())
	if err != nil {
		return nil, err
	}
	originAddr := originLns[0].Addr().String()
	d.startServing(d.originHost, tr.listeners(originLns))

	// Middlebox: mbtls-proxy -sgx's configuration.
	d.mbPool = tls12.NewRecordBufPool(2 * maxSessions)
	mbSTEK, err := hsfast.NewSTEK(time.Hour, nil)
	if err != nil {
		return nil, err
	}
	mbKS := hsfast.NewKeySharePoolForShards(shards)
	d.keyShares = append(d.keyShares, mbKS)
	d.relayPool = core.NewRelayPool(0)
	d.relayStart = time.Now()
	mcfg := core.MiddleboxConfig{
		Mode:        core.ClientSide,
		Certificate: proxyCert,
		Enclave:     d.encl,
		BufPool:     d.mbPool,
		TicketKeys:  tr.ticketKeys(mbSTEK),
		KeyShares:   tr.keyShares(mbKS),
		RelayPool:   d.relayPool,
	}
	if withProcessor {
		mcfg.NewProcessor = func() core.Processor {
			var p core.Processor = mbapps.NewHeaderInserter(viaHeader, viaValue)
			if o.stripHeader {
				p = core.ProcessorFunc(func(_ core.Direction, chunk []byte) ([]byte, error) { return chunk, nil })
			}
			return tr.processor(p)
		}
	}
	if d.mb, err = core.NewMiddlebox(mcfg); err != nil {
		return nil, err
	}
	mbTr := tcpx.New(tcpx.Config{Pool: d.mbPool})
	dialOrigin := func() (net.Conn, error) { return mbTr.Dial(originAddr) }
	d.mbHost, err = sessionhost.New(sessionhost.Config{
		Name:           "mbbench-proxy",
		MaxSessions:    maxSessions,
		BufPool:        d.mbPool,
		Handler:        tr.mbHandler(d.mb, dialOrigin),
		MiddleboxStats: d.mb.Stats,
		KeySharePool:   mbKS,
		TicketKeys:     mbSTEK,
		RelayPool:      d.relayPool,
	})
	if err != nil {
		return nil, err
	}
	mbLns, err := mbTr.ListenShards("127.0.0.1:0", d.mbHost.Shards())
	if err != nil {
		return nil, err
	}
	d.mbAddr = mbLns[0].Addr().String()
	d.startServing(d.mbHost, tr.listeners(mbLns))

	// Client process state: one chain-verify cache and one
	// quote-endorsement cache shared by every connection.
	d.chainCache = hsfast.NewVerifyCache(64, time.Hour, nil)
	d.verifier = &enclave.Verifier{
		Authority: authority.PublicKey(),
		Allowed:   []enclave.Measurement{d.encl.Measurement()},
		Cache:     hsfast.NewVerifyCache(64, time.Hour, nil),
	}
	return d, nil
}

func (d *deployment) startServing(h *sessionhost.Host, lns []net.Listener) {
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := h.ServeListeners(lns); err != nil {
			logf("%s: serve: %v", h.Name(), err)
		}
	}()
}

// clientConfig builds the client config of op's connection: attestation
// is required, and ct (optional) is the chain ticket to redeem. Traced,
// the shared caches are wrapped for op.
func (d *deployment) clientConfig(op *opTrace, ct *core.ChainTicket, onTicket func(*core.ChainTicket)) *core.ClientConfig {
	chainCache, verifier := d.chainCache, d.verifier
	if op != nil {
		chainCache = op.chainCache(chainCache)
		v := *verifier
		v.Cache = op.quoteCache(v.Cache)
		verifier = &v
	}
	return &core.ClientConfig{
		TLS:                         &tls12.Config{RootCAs: d.roots, ServerName: originName, VerifyCache: chainCache},
		MiddleboxTLS:                &tls12.Config{RootCAs: d.roots, VerifyCache: chainCache},
		RequireMiddleboxAttestation: true,
		MiddleboxVerifier:           verifier,
		ChainTicket:                 ct,
		OnNewChainTicket:            onTicket,
	}
}

// dial opens a TCP connection to the middlebox host and runs the chain
// handshake, redeeming ct when it is set. op is the op the trace
// records the dial under.
func (d *deployment) dial(op *opTrace, ct *core.ChainTicket, onTicket func(*core.ChainTicket)) (*core.Session, error) {
	end := op.begin(spanDialTCP)
	conn, err := d.clientTr.Dial(d.mbAddr)
	end()
	if err != nil {
		return nil, fmt.Errorf("dial middlebox: %w", err)
	}
	conn = d.tr.clientConn(conn, op)
	kind := spanDialFull
	if ct != nil {
		kind = spanDialResumed
	}
	end = op.begin(kind)
	sess, err := core.Dial(conn, d.clientConfig(op, ct, onTicket))
	end()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("chain handshake: %w", err)
	}
	return sess, nil
}

// close drains both hosts, then stops the pools they used. It is safe
// on a partly built deployment.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, h := range []*sessionhost.Host{d.mbHost, d.originHost} {
		if h != nil {
			if err := h.Shutdown(ctx); err != nil {
				logf("%s: shutdown: %v", h.Name(), err)
			}
		}
	}
	d.serving.Wait()
	if d.relayPool != nil {
		d.relayPool.Close()
	}
	for _, p := range d.keyShares {
		p.Close()
	}
}

// hostFaults returns the failed and overloaded session counts of both
// hosts.
func (d *deployment) hostFaults() (failed, overloaded uint64) {
	for _, h := range []*sessionhost.Host{d.mbHost, d.originHost} {
		m := h.Snapshot()
		failed += m.Failed
		overloaded += m.Overloaded
	}
	return failed, overloaded
}

// serveHTTP is the origin of churn and rpc: POST echoes the request
// body; GET /obj/<id>/<size> returns that corpus object. Every response
// echoes the Via header the origin received in seenHeader.
func serveHTTP(c *corpus) func(*core.Session) error {
	return func(s *core.Session) error {
		return httpx.Serve(s, func(req *httpx.Request) *httpx.Response {
			resp := &httpx.Response{StatusCode: 200, Header: httpx.Header{seenHeader: req.Header.Get(viaHeader)}}
			if req.Method == "POST" {
				resp.Body = req.Body
				return resp
			}
			id, size, ok := parseObjectPath(req.Path)
			if !ok {
				return &httpx.Response{StatusCode: 404}
			}
			resp.Body = c.object(id, size)
			return resp
		})
	}
}

func objectPath(id uint64, size int) string {
	return "/obj/" + strconv.FormatUint(id, 10) + "/" + strconv.Itoa(size)
}

func parseObjectPath(p string) (id uint64, size int, ok bool) {
	rest, found := strings.CutPrefix(p, "/obj/")
	if !found {
		return 0, 0, false
	}
	ids, sizes, found := strings.Cut(rest, "/")
	if !found {
		return 0, 0, false
	}
	id, err := strconv.ParseUint(ids, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	size, err = strconv.Atoi(sizes)
	if err != nil || size <= 0 || size > maxBody {
		return 0, 0, false
	}
	return id, size, true
}

// serveBulk is the origin of bulk: each 8-byte request names an object,
// which the origin writes in bulkChunk-sized writes.
func serveBulk(c *corpus) func(*core.Session) error {
	return func(s *core.Session) error {
		var req [8]byte
		for {
			if _, err := io.ReadFull(s, req[:]); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			obj := c.object(binary.BigEndian.Uint64(req[:]), bulkObject)
			for off := 0; off < len(obj); off += bulkChunk {
				if _, err := s.Write(obj[off : off+bulkChunk]); err != nil {
					return err
				}
			}
		}
	}
}
