package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/httpx"
)

// errCheck marks an op whose output failed a check; the session it ran
// on is still in protocol sync.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// verifier compares received bytes with the benchmark's own corpus.
// With corrupt set it flips one expected byte, so every comparison must
// fail: the self-test uses it to show the check can.
type verifier struct {
	want    *corpus
	corrupt bool
}

func (v verifier) check(what string, got []byte, id uint64, size int) error {
	want := v.want.object(id, size)
	if v.corrupt {
		want = append([]byte(nil), want...)
		want[len(want)/2] ^= 0x01
	}
	if !bytes.Equal(got, want) {
		return checkf("%s %d (%d bytes): bytes differ from the seeded corpus", what, id, size)
	}
	return nil
}

// client runs one closed-loop connection's ops. op runs op number k of
// this client and checks its output; it returns the payload bytes the
// check verified, or why the op failed.
type client interface {
	op(k int, t *opTrace) (int, error)
	close()
}

// churnEcho is the echo payload of one churn op.
const churnEcho = 256

// churnClient runs a cycle of one full chain handshake and three
// resumed ones, each a whole connection: connect, handshake, one
// 256-byte echo through the header inserter, close.
type churnClient struct {
	d      *deployment
	v      verifier
	ids    *rng
	ticket *core.ChainTicket
}

func (c *churnClient) op(k int, t *opTrace) (int, error) {
	full := k%4 == 0
	redeem := c.ticket
	if full {
		redeem = nil
	}
	var issued *core.ChainTicket
	sess, err := c.d.dial(t, redeem, func(ct *core.ChainTicket) { issued = ct })
	if err != nil {
		return 0, err
	}
	defer func() {
		end := t.begin(spanClose)
		sess.Close()
		end()
	}()
	if issued == nil {
		return 0, checkf("no chain ticket issued")
	}
	if c.ticket != nil && c.ticket != issued {
		c.ticket.Wipe()
	}
	c.ticket = issued

	st := sess.Stats()
	if full {
		mbs := sess.Middleboxes()
		if len(mbs) != 1 || !mbs[0].Attested || mbs[0].Measurement != c.d.encl.Measurement() {
			return 0, checkf("full handshake: want one attested middlebox with the enclave's measurement, got %+v", mbs)
		}
		if st.ResumedPrimary != 0 || st.ResumedHops != 0 {
			return 0, checkf("full handshake resumed (primary %d, hops %d)", st.ResumedPrimary, st.ResumedHops)
		}
	} else if st.ResumedPrimary != 1 || st.ResumedHops != 1 {
		return 0, checkf("resumed handshake: want primary 1 and hops 1, got %d and %d", st.ResumedPrimary, st.ResumedHops)
	}

	id := c.ids.next()
	hc := httpx.NewClient(t.rw(sess))
	resp, err := hc.Do(&httpx.Request{
		Method: "POST",
		Path:   "/echo",
		Host:   originName,
		Header: httpx.Header{},
		Body:   c.v.want.object(id, churnEcho),
	})
	if err != nil {
		return 0, fmt.Errorf("echo: %w", err)
	}
	end := t.begin(spanCheck)
	defer end()
	return churnEcho, checkResponse(c.v, resp, id, churnEcho)
}

func (c *churnClient) close() {
	if c.ticket != nil {
		c.ticket.Wipe()
	}
}

// checkResponse checks a churn or rpc response: status, the Via value
// the origin saw (the middlebox inserted it) and the body bytes.
func checkResponse(v verifier, resp *httpx.Response, id uint64, size int) error {
	if resp.StatusCode != 200 {
		return checkf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(seenHeader); got != viaValue {
		return checkf("origin saw Via %q, want the inserted %q", got, viaValue)
	}
	return v.check("object", resp.Body, id, size)
}

// rpcClient sends closed-loop GETs over one persistent session; the
// response sizes follow the seeded order of bodySizes.
type rpcClient struct {
	d     *deployment
	v     verifier
	ids   *rng
	sizes []int
	sess  *core.Session
	hc    *httpx.Client
	rw    *opRW // traced runs only
}

func (c *rpcClient) connect() error {
	sess, err := c.d.dial(nil, nil, nil)
	if err != nil {
		return err
	}
	c.sess = sess
	var rw io.ReadWriter = sess
	if c.d.tr != nil {
		c.rw = &opRW{s: sess}
		rw = c.rw
	}
	c.hc = httpx.NewClient(rw)
	return nil
}

func (c *rpcClient) op(k int, t *opTrace) (int, error) {
	if c.sess == nil {
		if err := c.connect(); err != nil {
			return 0, err
		}
	}
	if c.rw != nil {
		c.rw.op = t
	}
	id, size := c.ids.next(), c.sizes[k%len(c.sizes)]
	resp, err := c.hc.Do(&httpx.Request{Method: "GET", Path: objectPath(id, size), Host: originName, Header: httpx.Header{}})
	if err != nil {
		// The session is out of sync; the next op reconnects.
		c.close()
		return 0, fmt.Errorf("get: %w", err)
	}
	end := t.begin(spanCheck)
	defer end()
	return size, checkResponse(c.v, resp, id, size)
}

func (c *rpcClient) close() {
	if c.sess != nil {
		c.sess.Close()
		c.sess = nil
	}
}

// bulkClient requests bulkObject-byte objects over one persistent
// session through a middlebox without a Processor.
type bulkClient struct {
	d    *deployment
	v    verifier
	ids  *rng
	sess *core.Session
	buf  []byte
}

func (c *bulkClient) connect() error {
	sess, err := c.d.dial(nil, nil, nil)
	if err != nil {
		return err
	}
	c.sess = sess
	return nil
}

func (c *bulkClient) op(_ int, t *opTrace) (int, error) {
	if c.sess == nil {
		if err := c.connect(); err != nil {
			return 0, err
		}
	}
	before := c.d.mb.Stats().RecordsRekeyed
	transitions := c.d.encl.Transitions()
	records := c.sess.Stats().RecordsRelayed

	id := c.ids.next()
	var req [8]byte
	binary.BigEndian.PutUint64(req[:], id)
	rw := t.rw(c.sess)
	if _, err := rw.Write(req[:]); err != nil {
		c.close()
		return 0, fmt.Errorf("request: %w", err)
	}
	if _, err := io.ReadFull(rw, c.buf); err != nil {
		c.close()
		return 0, fmt.Errorf("read object: %w", err)
	}
	end := t.begin(spanCheck)
	defer end()
	if err := c.v.check("object", c.buf, id, bulkObject); err != nil {
		return 0, err
	}
	// Every record this op carried was opened and resealed by the
	// middlebox (none forwarded verbatim), inside the enclave.
	delivered := c.sess.Stats().RecordsRelayed - records
	if rekeyed := c.d.mb.Stats().RecordsRekeyed - before; rekeyed < delivered {
		return 0, checkf("middlebox resealed %d records, the client exchanged %d", rekeyed, delivered)
	}
	if c.d.encl.Transitions() == transitions {
		return 0, checkf("no enclave transition during the op")
	}
	return bulkObject, nil
}

func (c *bulkClient) close() {
	if c.sess != nil {
		c.sess.Close()
		c.sess = nil
	}
}
