package netfaults

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/rpcx"
)

// Proxy is a frame-level lossy TCP proxy: it accepts connections,
// dials Target for each, and pumps rpcx record-marked frames in both
// directions through the injector. Because it parses the record marks
// it can fault whole protocol frames — truncate exactly mid-record,
// duplicate or corrupt exactly one message — independently per
// direction ("c2s" client→server, "s2c" server→client; accept-then-
// reset under "accept"). This is the chaos smoke's weapon: real
// processes on both sides, seeded loss in the middle.
type Proxy struct {
	Inj    *Injector
	Target string
	// MaxFrame bounds a relayed frame's size (<=0: the rpcx 1MB
	// default is too small for store fragments; 16MB matches the
	// fleet/ingest protocol limit).
	MaxFrame int
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (p *Proxy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conns == nil {
		p.conns = make(map[net.Conn]struct{})
	}
	p.conns[c] = struct{}{}
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

func (p *Proxy) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// Serve accepts on ln until ctx is cancelled, proxying each connection
// to p.Target with injected faults. Returns nil on cancellation.
func (p *Proxy) Serve(ctx context.Context, ln net.Listener) error {
	accept := p.Inj.newStream("accept", 0)
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		p.closeAll()
	})
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if accept.decideReset() {
			p.Inj.nextConn()
			p.logf("netfaults: proxy reset %s at accept", c.RemoteAddr())
			reset(c)
			continue
		}
		i := p.Inj.nextConn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.relay(i, c)
		}()
	}
}

// relay dials the target and pumps both directions until either side
// fails or a fault tears the pair down.
func (p *Proxy) relay(conn int, client net.Conn) {
	defer client.Close()
	server, err := net.DialTimeout("tcp", p.Target, 10*time.Second)
	if err != nil {
		p.logf("netfaults: proxy dial %s: %v", p.Target, err)
		return
	}
	defer server.Close()
	p.track(client)
	p.track(server)
	defer p.untrack(client)
	defer p.untrack(server)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(p.Inj.newStream("c2s", conn), client, server)
	}()
	go func() {
		defer wg.Done()
		p.pump(p.Inj.newStream("s2c", conn), server, client)
	}()
	wg.Wait()
}

// pump relays record-marked frames from src to dst, applying the
// stream's fate to each. Any fault that severs the flow (drop, trunc,
// relay error) closes both conns so the peers see it promptly.
func (p *Proxy) pump(s *stream, src, dst net.Conn) {
	max := p.MaxFrame
	if max <= 0 {
		max = 16 << 20
	}
	r := bufio.NewReader(src)
	kill := func() { src.Close(); dst.Close() }
	for {
		frame, err := rpcx.ReadFrame(r, max)
		if err != nil {
			// A clean end of stream is passed on as a half-close, so
			// frames still in flight the other way (the replies to a
			// duplicated request) are relayed, and their fates drawn,
			// before the pair comes down: what a seed injects does not
			// depend on scheduling. Any other error tears it down.
			if cw, ok := dst.(interface{ CloseWrite() error }); ok && err == io.EOF && cw.CloseWrite() == nil {
				return
			}
			kill()
			return
		}
		switch s.decide() {
		case actDelay:
			p.logf("netfaults: proxy %s delay %v", s.op, s.j.plan.DelayFor)
			time.Sleep(s.j.plan.DelayFor)
		case actDrop:
			p.logf("netfaults: proxy %s drop frame (%d bytes), tearing down", s.op, len(frame))
			kill()
			return
		case actTrunc:
			p.logf("netfaults: proxy %s truncate frame (%d bytes)", s.op, len(frame))
			writeTruncated(dst, frame)
			kill()
			return
		case actDup:
			p.logf("netfaults: proxy %s duplicate frame (%d bytes)", s.op, len(frame))
			if err := rpcx.WriteFrame(dst, frame); err != nil {
				kill()
				return
			}
		case actFlip:
			p.logf("netfaults: proxy %s flip byte in frame (%d bytes)", s.op, len(frame))
			s.flipByte(frame)
		}
		if err := rpcx.WriteFrame(dst, frame); err != nil {
			kill()
			return
		}
	}
}

// writeTruncated sends a record header promising the full frame but
// delivers only a prefix — the peer's framing layer blocks on the
// missing bytes until the connection closes under it and ReadFull
// reports an unexpected EOF mid-record.
func writeTruncated(dst net.Conn, frame []byte) {
	var hdr [4]byte
	const lastFragment = 1 << 31
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame))|lastFragment)
	buf := append(hdr[:], frame[:len(frame)/2]...)
	dst.Write(buf)
}

// ListenAndServe listens on addr (use ":0" for an ephemeral port),
// reports the bound address through announce, and serves until ctx is
// cancelled.
func (p *Proxy) ListenAndServe(ctx context.Context, addr string, announce func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netfaults: proxy listen: %w", err)
	}
	if announce != nil {
		announce(ln.Addr())
	}
	return p.Serve(ctx, ln)
}
