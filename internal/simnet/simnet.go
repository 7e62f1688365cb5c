// Package simnet models the networking stack the paper measures in
// §5.2 (Table 3: loopback TCP bandwidth), §5.2 (Table 4: remote TCP by
// medium), §6.7 (Tables 12-15: TCP/UDP/RPC latency, connection cost)
// and Table 14 (remote latencies).
//
// The central structural claim reproduced here: "It is not widely known
// that the majority of the TCP cost is in the bcopy, the checksum, and
// the network interface driver. The checksum and the driver may be
// safely eliminated in the loopback case and if the costs have been
// eliminated, then TCP should be just as fast as pipes." A TCP transfer
// is therefore modeled as the pipe path (two syscalls, two bcopys
// through the memory hierarchy, a context switch) plus per-byte
// checksum work and per-packet driver work, both skipped when the
// profile sets LoopbackOptimized (Solaris, HP-UX in Table 3).
package simnet

import (
	"errors"

	"repro/internal/ptime"
	"repro/internal/simmem"
	"repro/internal/simos"
)

// Config holds the stack cost parameters for one machine profile.
type Config struct {
	// TCPStackUS is the per-message TCP/IP protocol processing cost
	// for one direction (header construction, state machine), small
	// messages.
	TCPStackUS float64
	// UDPStackUS is the same for UDP. The paper's tables show UDP
	// latency above TCP latency on most systems, so this is often the
	// larger number.
	UDPStackUS float64
	// ChecksumMBs is the software checksumming rate; 0 means checksums
	// are free (hardware assist, e.g. SGI's Hippi interface).
	ChecksumMBs float64
	// DriverUS is the network-interface driver cost per packet.
	DriverUS float64
	// LoopbackOptimized marks stacks that skip checksum and driver on
	// loopback.
	LoopbackOptimized bool
	// RPCExtraUS is the extra round-trip cost added by the RPC layer
	// over TCP ("the RPC layer frequently adds hundreds of
	// microseconds").
	RPCExtraUS float64
	// RPCExtraUDPUS is the RPC layer's extra cost over UDP; defaults
	// to RPCExtraUS.
	RPCExtraUDPUS float64
	// ConnectExtraUS is connection-establishment work beyond the
	// handshake packets (port lookup, PCB setup).
	ConnectExtraUS float64
	// MTU is the packet size for driver accounting (default 1500).
	MTU int
	// SocketBufBytes is the socket buffer size for bandwidth transfers
	// (default 1M: "the send and receive socket buffers are enlarged
	// to 1M" and "setting the transfer size equal to the socket buffer
	// size produces the greatest throughput").
	SocketBufBytes int
}

func (c Config) withDefaults() Config {
	if c.TCPStackUS <= 0 {
		c.TCPStackUS = 50
	}
	if c.UDPStackUS <= 0 {
		c.UDPStackUS = c.TCPStackUS
	}
	if c.RPCExtraUDPUS <= 0 {
		c.RPCExtraUDPUS = c.RPCExtraUS
	}
	if c.MTU <= 0 {
		c.MTU = 1500
	}
	if c.SocketBufBytes <= 0 {
		c.SocketBufBytes = 1 << 20
	}
	return c
}

// Medium is a physical network for the remote experiments.
type Medium struct {
	// Name is e.g. "10baseT", "100baseT", "fddi", "hippi".
	Name string
	// MBs is the raw wire bandwidth in MB/s.
	MBs float64
	// LatencyUS is the fixed one-way wire+PHY latency for a small
	// packet (the paper: ~65us each way on 10Mbit ethernet; 13us for
	// 100baseT/FDDI; <10us for Hippi).
	LatencyUS float64
	// PacketBytes is the medium's maximum packet size (FDDI packets
	// are "almost three times larger" than ethernet's).
	PacketBytes int
}

// Standard media with the paper's round numbers.
var (
	Ether10  = Medium{Name: "10baseT", MBs: 1.25, LatencyUS: 65, PacketBytes: 1500}
	Ether100 = Medium{Name: "100baseT", MBs: 12.5, LatencyUS: 13, PacketBytes: 1500}
	FDDI     = Medium{Name: "fddi", MBs: 12.5, LatencyUS: 13, PacketBytes: 4352}
	Hippi    = Medium{Name: "hippi", MBs: 100, LatencyUS: 8, PacketBytes: 65280}
)

// Net is the simulated network stack of one machine.
type Net struct {
	o   *simos.OS
	cfg Config

	kbuf    uint64 // socket buffer
	scratch uint64 // small-message scratch

	tcpStack    ptime.Duration
	udpStack    ptime.Duration
	driver      ptime.Duration
	rpcExtra    ptime.Duration
	rpcExtraUDP ptime.Duration
	connExtra   ptime.Duration
}

// New builds a stack over the given OS.
func New(o *simos.OS, cfg Config) *Net {
	cfg = cfg.withDefaults()
	return &Net{
		o:           o,
		cfg:         cfg,
		kbuf:        o.Mem().Alloc(int64(cfg.SocketBufBytes)),
		scratch:     o.Mem().Alloc(4096),
		tcpStack:    ptime.FromUS(cfg.TCPStackUS),
		udpStack:    ptime.FromUS(cfg.UDPStackUS),
		driver:      ptime.FromUS(cfg.DriverUS),
		rpcExtra:    ptime.FromUS(cfg.RPCExtraUS),
		rpcExtraUDP: ptime.FromUS(cfg.RPCExtraUDPUS),
		connExtra:   ptime.FromUS(cfg.ConnectExtraUS),
	}
}

// Config returns the defaulted configuration.
func (n *Net) Config() Config { return n.cfg }

func (n *Net) advance(d ptime.Duration) { n.o.Mem().ClockHandle().Advance(d) }

// checksumTime returns the software checksum cost for nbytes, zero when
// hardware assists or loopback optimization applies.
func (n *Net) checksumTime(nbytes int64, loopback bool) ptime.Duration {
	if n.cfg.ChecksumMBs <= 0 {
		return 0
	}
	if loopback && n.cfg.LoopbackOptimized {
		return 0
	}
	return ptime.FromNS(float64(nbytes) / (n.cfg.ChecksumMBs * 1e6) * 1e9)
}

// driverTime returns the per-packet driver cost for nbytes split into
// packets of the given size; zero on optimized loopback.
func (n *Net) driverTime(nbytes int64, pktSize int, loopback bool) ptime.Duration {
	if loopback && n.cfg.LoopbackOptimized {
		return 0
	}
	if pktSize <= 0 {
		pktSize = n.cfg.MTU
	}
	pkts := (nbytes + int64(pktSize) - 1) / int64(pktSize)
	return n.driver.Mul(pkts)
}

// TCPSendLocal charges one loopback TCP transfer of nbytes from the
// sender's buffer at src to the receiver's buffer at dst, including the
// receive side: write syscall, copy to socket buffer, checksum, driver,
// context switch, read syscall, checksum, copy out.
func (n *Net) TCPSendLocal(src, dst uint64, nbytes int64) error {
	return n.sendLocal(src, dst, nbytes, n.tcpStack)
}

// UDPSendLocal is TCPSendLocal over the UDP path.
func (n *Net) UDPSendLocal(src, dst uint64, nbytes int64) error {
	return n.sendLocal(src, dst, nbytes, n.udpStack)
}

func (n *Net) sendLocal(src, dst uint64, nbytes int64, stack ptime.Duration) error {
	if nbytes <= 0 {
		return errors.New("simnet: transfer needs positive size")
	}
	mem := n.o.Mem()
	// Repeated identical transfers are charged from the hierarchy's pass
	// memo; the stack cost tells the TCP and UDP paths apart.
	key := simmem.Key{Owner: n, Args: [6]uint64{src, dst, uint64(nbytes), uint64(stack)}}
	mem.Repeat(key, 4*nbytes, func() {
		buf := int64(n.cfg.SocketBufBytes)
		for off := int64(0); off < nbytes; off += buf {
			chunk := buf
			if rem := nbytes - off; rem < chunk {
				chunk = rem
			}
			// Sender.
			n.o.Syscall()
			n.advance(stack)
			mem.StreamCopy(src+uint64(off), n.kbuf, chunk)
			n.advance(n.checksumTime(chunk, true))
			n.advance(n.driverTime(chunk, 0, true))
			n.o.ContextSwitch()
			// Receiver.
			n.o.Syscall()
			n.advance(stack)
			n.advance(n.checksumTime(chunk, true))
			mem.StreamCopy(n.kbuf, dst+uint64(off), chunk)
		}
	})
	return nil
}

// onewaySmall charges one direction of a small (one-word) loopback
// message: syscall, stack, driver, context switch to the peer, its read
// syscall. Checksum on a word is negligible and omitted.
func (n *Net) onewaySmall(stack ptime.Duration) {
	n.o.Syscall()
	n.advance(stack)
	n.advance(n.driverTime(64, 0, true))
	n.o.ContextSwitch()
	n.o.Syscall()
	n.advance(stack)
}

// TCPRoundTripLocal charges one Table-12 round trip: "The two processes
// then exchange a word between them in a loop."
func (n *Net) TCPRoundTripLocal() {
	n.onewaySmall(n.tcpStack)
	n.onewaySmall(n.tcpStack)
}

// UDPRoundTripLocal charges one Table-13 round trip.
func (n *Net) UDPRoundTripLocal() {
	n.onewaySmall(n.udpStack)
	n.onewaySmall(n.udpStack)
}

// RPCTCPRoundTripLocal charges a Table-12 RPC/TCP round trip: the TCP
// round trip plus the RPC layer's connection management, XDR dispatch
// and procedure-call abstraction ("There is no justification for the
// extra cost; it is simply an expensive implementation").
func (n *Net) RPCTCPRoundTripLocal() {
	n.TCPRoundTripLocal()
	n.advance(n.rpcExtra)
}

// RPCUDPRoundTripLocal charges a Table-13 RPC/UDP round trip.
func (n *Net) RPCUDPRoundTripLocal() {
	n.UDPRoundTripLocal()
	n.advance(n.rpcExtraUDP)
}

// TCPConnectLocal charges one Table-15 connection: two of the three
// handshake packets are on the measured path ("The time measured will
// include two of the three packets that make up the three way TCP
// handshake"), plus PCB/port setup, plus the close.
func (n *Net) TCPConnectLocal() {
	n.advance(n.connExtra)
	n.onewaySmall(n.tcpStack) // SYN
	n.onewaySmall(n.tcpStack) // SYN|ACK
	n.o.Syscall()             // close
}

// RoundTripRemote charges a Table-14 round trip over medium m: the
// local software path on both hosts plus the wire time each way.
// Loopback eliminations do not apply on a real wire.
func (n *Net) RoundTripRemote(m Medium, udp bool) {
	stack := n.tcpStack
	if udp {
		stack = n.udpStack
	}
	const word = 64
	wire := ptime.FromUS(m.LatencyUS)
	for i := 0; i < 2; i++ { // two directions
		n.o.Syscall()
		n.advance(stack)
		n.advance(n.checksumTime(word, false))
		n.advance(n.driverTime(word, m.PacketBytes, false))
		n.advance(wire)
		// Remote host's receive+send processing.
		n.o.Syscall()
		n.advance(stack)
	}
}

// TCPSendRemote charges one TCP transfer of nbytes over medium m. Wire
// transmission and host processing are pipelined, so the charge is the
// maximum of the wire time and the software time, plus one wire
// latency.
func (n *Net) TCPSendRemote(m Medium, src uint64, nbytes int64) error {
	if nbytes <= 0 {
		return errors.New("simnet: transfer needs positive size")
	}
	mem := n.o.Mem()
	clk := mem.ClockHandle()

	// Software side: measure its cost by running it against the clock,
	// then roll in the wire overlap by topping up to the wire time.
	start := clk.Now()
	buf := int64(n.cfg.SocketBufBytes)
	for off := int64(0); off < nbytes; off += buf {
		chunk := buf
		if rem := nbytes - off; rem < chunk {
			chunk = rem
		}
		n.o.Syscall()
		n.advance(n.tcpStack)
		mem.StreamCopy(src+uint64(off), n.kbuf, chunk)
		n.advance(n.checksumTime(chunk, false))
		n.advance(n.driverTime(chunk, m.PacketBytes, false))
	}
	software := clk.Now() - start
	wire := ptime.FromNS(float64(nbytes) / (m.MBs * 1e6) * 1e9)
	if wire > software {
		clk.Advance(wire - software)
	}
	clk.Advance(ptime.FromUS(m.LatencyUS))
	return nil
}
