// Package nic models the cluster's RDMA-capable network adapters
// (Mellanox ConnectX-3 FDR, 56 Gb/s) and the three access protocols the
// paper evaluates (Table 5): NDSPI RDMA verbs ("Custom"), SMB Direct, and
// SMB over TCP/IP. The models charge virtual time; payload bytes are
// moved by the rmem layer with ordinary Go copies.
//
// Calibration targets (Figures 3 and 4, idle remote server):
//
//	8 KiB random reads, 20 threads:
//	  Custom 4.27 GB/s @ 36 µs, SMBDirect 1.36 GB/s @ 109 µs, SMB 0.64 GB/s @ 236 µs
//	512 KiB sequential reads, 5 threads:
//	  Custom 5.1 GB/s @ 487 µs, SMBDirect 5.09 GB/s @ 488 µs, SMB 3.36 GB/s @ 723 µs
package nic

import (
	"time"

	"remotedb/internal/sim"
)

// Config parameterizes a NIC.
type Config struct {
	PayloadBytesPerSec float64       // effective RDMA payload bandwidth per direction
	TCPBytesPerSec     float64       // effective TCP-path bandwidth (kernel copies, protocol)
	BaseLatency        time.Duration // propagation + switch + DMA setup, one way
	PerOpOverheadBytes int           // headers/acks charged per message
}

// DefaultConfig matches the paper's FDR Infiniband fabric.
func DefaultConfig() Config {
	return Config{
		PayloadBytesPerSec: 5.1e9,
		TCPBytesPerSec:     3.4e9,
		BaseLatency:        2 * time.Microsecond,
		PerOpOverheadBytes: 1500,
	}
}

// NIC is one server's network adapter: full-duplex, with separate send
// and receive bandwidth regulators, plus a TCP-stack regulator modelling
// the kernel copy path that SMB-over-TCP traffic must additionally cross.
type NIC struct {
	k        *sim.Kernel
	tx, rx   *sim.Regulator
	tcpStack *sim.Regulator
	cfg      Config

	Ops       int64
	BytesSent int64
	BytesRecv int64
}

// New creates a NIC.
func New(k *sim.Kernel, name string, cfg Config) *NIC {
	return &NIC{
		k:        k,
		tx:       sim.NewRegulator(k, name+"/tx", cfg.PayloadBytesPerSec),
		rx:       sim.NewRegulator(k, name+"/rx", cfg.PayloadBytesPerSec),
		tcpStack: sim.NewRegulator(k, name+"/tcp", cfg.TCPBytesPerSec),
		cfg:      cfg,
	}
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Wire charges the time to move size payload bytes from src to dst over
// the RDMA path: the transfer occupies src's send side and dst's receive
// side (FIFO per NIC port) and adds the one-way base latency. The caller
// sleeps until the transfer completes.
func Wire(p *sim.Proc, src, dst *NIC, size int) {
	total := size + src.cfg.PerOpOverheadBytes
	txDone := src.tx.Reserve(total)
	rxDone := dst.rx.Reserve(total)
	// The slower of the two ports governs (cut-through switching);
	// propagation adds the base latency.
	done := txDone
	if rxDone > done {
		done = rxDone
	}
	done += src.cfg.BaseLatency
	src.Ops++
	src.BytesSent += int64(size)
	dst.BytesRecv += int64(size)
	p.SleepUntil(done)
}

// WireTCP is Wire for the TCP path: the payload additionally crosses both
// endpoints' kernel TCP stacks, which are slower than the fabric.
func WireTCP(p *sim.Proc, src, dst *NIC, size int) {
	total := size + src.cfg.PerOpOverheadBytes
	txDone := src.tx.Reserve(total)
	rxDone := dst.rx.Reserve(total)
	sDone := src.tcpStack.Reserve(total)
	dDone := dst.tcpStack.Reserve(total)
	done := txDone
	for _, d := range []time.Duration{rxDone, sDone, dDone} {
		if d > done {
			done = d
		}
	}
	done += src.cfg.BaseLatency
	src.Ops++
	src.BytesSent += int64(size)
	dst.BytesRecv += int64(size)
	p.SleepUntil(done)
}

// Protocol identifies the remote-memory access protocol (Table 5).
type Protocol int

const (
	// ProtoRDMA is the paper's Custom design: NDSPI RDMA verbs with
	// preregistered staging buffers and synchronous (spinning) completion.
	ProtoRDMA Protocol = iota
	// ProtoSMBDirect is SMB 3.0 over RDMA to a RamDrive: RDMA transfers,
	// but file-server processing on the remote CPU and asynchronous I/O
	// completion on the client.
	ProtoSMBDirect
	// ProtoSMB is SMB over TCP/IP to a RamDrive: remote CPU does protocol
	// processing and kernel copies on every transfer.
	ProtoSMB
)

// String returns the design name the paper uses for the protocol.
func (pr Protocol) String() string {
	switch pr {
	case ProtoRDMA:
		return "Custom"
	case ProtoSMBDirect:
		return "SMBDirect+RamDrive"
	case ProtoSMB:
		return "SMB+RamDrive"
	}
	return "unknown"
}

// Profile captures a protocol's per-operation costs beyond the wire.
type Profile struct {
	// ClientPost is CPU time spent issuing the request on the client.
	ClientPost time.Duration
	// ServerWorkers bounds concurrent server-side protocol processing.
	ServerWorkers int
	// ServerService is per-op server-side processing time (charged to the
	// remote server's CPU for TCP; to the file-server stage otherwise).
	ServerService time.Duration
	// ServerCPUCharge is the remote CPU time consumed per op, the quantity
	// that produces Figure 13's ~10% degradation for TCP and ~0 for RDMA.
	ServerCPUCharge time.Duration
	// AsyncCompletion is true when the client treats the I/O as
	// asynchronous (context switch + reschedule to observe completion).
	AsyncCompletion bool
	// TCPPath routes the payload through WireTCP.
	TCPPath bool
}

// ProfileFor returns the calibrated cost profile for a protocol.
func ProfileFor(pr Protocol) Profile {
	switch pr {
	case ProtoRDMA:
		return Profile{
			ClientPost:    300 * time.Nanosecond,
			ServerWorkers: 0, // no server involvement
		}
	case ProtoSMBDirect:
		return Profile{
			ClientPost:      2 * time.Microsecond,
			ServerWorkers:   4,
			ServerService:   22 * time.Microsecond,
			ServerCPUCharge: 10 * time.Microsecond,
			AsyncCompletion: true,
		}
	case ProtoSMB:
		return Profile{
			ClientPost:      10 * time.Microsecond,
			ServerWorkers:   4,
			ServerService:   50 * time.Microsecond,
			ServerCPUCharge: 50 * time.Microsecond,
			AsyncCompletion: true,
			TCPPath:         true,
		}
	}
	panic("nic: unknown protocol")
}

// Registration and copy costs from Section 4 of the paper: registering an
// 8 K page costs ~50 µs; a staging memcpy of the same page costs ~2 µs.
const (
	// RegisterBase is the fixed kernel/driver cost of one MR registration.
	RegisterBase = 45 * time.Microsecond
	// RegisterPerKiB is the added pinning cost per KiB registered.
	RegisterPerKiB = 600 * time.Nanosecond
	// MemcpyBase is the fixed cost of a staging copy.
	MemcpyBase = 500 * time.Nanosecond
	// MemcpyBytesPerSec is the staging copy bandwidth.
	MemcpyBytesPerSec = 4e9
)

// RegisterCost returns the time to register an MR of size bytes.
func RegisterCost(size int) time.Duration {
	return RegisterBase + time.Duration(size/1024)*RegisterPerKiB
}

// MemcpyCost returns the time for a staging copy of size bytes.
func MemcpyCost(size int) time.Duration {
	return MemcpyBase + time.Duration(float64(size)/MemcpyBytesPerSec*1e9)
}
