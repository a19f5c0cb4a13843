package model

import "madeleine2/internal/vclock"

// Calibration constants. Each constant cites the measurement in the paper it
// was fit against. The hosts are dual Pentium II 450 MHz nodes with a 33 MHz
// 32-bit PCI bus running Linux 2.2.13 (paper §5.1 and §6.2).
//
// A note on the BIP long-message fixed cost: the paper reports a pure
// Madeleine II ping-pong of 47 MB/s at 8 kB and ≈60 MB/s / ≈250 µs at 16 kB
// over BIP, with 122 MB/s asymptotic (§5.2.2, §6.2.1, §6.2.2). Those points
// imply a ≈100 µs per-message cost on the long path (rendezvous round-trip,
// LANai DMA startup, per-message host processing); we attribute it to the
// driver's long-message machinery.

// --- BIP / Myrinet (LANai 4.3, 32-bit bus, 1 MB SRAM) ---

// BIPShortMax is the exclusive upper bound of BIP short messages: messages
// under 1 kB are copied into preallocated receive buffers (§5.2.2).
const BIPShortMax = 1024

// BIPShortCredits is the number of preallocated short-message receive
// buffers per connection; the short TM runs credit-based flow control over
// them (§5.2.2).
const BIPShortCredits = 16

// BIPShort: raw BIP short-message path. Anchor: 5 µs raw minimal latency
// (§5.2.2). The byte rate is the host-copy rate through the LANai SRAM.
var BIPShort = Link{Name: "bip-short", Fixed: vclock.Micros(5), Bandwidth: 70, Kind: DMA}

// BIPLong: raw BIP long-message rendezvous path. Anchors: 126 MB/s raw
// asymptote; Madeleine delivers 47 MB/s at 8 kB and ≈60 MB/s at 16 kB.
// The rendezvous control round-trip is implemented explicitly by the driver
// (two BIPControl messages); the fixed cost here is the remaining DMA
// setup + interrupt cost.
var BIPLong = Link{Name: "bip-long", Fixed: vclock.Micros(90), Bandwidth: 126, Kind: DMA}

// BIPControl: the rendezvous request/ready control messages (header-sized).
var BIPControl = Link{Name: "bip-ctrl", Fixed: vclock.Micros(5), Bandwidth: 70, Kind: DMA}

// --- SISCI / SCI (Dolphin D310) ---

// SISCIShortMax is the exclusive upper bound of the short-message TM, a PIO
// path "specifically optimized for short message transfer" (§5.2.1).
const SISCIShortMax = 256

// SISCIDualMin is the size from which the regular SISCI TM switches to the
// adaptive dual-buffering algorithm: "activated for data blocks larger than
// 8 kB" (§5.2.1).
const SISCIDualMin = 8 * 1024

// SISCIShort: optimized short-message PIO path. Anchor: Madeleine II minimal
// latency 3.9 µs (§5.2.1); Madeleine adds ≈1 µs on top of this raw cost.
var SISCIShort = Link{Name: "sisci-short", Fixed: vclock.Micros(2.9), Bandwidth: 50, Kind: PIO}

// SISCIPIO: regular single-buffer PIO path for mid-size messages.
var SISCIPIO = Link{Name: "sisci-pio", Fixed: vclock.Micros(5), Bandwidth: 55, Kind: PIO}

// SISCIDual: PIO path with the adaptive dual-buffering algorithm. Anchors:
// 82 MB/s asymptote (§5.2.1) and 58 MB/s at 8 kB (§6.2.2). The fixed cost is
// the pipeline fill of the two staging buffers.
var SISCIDual = Link{Name: "sisci-dual", Fixed: vclock.Micros(40), Bandwidth: 82, Kind: PIO}

// SISCIDMA: the SCI DMA mode. Anchor: "we have not been able to get more
// than 35 MB/s with Dolphin SCI D310 NICs" (§5.2.1) — which is why the DMA
// TM exists but is not active by default.
var SISCIDMA = Link{Name: "sisci-dma", Fixed: vclock.Micros(30), Bandwidth: 35, Kind: DMA}

// --- TCP over Fast Ethernet ---

// TCPFE: kernel TCP over 100 Mb/s Fast Ethernet, used by the Nexus
// comparison (Fig. 7) and by the forwarding experiment's acknowledgment
// path (§6.2).
var TCPFE = Link{Name: "tcp-fe", Fixed: vclock.Micros(60), Bandwidth: 11.5, Kind: DMA}

// --- VIA ---

// VIAShortMax is the cutoff under which the VIA PMM copies into
// pre-registered descriptors instead of registering user memory.
const VIAShortMax = 2048

// VIASend: VIA descriptor-queue send/receive path (era-typical M-VIA class
// numbers; VIA appears in the paper as a supported interface, not a figure).
var VIASend = Link{Name: "via-send", Fixed: vclock.Micros(9), Bandwidth: 95, Kind: DMA}

// VIARDMA: VIA RDMA-write path for pre-registered large buffers.
var VIARDMA = Link{Name: "via-rdma", Fixed: vclock.Micros(14), Bandwidth: 105, Kind: DMA}

// VIARegister is the per-page memory-registration cost paid when a large
// user buffer must be pinned on the fly: on a miss of the connection
// direction's kept registration, not again for a block from memory it
// already covers.
var VIARegister = vclock.Micros(12)

// VIAPageSize is the registration granularity.
const VIAPageSize = 4096

// --- RDMA (one-sided verbs-style fabric) ---
//
// The RDMA driver models an InfiniBand-class one-sided fabric in the style
// of MPICH2-over-InfiniBand: RDMA-write eager into pre-registered bounce
// buffers for small messages, rendezvous zero-copy above a crossover.
// Numbers are era-plausible 4X-IB-class figures scaled to the PII-450/PCI
// testbed frame of the rest of the calibration.

// RDMAEagerMax is the eager protocol's bounce-buffer slot size: blocks
// up to this size are copied into one pre-registered slot and
// RDMA-written in one shot; larger eager traffic (EXPRESS blocks of any
// size) is chunked slot by slot.
const RDMAEagerMax = 4096

// RDMACrossover is where the Switch module hands non-EXPRESS blocks from
// eager to rendezvous. It is the calibrated intersection of the two cost
// lines: eager pays ~9.3 µs fixed plus ~14.9 ns/B (two bounce copies at
// MadCopyBandwidth plus the wire), rendezvous on a kept registration pays
// the ~32.6 µs RTS/CTS handshake plus ~3.2 ns/B zero-copy wire time —
// equal near 2.0 kB. The bandwidth sweep has no 2 kB point: eager wins at
// its 1 KiB point and rendezvous at its 4 KiB point, so either side of the
// constant wins its whole half of the sweep cleanly.
const RDMACrossover = 2048

// RDMAEagerSlots is the number of bounce-buffer slots per direction; the
// eager TM runs credit-based flow control over them.
const RDMAEagerSlots = 8

// RDMAWrite: the one-sided RDMA-write data path into a registered remote
// region. The fixed cost is the doorbell + WQE processing on the initiator.
var RDMAWrite = Link{Name: "rdma-write", Fixed: vclock.Micros(6), Bandwidth: 300, Kind: DMA}

// RDMACtrl: small control frames (RTS/CTS/FIN and eager credits) sent as
// RDMA writes into a dedicated control ring.
var RDMACtrl = Link{Name: "rdma-ctrl", Fixed: vclock.Micros(8), Bandwidth: 300, Kind: DMA}

// RDMARegister is the per-page cost of pinning and key-exchanging a user
// region, paid by the rendezvous receiver when it registers the
// destination on the fly: on a miss of the direction's kept registration,
// not again for a block into memory it already covers.
var RDMARegister = vclock.Micros(2)

// RDMAPageSize is the registration granularity.
const RDMAPageSize = 4096

// --- SBP (static-buffer kernel protocol, cited in §6.1) ---

// SBPBufSize is the size of SBP's kernel-provided static buffers.
const SBPBufSize = 32 * 1024

// SBP: a kernel protocol that requires data to be written into specific
// (static) buffers before sending; both ends are static. Used to exercise
// the forwarding layer's copy-avoidance matrix (§6.1).
var SBP = Link{Name: "sbp", Fixed: vclock.Micros(25), Bandwidth: 40, Kind: DMA}

// --- Madeleine II library overheads ---

// MadPackCost is the per-block library cost on the sending side (switch
// step, BMM handling). Together with MadUnpackCost it accounts for the
// 5 µs → 7 µs (BIP) and 2.9 µs → 3.9 µs (SISCI) raw-to-Madeleine latency
// deltas in §5.2.
var MadPackCost = vclock.Micros(0.5)

// MadUnpackCost is the per-block library cost on the receiving side.
var MadUnpackCost = vclock.Micros(0.5)

// MadCopyBandwidth is the host memcpy rate used when a BMM copies user data
// into or out of static buffers (PII-450 era copy bandwidth).
const MadCopyBandwidth = 180.0

// --- Gateway / forwarding (§6) ---

// GatewayStepOverhead is the software cost of one forwarding-pipeline step
// on the gateway: the two threads' buffer exchange plus packet-header
// processing. The paper infers ≈50 µs per step from the 8 kB measurement
// (§6.2.2: 215 µs observed period vs ≈166 µs ideal).
var GatewayStepOverhead = vclock.Micros(50)

// DefaultMTU is the compile-time packet size the paper suggests from the
// §6.2.1 analysis: both networks transfer 16 kB in ≈250 µs at ≈60 MB/s.
const DefaultMTU = 16 * 1024

// FwdAckCost is the small acknowledgment returned over Fast Ethernet in the
// forwarding ping experiment (§6.2); its known latency is subtracted by the
// harness exactly as the authors did.
var FwdAckCost = TCPFE.Time(16)

// --- Host PCI bus (33 MHz, 32-bit) ---

// DefaultPCI models the gateway's host bus. Anchors:
//   - "theoretical maximum ... single 33 MHz PCI bus is 66 MB/s" one-way
//     (§6.2.2) with ≈60 MB/s practical one-way streaming;
//   - full-duplex aggregate practical capacity ≈100 MB/s, which yields the
//     ≈49.5 MB/s Fig. 10 asymptote;
//   - Myrinet DMA priority slows concurrent SCI PIO by ≈2.25×, which yields
//     the ≈29 MB/s / ≤36.5 MB/s Fig. 11 numbers.
func DefaultPCI() *PCIBus {
	return &PCIBus{
		AggregateCap: 100, // MB/s, both directions combined, practical
		OneWayCap:    60,  // MB/s, single stream, practical
		PIOPenalty:   2.25,
	}
}
