package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"madeleine2/internal/metrics"
	"madeleine2/internal/model"
	"madeleine2/internal/rdma"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// rdmaPMM is the one-sided RDMA protocol module, following the
// MPICH2-over-InfiniBand design the ROADMAP cites: every transfer is an
// RDMA write into memory the receiver registered in advance, and the
// Switch module picks between two transmission modules per block —
// exactly the paper's per-block mode decision, but over a genuinely
// one-sided cost model:
//
//   - rdma-eager: blocks up to RDMAEagerMax are copied into a
//     pre-registered bounce buffer (the copy is charged at host memcpy
//     rate — it is the protocol's whole cost above the wire) and
//     RDMA-written into a slot of the receiver's pre-registered eager
//     ring; credit frames flow back as slots are consumed.
//   - rdma-rdv: rendezvous zero-copy. The sender announces the block
//     (RTS), the receiver registers the actual destination buffer (or
//     finds it still registered from the direction's last block) and
//     answers CTS, and the sender RDMA-writes the payload straight into
//     the destination — no copy on either host, at the price of a
//     control round trip and, on a miss, the registration cost. A FIN
//     frame carries the payload checksum; the receiver verdicts ACK/NACK
//     and a NACK retransmits, so a hostile fabric surfaces as counted
//     retransmits, never a torn destination handed to the application.
//
// Control-frame integrity contract. RTS/CTS/FIN frames are padded to 64
// bytes — at or above simnet.DefaultFaultMinBytes, so fault plans strike
// them like any payload. Each carries a self-checksum; and because pack
// and unpack sequences are strictly symmetric (§2.2), every field of
// RTS and CTS is recomputable by its consumer (sizes from the local
// pack/unpack call, sequence numbers from the connection counters, the
// destination key from the deterministic key schedule). A damaged RTS
// or CTS is therefore counted and interpreted by protocol position — it
// is a doorbell whose content the consumer already knows. FIN's payload
// checksum is NOT recomputable, so a damaged FIN is treated as a
// payload-suspect NACK. Verdict and credit frames are 16 bytes, below
// the default fault floor: like the fwd layer's header-only control
// frames they are reliable by construction, and the module's contract
// is fault plans with MinBytes > 16 (the fwd reliable mode owns the
// regime below that).
type rdmaPMM struct {
	hca    *rdma.HCA
	chanID int
	force  string // "", "eager" or "rdv": pin Select to one TM
	eager  TM
	rdv    TM

	// rdma/ctrl-damaged, rdma/rdv-retransmit, rdma/rdv-nack
	ctrlDamaged, rdvRetransmit, rdvNack *metrics.Counter
}

func (p *rdmaPMM) bindMetrics(reg *metrics.Registry) {
	p.ctrlDamaged = reg.Counter("rdma/ctrl-damaged")
	p.rdvRetransmit = reg.Counter("rdma/rdv-retransmit")
	p.rdvNack = reg.Counter("rdma/rdv-nack")
}

const (
	rdmaCtrlSlots   = 32 // frames per control ring
	rdmaFrameSize   = 64 // RTS/CTS/FIN wire size (strike-eligible)
	rdmaVerdictSize = 16 // verdict/credit wire size (below the fault floor)
	rdmaRdvRounds   = 16 // retransmit bound per rendezvous block
)

// Control frame kinds.
const (
	rdmaRTS    = byte(1)
	rdmaCTS    = byte(2)
	rdmaFIN    = byte(3)
	rdmaACK    = byte(4)
	rdmaNACK   = byte(5)
	rdmaCredit = byte(6)
)

// Region kinds of the deterministic key schedule.
const (
	rdmaKeyEager  = iota // eager ring, registered by the data receiver
	rdmaKeyCtrl          // RTS/FIN ring, registered by the data receiver
	rdmaKeyResp          // CTS/verdict/credit ring, registered by the data sender
	rdmaKeyRdvDst        // rendezvous destination, kept until a block misses it
)

func newRDMAPMM(node *simnet.Node, adapter, chanID int, force string) (PMM, error) {
	hca, err := rdma.Attach(node, adapter)
	if err != nil {
		return nil, err
	}
	p := &rdmaPMM{hca: hca, chanID: chanID, force: force}
	p.eager = NewStaticTM(&rdmaEager{p})
	p.rdv = NewDynamicTM(&rdmaRdv{p})
	return p, nil
}

func (p *rdmaPMM) Name() string {
	if p.force != "" {
		return "rdma-" + p.force
	}
	return "rdma"
}

func (p *rdmaPMM) TMs() []TM { return []TM{p.eager, p.rdv} }

func (p *rdmaPMM) Select(n int, sm SendMode, rm RecvMode) TM {
	switch p.force {
	case "eager":
		return p.eager
	case "rdv":
		return p.rdv
	}
	// EXPRESS blocks must complete at Unpack, which the eager path does
	// with one one-sided write per slot; rendezvous pays its handshake
	// only past the calibrated crossover, where zero-copy wins.
	if rm == ReceiveExpress || n <= model.RDMACrossover {
		return p.eager
	}
	return p.rdv
}

// rdmaKey is the deterministic key schedule: both ends of a connection
// derive the same key for each ring, so control frames never need to
// carry keys (which is what lets a damaged CTS still be usable as a
// doorbell). dir is 0 for data flowing lo→hi, 1 for hi→lo.
func (p *rdmaPMM) rdmaKey(a, b, dir, kind int) uint32 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint32((((p.chanID*64+lo)*64+hi)*2+dir)*4 + kind)
}

// connKeys resolves the key schedule from one end's perspective.
func (p *rdmaPMM) connKeys(cs *ConnState) (out, in struct{ eager, ctrl, resp, rdvDst uint32 }) {
	l, r := cs.Local(), cs.Remote()
	dirOut, dirIn := 0, 1
	if l > r {
		dirOut, dirIn = 1, 0
	}
	out.eager = p.rdmaKey(l, r, dirOut, rdmaKeyEager)
	out.ctrl = p.rdmaKey(l, r, dirOut, rdmaKeyCtrl)
	out.resp = p.rdmaKey(l, r, dirOut, rdmaKeyResp)
	out.rdvDst = p.rdmaKey(l, r, dirOut, rdmaKeyRdvDst)
	in.eager = p.rdmaKey(l, r, dirIn, rdmaKeyEager)
	in.ctrl = p.rdmaKey(l, r, dirIn, rdmaKeyCtrl)
	in.resp = p.rdmaKey(l, r, dirIn, rdmaKeyResp)
	in.rdvDst = p.rdmaKey(l, r, dirIn, rdmaKeyRdvDst)
	return out, in
}

// rdmaConn is the per-connection state, partitioned by direction per the
// DriverDef ownership contract: everything below "send path" is touched
// only under the send lease, everything below "receive path" only under
// the receive lease. The endpoint and the registered rings are safe for
// concurrent use.
type rdmaConn struct {
	ep *rdma.EP

	// Regions this node registered (it is written into by the peer).
	eagerIn *rdma.MemRegion // slots of incoming eager data
	ctrlIn  *rdma.MemRegion // incoming RTS/FIN frames
	respIn  *rdma.MemRegion // incoming CTS/verdict/credit frames

	// Keys of the peer's mirror regions (where this node writes).
	peerEager  uint32
	peerCtrl   uint32
	peerResp   uint32
	peerRdvDst uint32
	// Key under which the receive path registers rendezvous destinations.
	ownRdvDst uint32

	// send path
	eagerSeq uint32 // next eager slot sequence
	ctrlNext int    // next slot in the peer's ctrl ring
	rdvSend  uint32 // next rendezvous sequence (outbound)

	// receive path
	respNext int             // next slot in the peer's resp ring
	rdvRecv  uint32          // next rendezvous sequence (inbound)
	rdvDst   *rdma.MemRegion // kept rendezvous destination, under ownRdvDst

	// The credit window over the peer's eager ring, split the same way.
	slots *creditWindow

	ctrlFrame, respFrame [rdmaFrameSize]byte // outgoing control frames (writeFrame)
}

func (p *rdmaPMM) PreConnect(cs *ConnState) error {
	st := &rdmaConn{slots: newCreditWindow(model.RDMAEagerSlots)}
	l, r := cs.Local(), cs.Remote()
	out, in := p.connKeys(cs)
	// Outbound data targets the peer's inbound rings (keyed, like this
	// node's own, by the direction of the data they carry); the receive
	// path's answers (CTS/verdicts/credits) target the ring the peer
	// registered for ITS outbound data — the inbound direction here.
	st.peerEager, st.peerCtrl, st.peerRdvDst = out.eager, out.ctrl, out.rdvDst
	st.peerResp = in.resp
	st.ownRdvDst = in.rdvDst
	// Channels bind the same adapter index on every member node (see the
	// VIA PMM); multi-rail channels open one ring set per rail adapter.
	st.ep = p.hca.Dial(r, p.hca.Index())
	// The long-lived rings are registered at configuration time, so their
	// pinning cost is not charged to any message actor.
	setup := vclock.NewActor(fmt.Sprintf("rdma-setup-%d-%d", l, r))
	var err error
	if st.eagerIn, err = p.hca.Register(setup, in.eager, make([]byte, model.RDMAEagerSlots*model.RDMAEagerMax)); err != nil {
		return err
	}
	if st.ctrlIn, err = p.hca.Register(setup, in.ctrl, make([]byte, rdmaCtrlSlots*rdmaFrameSize)); err != nil {
		return err
	}
	// The resp ring carries answers to this node's *outbound* data, so it
	// is keyed by the outbound direction.
	if st.respIn, err = p.hca.Register(setup, out.resp, make([]byte, rdmaCtrlSlots*rdmaFrameSize)); err != nil {
		return err
	}
	cs.Priv = st
	return nil
}

func (p *rdmaPMM) Connect(cs *ConnState) error { return nil }

// rdmaRings is how many regions PreConnect registers per connection: the
// eager, ctrl and resp rings.
const rdmaRings = 3

func (p *rdmaPMM) pinned(conns []*ConnState, add func(string, int, int)) {
	held := 0
	for _, cs := range conns {
		held += rdmaRings
		if rdmaState(cs).rdvDst != nil {
			held++
		}
	}
	add(fmt.Sprintf("rdma node %d adapter %d", p.hca.Node(), p.hca.Index()), p.hca.Registered(), held)
}

func rdmaState(cs *ConnState) *rdmaConn { return cs.Priv.(*rdmaConn) }

// --- control frames ---

// A frame is 16 bytes of content: magic(2) kind(1) pad(1) seq(4) val(4)
// crc32-of-the-first-12(4). RTS/CTS/FIN are padded to rdmaFrameSize on
// the wire so fault plans strike them; verdicts and credits ship the bare
// 16 bytes. The decoder accepts exactly what the encoder writes: a zero
// pad byte included.
func rdmaEncodeFrame(dst []byte, kind byte, seq, val uint32) {
	dst[0], dst[1], dst[2], dst[3] = 0xAD, 0x02, kind, 0
	binary.LittleEndian.PutUint32(dst[4:], seq)
	binary.LittleEndian.PutUint32(dst[8:], val)
	binary.LittleEndian.PutUint32(dst[12:], crc32.ChecksumIEEE(dst[:12]))
}

func rdmaDecodeFrame(b []byte) (kind byte, seq, val uint32, valid bool) {
	if len(b) < 16 || b[0] != 0xAD || b[1] != 0x02 || b[3] != 0 {
		return 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(b[12:]) != crc32.ChecksumIEEE(b[:12]) {
		return 0, 0, 0, false
	}
	return b[2], binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:]), true
}

// writeFrame ships one control frame into slot of the peer ring at key.
func (p *rdmaPMM) writeFrame(a *vclock.Actor, st *rdmaConn, key uint32, slot int, kind byte, seq, val uint32, size int) error {
	// One block per target ring: RTS/FIN leave under the send lease,
	// CTS/verdicts/credits under the receive lease.
	buf := &st.ctrlFrame
	if key == st.peerResp {
		buf = &st.respFrame
	}
	rdmaEncodeFrame(buf[:], kind, seq, val)
	return st.write(a, key, (slot%rdmaCtrlSlots)*rdmaFrameSize, buf[:size], uint64(kind)<<32|uint64(seq), model.RDMACtrl)
}

// write posts one RDMA write and reaps its initiator-side completion at
// once. The PMM never waits on the send side (CTS, verdict and credit
// frames are its flow control), so an unreaped queue would grow by one
// entry per write for the life of the connection. Reaping with PollSend
// leaves the actor's clock alone, which WaitSend would not.
func (st *rdmaConn) write(a *vclock.Actor, key uint32, off int, data []byte, tag uint64, link model.Link) error {
	_, err := st.ep.Write(a, key, off, data, tag, link)
	if err == nil {
		st.ep.PollSend()
	}
	return err
}

// waitResp consumes the send path's answer ring until a frame of the
// wanted kind arrives and returns its value; credit grants that overtake
// a CTS or verdict go to the window on the way. For the
// 64-byte CTS a damaged frame is interpreted by position (its content is
// recomputable; see the module comment) and reported with valid=false;
// for 16-byte verdicts — reliable by contract — damage is a hard error.
func (p *rdmaPMM) waitResp(a *vclock.Actor, cs *ConnState, want byte, wantSeq uint32) (val uint32, valid bool, err error) {
	st := rdmaState(cs)
	for {
		c, werr := st.respIn.WaitWrite(a)
		if werr != nil {
			return 0, false, werr
		}
		kind, seq, v, ok := rdmaDecodeFrame(st.respIn.Bytes()[c.Off : c.Off+c.Len])
		if !ok {
			p.ctrlDamaged.Add(1)
			if want == rdmaCTS {
				return 0, false, nil // positionally, this is the CTS
			}
			return 0, false, fmt.Errorf("core: rdma verdict frame damaged on %s (fault plan below the 16-byte control floor?)", cs.ch.name)
		}
		if kind == rdmaCredit && want != rdmaCredit {
			st.slots.grant(int(v))
			continue
		}
		if kind == rdmaNACK && want == rdmaACK {
			return v, true, errRdmaNACK
		}
		if kind != want || (want != rdmaCredit && seq != wantSeq) {
			return 0, false, fmt.Errorf("core: rdma protocol desync on %s: frame kind %d seq %d (want %d/%d)",
				cs.ch.name, kind, seq, want, wantSeq)
		}
		return v, true, nil
	}
}

// errRdmaNACK is the sender-side signal that the receiver rejected a
// rendezvous round; it never escapes the TM.
var errRdmaNACK = fmt.Errorf("core: rdma rendezvous round rejected")

// waitCtrl consumes the receive path's RTS/FIN ring. A damaged frame is
// counted and reported with valid=false; the caller interprets it by
// protocol position.
func (p *rdmaPMM) waitCtrl(a *vclock.Actor, cs *ConnState, want byte, wantSeq uint32) (val uint32, valid bool, err error) {
	st := rdmaState(cs)
	c, werr := st.ctrlIn.WaitWrite(a)
	if werr != nil {
		return 0, false, werr
	}
	kind, seq, v, ok := rdmaDecodeFrame(st.ctrlIn.Bytes()[c.Off : c.Off+c.Len])
	if !ok {
		p.ctrlDamaged.Add(1)
		return 0, false, nil
	}
	if kind != want || seq != wantSeq {
		return 0, false, fmt.Errorf("core: rdma protocol desync on %s: frame kind %d seq %d (want %d/%d)",
			cs.ch.name, kind, seq, want, wantSeq)
	}
	return v, true, nil
}

// --- eager TM ---

// rdmaEager is the RDMA-write eager protocol: the static-copy BMM
// stages user data into bounce buffers and each slot is one one-sided
// write into the peer's eager ring. The bounce copies — free at the BMM
// layer, where static buffers model protocol-owned memory — are charged
// here at host memcpy rate on both ends: they are precisely the cost
// rendezvous exists to avoid, and the crossover the Switch implements
// emerges from them.
type rdmaEager struct{ p *rdmaPMM }

func (t *rdmaEager) Name() string          { return "rdma-eager" }
func (t *rdmaEager) Link(n int) model.Link { return model.RDMAWrite }
func (t *rdmaEager) StaticSize() int       { return model.RDMAEagerMax }

func (t *rdmaEager) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	st := rdmaState(cs)
	if err := st.slots.acquire(a, cs, t); err != nil {
		return err
	}
	// The staging copy into the bounce buffer.
	a.Advance(vclock.TimeForBytes(len(data), model.MadCopyBandwidth))
	seq := st.eagerSeq
	st.eagerSeq++
	off := int(seq%model.RDMAEagerSlots) * model.RDMAEagerMax
	return st.write(a, st.peerEager, off, data, uint64(seq), model.RDMAWrite)
}

func (t *rdmaEager) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	st := rdmaState(cs)
	c, err := st.eagerIn.WaitWrite(a)
	if err != nil {
		return nil, err
	}
	// The copy out of the ring into user memory.
	a.Advance(vclock.TimeForBytes(c.Len, model.MadCopyBandwidth))
	return st.eagerIn.Bytes()[c.Off : c.Off+c.Len], nil
}

func (t *rdmaEager) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	return rdmaState(cs).slots.release(a, cs, t)
}

// A grant is a 16-byte credit frame in the send path's answer ring.
func (t *rdmaEager) awaitGrant(a *vclock.Actor, cs *ConnState) (int, error) {
	n, _, err := t.p.waitResp(a, cs, rdmaCredit, 0)
	return int(n), err
}

func (t *rdmaEager) returnCredits(a *vclock.Actor, cs *ConnState, n int) error {
	st := rdmaState(cs)
	if err := t.p.writeFrame(a, st, st.peerResp, st.respNext, rdmaCredit, 0, uint32(n), rdmaVerdictSize); err != nil {
		return err
	}
	st.respNext++
	return nil
}

// --- rendezvous TM ---

// rdmaRdv is the zero-copy rendezvous: RTS announces the block, the
// receiver registers the actual destination buffer under the schedule's
// per-direction key and answers CTS, and the payload travels as one
// RDMA write straight into application memory — the only per-byte costs
// are the wire and the receiver's page-granular registration, which the
// next block from the same buffer does not pay again. FIN/ACK close the
// block; a checksum mismatch NACKs and retransmits.
type rdmaRdv struct{ p *rdmaPMM }

func (t *rdmaRdv) Name() string { return "rdma-rdv" }

func (t *rdmaRdv) Link(n int) model.Link {
	l := model.RDMAWrite
	l.Fixed += 2 * model.RDMACtrl.Fixed // the RTS/CTS legs
	return l
}

func (t *rdmaRdv) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	st := rdmaState(cs)
	seq := st.rdvSend
	st.rdvSend++
	if err := t.p.writeFrame(a, st, st.peerCtrl, st.ctrlNext, rdmaRTS, seq, uint32(len(data)), rdmaFrameSize); err != nil {
		return err
	}
	st.ctrlNext++
	// CTS is a doorbell: the destination key is deterministic, so even a
	// damaged CTS (valid=false) releases the sender.
	if _, _, err := t.p.waitResp(a, cs, rdmaCTS, seq); err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(data)
	for round := 0; ; round++ {
		if round == rdmaRdvRounds {
			return fmt.Errorf("core: rdma rendezvous on %s: seq %d still rejected after %d rounds",
				cs.ch.name, seq, round)
		}
		if err := st.write(a, st.peerRdvDst, 0, data, uint64(seq), model.RDMAWrite); err != nil {
			return err
		}
		if err := t.p.writeFrame(a, st, st.peerCtrl, st.ctrlNext, rdmaFIN, seq, sum, rdmaFrameSize); err != nil {
			return err
		}
		st.ctrlNext++
		_, _, err := t.p.waitResp(a, cs, rdmaACK, seq)
		if err == errRdmaNACK {
			t.p.rdvRetransmit.Add(1)
			continue
		}
		return err
	}
}

func (t *rdmaRdv) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	st := rdmaState(cs)
	seq := st.rdvRecv
	st.rdvRecv++
	size, valid, err := t.p.waitCtrl(a, cs, rdmaRTS, seq)
	if err != nil {
		return err
	}
	// A valid RTS cross-checks the pack/unpack symmetry; a damaged one is
	// positionally the RTS and the size comes from the local unpack call.
	if valid && int(size) != len(dst) {
		return asymmetryError(fmt.Sprintf("rdma rendezvous block on %s", cs.ch.name), int(size), len(dst))
	}
	// Pin the real destination (page-granular cost on a miss), then
	// release the sender.
	region, err := t.p.pin(a, st, dst)
	if err != nil {
		return err
	}
	if err := t.land(a, cs, seq, region, dst); err != nil {
		// A write the block let through must not land in dst later.
		st.unpin()
		return err
	}
	return nil
}

// land answers CTS and verdicts the block's writes into region until one
// delivers dst intact.
func (t *rdmaRdv) land(a *vclock.Actor, cs *ConnState, seq uint32, region *rdma.MemRegion, dst []byte) error {
	st := rdmaState(cs)
	if err := t.p.writeFrame(a, st, st.peerResp, st.respNext, rdmaCTS, seq, 0, rdmaFrameSize); err != nil {
		return err
	}
	st.respNext++
	for round := 0; ; round++ {
		if round == rdmaRdvRounds {
			return fmt.Errorf("core: rdma rendezvous on %s: seq %d unrecoverable after %d rounds",
				cs.ch.name, seq, round)
		}
		if _, err := region.WaitWrite(a); err != nil {
			return err
		}
		sum, finOK, err := t.p.waitCtrl(a, cs, rdmaFIN, seq)
		if err != nil {
			return err
		}
		// A damaged FIN cannot vouch for the payload; NACK as if the
		// checksum failed.
		if finOK && crc32.ChecksumIEEE(dst) == sum {
			if err := t.p.writeFrame(a, st, st.peerResp, st.respNext, rdmaACK, seq, 0, rdmaVerdictSize); err != nil {
				return err
			}
			st.respNext++
			return nil
		}
		t.p.rdvNack.Add(1)
		if err := t.p.writeFrame(a, st, st.peerResp, st.respNext, rdmaNACK, seq, 0, rdmaVerdictSize); err != nil {
			return err
		}
		st.respNext++
	}
}

// pin returns the receive path's rendezvous registration for dst, writable
// to len(dst) only. The kept one is a hit when it starts at dst's first
// byte and spans dst, and costs nothing; a miss deregisters it, freeing
// the direction's key, and registers dst[:cap(dst)], charged per page.
func (p *rdmaPMM) pin(a *vclock.Actor, st *rdmaConn, dst []byte) (*rdma.MemRegion, error) {
	if st.rdvDst == nil || !covers(st.rdvDst.Bytes(), dst) {
		st.unpin()
		r, err := p.hca.Register(a, st.ownRdvDst, dst[:cap(dst)])
		if err != nil {
			return nil, err
		}
		st.rdvDst = r
	}
	st.rdvDst.SetWritable(len(dst))
	return st.rdvDst, nil
}

// unpin deregisters the kept rendezvous destination and forgets it.
func (st *rdmaConn) unpin() {
	if st.rdvDst != nil {
		_ = st.rdvDst.Deregister() // fails only on a second call, which forgetting it rules out
		st.rdvDst = nil
	}
}
