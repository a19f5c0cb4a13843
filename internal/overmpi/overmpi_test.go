package overmpi

import (
	"bytes"
	"fmt"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/mpi"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/vclock"
)

// baseComms builds the lower half of the stack: simulated SCI → Madeleine
// channel → one MPI communicator per node.
func baseComms(t *testing.T, name string) (*core.Session, map[int]*mpi.Comm) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(sisci.Network)
	sess := core.NewSession(w)
	base, err := sess.NewChannel(core.ChannelSpec{Name: name + "-base", Driver: "sisci"})
	if err != nil {
		t.Fatal(err)
	}
	comms := map[int]*mpi.Comm{}
	for r := 0; r < 2; r++ {
		c, err := mpi.NewComm(base[r], vclock.NewActor(fmt.Sprintf("mpi-%d", r)))
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = c
	}
	return sess, comms
}

// stack adds the upper half: the overmpi driver registered under name → a
// Madeleine channel over MPI.
func stack(t *testing.T, name string) (map[int]*core.Channel, *core.Session) {
	t.Helper()
	sess, comms := baseComms(t, name)
	if err := Install(name, comms); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.UnregisterDriver(name) })
	chans, err := sess.NewChannel(core.ChannelSpec{Name: name + "-top", Driver: name})
	if err != nil {
		t.Fatal(err)
	}
	return chans, sess
}

func TestMadeleineOverMPIRoundTrip(t *testing.T) {
	chans, _ := stack(t, "ompi-rt")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	hdr := []byte{9, 9}
	body := make([]byte, 40<<10)
	for i := range body {
		body[i] = byte(i * 3)
	}
	go func() {
		conn, _ := chans[0].BeginPacking(s, 1)
		conn.Pack(hdr, core.SendSafer, core.ReceiveExpress)
		conn.Pack(body, core.SendCheaper, core.ReceiveCheaper)
		conn.EndPacking()
	}()
	conn, err := chans[1].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	gh := make([]byte, 2)
	if err := conn.Unpack(gh, core.SendSafer, core.ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	gb := make([]byte, len(body))
	if err := conn.Unpack(gb, core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := conn.EndUnpacking(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gh, hdr) || !bytes.Equal(gb, body) {
		t.Fatal("payload corrupted through the MPI-backed module")
	}
	// The stacked path must cost more than raw Madeleine/SISCI but stay in
	// the same order of magnitude (the §5.3 "straightforward port").
	if r.Now() < vclock.Micros(400) {
		t.Errorf("stacked 40 kB one-way %v implausibly fast", r.Now())
	}
}

func TestDriverAppearsInRegistry(t *testing.T) {
	chans, _ := stack(t, "ompi-reg")
	found := false
	for _, d := range core.Drivers() {
		if d == "ompi-reg" {
			found = true
		}
	}
	if !found {
		t.Error("registered driver must be listed")
	}
	if chans[0].PMMName() != "overmpi" {
		t.Errorf("PMM name = %q", chans[0].PMMName())
	}
	if chans[0].Link(1024).Bandwidth <= 0 {
		t.Error("stacked link must carry a cost model")
	}
}

func TestInstallErrors(t *testing.T) {
	if err := Install("x", nil); err == nil {
		t.Error("empty communicator set must fail")
	}
	if err := Install("sisci", map[int]*mpi.Comm{0: nil}); err == nil {
		t.Error("shadowing a built-in driver must fail")
	}
	comms := map[int]*mpi.Comm{0: {}}
	if err := Install("dup-drv", comms); err != nil {
		t.Fatal(err)
	}
	defer core.UnregisterDriver("dup-drv")
	if err := Install("dup-drv", comms); err == nil {
		t.Error("duplicate registration must fail")
	}
}

func TestRegisterDriverValidation(t *testing.T) {
	if err := core.RegisterDriver(core.DriverDef{Name: "incomplete"}); err == nil {
		t.Error("incomplete definitions must be rejected")
	}
}
