// Package core stubs the Madeleine core API surface for analyzer
// fixtures: the madvet analyzers match methods structurally (package
// named "core", method names, arities), so the fixtures type-check
// against this stub without importing the real module.
package core

type SendMode int

const (
	SendCheaper SendMode = 0
	SendSafer   SendMode = 1
	SendLater   SendMode = 2
)

type RecvMode int

const (
	ReceiveCheaper RecvMode = 0
	ReceiveExpress RecvMode = 1
)

type Connection struct{}

func (c *Connection) Pack(data []byte, sm SendMode, rm RecvMode) error  { return nil }
func (c *Connection) Unpack(dst []byte, sm SendMode, rm RecvMode) error { return nil }
func (c *Connection) EndPacking() error                                 { return nil }
func (c *Connection) EndUnpacking() error                               { return nil }
func (c *Connection) Remote() int                                       { return 0 }

type Channel struct{}

func (ch *Channel) BeginPacking(remote int) (*Connection, error) { return nil, nil }
func (ch *Channel) BeginUnpacking() (*Connection, error)         { return nil, nil }
func (ch *Channel) Announce() error                              { return nil }

// Send is the scoped message: it ends the message f packs.
func (ch *Channel) Send(remote int, f func(*Connection) error) error {
	conn, _ := ch.BeginPacking(remote)
	err := f(conn)
	if endErr := conn.EndPacking(); err == nil {
		err = endErr
	}
	return err
}

// Completion-queue surface for the blockhold fixtures.

type Completion struct{ Err error }

type CQ struct{}

func (cq *CQ) Wait() (Completion, bool) { return Completion{}, false }
