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

// Asynchronous-interface surface for the reqpair fixtures.

type Request struct{}

func (r *Request) Discard()   {}
func (r *Request) Done() bool { return false }
func (r *Request) Err() error { return nil }

type Completion struct {
	Req *Request
	Err error
}

type CQ struct{}

func (cq *CQ) Poll() (Completion, bool)         { return Completion{}, false }
func (cq *CQ) Wait() (Completion, bool)         { return Completion{}, false }
func (cq *CQ) OnCompletion(fn func(Completion)) {}

type AsyncMsg struct{}

func (am *AsyncMsg) SubmitPack(data []byte, sm SendMode, rm RecvMode) *Request  { return nil }
func (am *AsyncMsg) SubmitUnpack(dst []byte, sm SendMode, rm RecvMode) *Request { return nil }
func (am *AsyncMsg) SubmitEnd() *Request                                        { return nil }

func (ch *Channel) SubmitPacking(remote int, cq *CQ) (*AsyncMsg, error) { return nil, nil }
func (ch *Channel) SubmitUnpacking(cq *CQ) *AsyncMsg                    { return nil }
