package vclock

// Actor is a thread of control with its own virtual clock: an application
// thread, a forwarding-pipeline thread on a gateway, or a benchmark driver.
// An Actor is owned by exactly one goroutine; it is not safe for concurrent
// use. Cross-actor synchronization happens through message arrival stamps
// (Sync) and through shared Resources, both of which are order-insensitive
// (max/plus), so end-state clocks do not depend on goroutine scheduling.
type Actor struct {
	name string
	now  Time
}

// NewActor returns an actor starting at the session epoch.
func NewActor(name string) *Actor { return &Actor{name: name} }

// MakeActor is NewActor by value, for an actor embedded in the object that
// owns it (an async conversation): the owner's allocation is the actor's.
func MakeActor(name string) Actor { return Actor{name: name} }

// Name reports the actor's diagnostic name.
func (a *Actor) Name() string { return a.name }

// Now reports the actor's current virtual time.
func (a *Actor) Now() Time { return a.now }

// Advance moves the actor's clock forward by d. Negative durations are
// ignored: virtual time never runs backwards.
func (a *Actor) Advance(d Time) {
	if d > 0 {
		a.now += d
	}
}

// Sync moves the actor's clock forward to t if t is later than now; it is
// the "wait until" operation used when receiving a message stamped t.
func (a *Actor) Sync(t Time) {
	if t > a.now {
		a.now = t
	}
}

// SetNow forces the clock; used only by tests and by session reset.
func (a *Actor) SetNow(t Time) { a.now = t }
