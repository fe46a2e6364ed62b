package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// Caller is one coordinator-held session to a worker. Implementations must
// guarantee that Close unblocks any in-flight Call (returning an error), so
// the coordinator's step timeout can always reclaim a stuck round.
type Caller interface {
	// Call invokes serviceMethod synchronously.
	Call(serviceMethod string, args any, reply any) error
	// Close terminates the session and unblocks pending calls.
	Close() error
}

// Dialer opens a Caller to a worker address. The chaostest package wraps a
// Dialer to inject transport faults; the default is DialTCP.
type Dialer func(addr string) (Caller, error)

// DialTCP opens a net/rpc session over TCP with a bounded dial.
func DialTCP(addr string) (Caller, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w: %v", addr, ErrWorker, err)
	}
	return &tcpCaller{c: rpc.NewClient(conn)}, nil
}

type tcpCaller struct{ c *rpc.Client }

func (t *tcpCaller) Call(method string, args, reply any) error {
	return t.c.Call(method, args, reply)
}

func (t *tcpCaller) Close() error { return t.c.Close() }

// InProcessDialer returns a Dialer whose addresses are served by in-process
// WorkerServices — the single-node reference transport. Every distinct
// address resolves to its own service instance, shared across redials, so a
// coordinator sees the same bind/step semantics as over TCP but with zero
// serialization: bitwise-identical results, no sockets. The services copy
// retained inputs, so coordinator and worker never alias live state.
func InProcessDialer() Dialer {
	var (
		mu   sync.Mutex
		svcs = map[string]*WorkerService{}
	)
	return func(addr string) (Caller, error) {
		mu.Lock()
		svc, ok := svcs[addr]
		if !ok {
			svc = NewWorkerService()
			svcs[addr] = svc
		}
		mu.Unlock()
		return &directCaller{svc: svc}, nil
	}
}

// directCaller dispatches calls as plain method invocations. The method
// switch keeps the warm iteration path allocation-free (no reflection).
type directCaller struct {
	svc  *WorkerService
	mu   sync.Mutex
	dead bool
}

var errCallerClosed = errors.New("cluster: caller closed")

func (d *directCaller) Call(method string, args, reply any) error {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return errCallerClosed
	}
	switch method {
	case "Propagation.Bind":
		return d.svc.Bind(args.(*BindArgs), reply.(*BindReply))
	case "Propagation.Start":
		return d.svc.Start(args.(*StartArgs), reply.(*ReduceReply))
	case "Propagation.Mul":
		return d.svc.Mul(args.(*MulArgs), reply.(*MulReply))
	case "Propagation.Update":
		return d.svc.Update(args.(*UpdateArgs), reply.(*ReduceReply))
	case "Propagation.Gather":
		return d.svc.Gather(args.(*GatherArgs), reply.(*GatherReply))
	default:
		return fmt.Errorf("cluster: unknown method %s", method)
	}
}

func (d *directCaller) Close() error {
	d.mu.Lock()
	d.dead = true
	d.mu.Unlock()
	return nil
}

// pool is the coordinator's set of worker sessions: one serial runner per
// address, lazily dialed, with dead-address bookkeeping for rebinds. Calls
// to distinct addresses run concurrently; calls to the same address are
// serialized by its runner (the worker's mutex would serialize them
// anyway).
type pool struct {
	addrs []string
	dial  Dialer

	mu      sync.Mutex
	runners map[string]*runner
	dead    map[string]bool
}

func newPool(addrs []string, dial Dialer) *pool {
	if dial == nil {
		dial = DialTCP
	}
	return &pool{
		addrs:   addrs,
		dial:    dial,
		runners: make(map[string]*runner, len(addrs)),
		dead:    make(map[string]bool, len(addrs)),
	}
}

// pcall is one queued call; done receives the pcall back when it completes.
type pcall struct {
	method string
	args   any
	reply  any
	shard  int
	addr   string
	err    error
	done   chan *pcall

	// inflight is owned by the round that dispatched the call: set before
	// enqueueing, cleared when the call returns via done.
	inflight bool
}

// runner owns one address: a goroutine draining a request queue through a
// single Caller. The request channel is buffered so a full round can be
// enqueued without blocking the coordinator.
type runner struct {
	addr string
	req  chan *pcall
	wg   sync.WaitGroup

	mu     sync.Mutex
	caller Caller
	closed bool
}

func (p *pool) runnerFor(addr string) *runner {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.runners[addr]
	if !ok {
		r = &runner{addr: addr, req: make(chan *pcall, 64)}
		r.wg.Add(1)
		go r.loop(p.dial)
		p.runners[addr] = r
	}
	return r
}

func (r *runner) loop(dial Dialer) {
	defer r.wg.Done()
	for c := range r.req {
		c.err = r.invoke(dial, c)
		c.done <- c
	}
	r.closeCaller()
}

func (r *runner) invoke(dial Dialer, c *pcall) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errCallerClosed
	}
	caller := r.caller
	if caller == nil {
		r.mu.Unlock()
		fresh, err := dial(r.addr)
		if err != nil {
			return err
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = fresh.Close()
			return errCallerClosed
		}
		r.caller = fresh
		caller = fresh
	}
	r.mu.Unlock()
	return caller.Call(c.method, c.args, c.reply)
}

// closeCaller tears down the current session (unblocking an in-flight
// Call); the next invoke on a live runner redials.
func (r *runner) closeCaller() {
	r.mu.Lock()
	c := r.caller
	r.caller = nil
	r.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// kill marks the runner's address unusable and unblocks any in-flight call.
func (r *runner) kill() {
	r.mu.Lock()
	r.closed = true
	c := r.caller
	r.caller = nil
	r.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// alive returns the addresses not yet marked dead, in the original order.
func (p *pool) aliveAddrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.addrs))
	for _, a := range p.addrs {
		if !p.dead[a] {
			out = append(out, a)
		}
	}
	return out
}

// markDead flags an address as failed and kills its runner.
func (p *pool) markDead(addr string) {
	p.mu.Lock()
	already := p.dead[addr]
	p.dead[addr] = true
	r := p.runners[addr]
	p.mu.Unlock()
	if !already && r != nil {
		r.kill()
	}
}

// roundErr describes one failed call of a round.
type roundErr struct {
	shard int
	addr  string
	err   error
}

// round dispatches the calls and waits for every one of them to complete.
// If timeout > 0 and expires, every address with an outstanding call is
// killed — per the Caller contract this unblocks the in-flight Call with an
// error — and the round keeps draining, so pooled args/replies are never
// left aliased by an abandoned call. Failed addresses are marked dead.
// The zero timeout means no deadline (and allocates nothing, which keeps
// the warm iteration loop gate-clean).
func (p *pool) round(calls []*pcall, done chan *pcall, timeout time.Duration) []roundErr {
	for _, c := range calls {
		c.err = nil
		c.done = done
		c.inflight = true
		p.runnerFor(c.addr).req <- c
	}
	var timech <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timech = timer.C
	}
	var fails []roundErr
	pending := len(calls)
	for pending > 0 {
		select {
		case c := <-done:
			c.inflight = false
			pending--
			if c.err != nil {
				p.markDead(c.addr)
				fails = append(fails, roundErr{shard: c.shard, addr: c.addr, err: c.err})
			}
		case <-timech:
			timech = nil
			for _, c := range calls {
				if c.inflight {
					p.markDead(c.addr)
				}
			}
		}
	}
	return fails
}

// roundFailErr folds a round's failures into one typed worker error.
func roundFailErr(stage string, fails []roundErr) error {
	return fmt.Errorf("cluster: %s round: %d failure(s), first on %s (shard %d): %w: %v",
		stage, len(fails), fails[0].addr, fails[0].shard, ErrWorker, fails[0].err)
}

// close shuts every runner down and waits for their goroutines.
func (p *pool) close() {
	p.mu.Lock()
	runners := make([]*runner, 0, len(p.runners))
	for _, r := range p.runners {
		runners = append(runners, r)
	}
	p.runners = map[string]*runner{}
	p.mu.Unlock()
	for _, r := range runners {
		close(r.req)
	}
	for _, r := range runners {
		r.kill()
		r.wg.Wait()
	}
}
