package liverpc

import (
	"fmt"
	"net"

	"repro/internal/apps"
)

// The nested-RPC-calls application of paper §VI-B (Fig 5), ported from
// internal/msvc onto real sockets: a client calls service 0 with one
// payload argument; services 0..n-2 are pure data movers forwarding it
// untouched; the final service materializes the payload, aggregates it,
// and the 8-byte sum unwinds back up the chain. In by-ref mode each hop
// moves a ~21-byte Ref descriptor; in by-value mode each hop re-copies
// the whole payload — exactly the comparison Fig 5 makes.

// chainMethod is the chain's service method name.
const chainMethod = "chain.do"

// newChainHop deploys one chain service. next is the downstream
// service's address; empty marks the terminal aggregator. dmc may be nil
// on pure movers running by-value (they never touch payload bytes) but
// the terminal needs one to materialize ref payloads.
func newChainHop(name string, dmc DM, next string, cfg Config) *Service {
	s := NewService(name, dmc, cfg)
	s.Handle(chainMethod, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("liverpc: chain.do wants 1 argument, got %d", len(args))
		}
		if next != "" {
			// Pure data mover: forward the argument without touching it
			// (the paper's ~60%-of-datacenter-traffic case). A ref payload
			// forwards as its descriptor; an inline one re-serializes.
			return ctx.Call(next, chainMethod, args[0])
		}
		// The terminal is the payload's last reader: consume it — read and
		// free in one exchange — and aggregate over the leased bytes.
		b, err := ctx.Consume(args[0])
		if err != nil {
			return nil, err
		}
		sum := apps.Aggregate(b.Bytes())
		b.Release()
		return []Payload{U64(sum)}, nil
	})
	return s
}

// ChainClient drives a deployed chain.
type ChainClient struct {
	caller *Caller
	first  string
}

// NewChainClient builds a client stub targeting the chain's first hop.
func NewChainClient(dmc DM, first string, cfg Config) *ChainClient {
	return &ChainClient{caller: NewCaller(dmc, cfg), first: first}
}

// Close tears down the client's transport.
func (cc *ChainClient) Close() error { return cc.caller.Close() }

// Do issues one end-to-end chained request carrying payload and returns
// the terminal service's aggregate. Large payloads are staged once and
// the terminal consumes the staged ref, so Do releases it only when the
// call failed (see Caller.handOff).
func (cc *ChainClient) Do(payload []byte) (uint64, error) {
	res, err := cc.caller.handOff(cc.first, chainMethod, payload)
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("liverpc: chain returned %d payloads, want 1", len(res))
	}
	return res[0].AsU64()
}

// ChainDeployment is an in-process deployment of the whole chain app:
// one Service per hop (each with its own DM session, as separate
// processes would have) plus a client. Every piece talks over real
// loopback TCP, so the same code also runs split across processes — the
// hop and client constructors above are all a main() needs.
type ChainDeployment struct {
	Client *ChainClient
	Addrs  []string // per-hop service addresses, in chain order

	svcs []*Service
	dms  []DM
	lns  []net.Listener
}

// DeployChainWith starts hops chain services on loopback listeners and
// returns the running deployment. Each hop (and the client) gets its own
// DM session from newSession, as separate processes would; the factory
// is not called when cfg.ForceInline is set (the by-value baseline needs
// none). The sessions are closed with the deployment, which callers must
// Close.
func DeployChainWith(hops int, newSession func() (DM, error), cfg Config) (*ChainDeployment, error) {
	if hops < 1 {
		return nil, fmt.Errorf("liverpc: chain needs at least one hop")
	}
	d := &ChainDeployment{}
	// Listeners first, so every hop knows its successor's address.
	for i := 0; i < hops; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, err
		}
		d.lns = append(d.lns, ln)
		d.Addrs = append(d.Addrs, ln.Addr().String())
	}
	newDM := func() (DM, error) {
		if cfg.ForceInline {
			return nil, nil
		}
		dmc, err := newSession()
		if err != nil {
			return nil, err
		}
		d.dms = append(d.dms, dmc)
		return dmc, nil
	}
	for i := 0; i < hops; i++ {
		dmc, err := newDM()
		if err != nil {
			d.Close()
			return nil, err
		}
		next := ""
		if i < hops-1 {
			next = d.Addrs[i+1]
		}
		s := newChainHop(fmt.Sprintf("chain-svc%d", i), dmc, next, cfg)
		d.svcs = append(d.svcs, s)
		go s.Serve(d.lns[i])
	}
	dmc, err := newDM()
	if err != nil {
		d.Close()
		return nil, err
	}
	d.Client = NewChainClient(dmc, d.Addrs[0], cfg)
	return d, nil
}

// Close tears down the client, every service, and their DM sessions.
func (d *ChainDeployment) Close() {
	if d.Client != nil {
		d.Client.Close()
	}
	for _, s := range d.svcs {
		s.Close()
	}
	for _, dmc := range d.dms {
		dmc.Close()
	}
	for _, ln := range d.lns {
		ln.Close()
	}
}
