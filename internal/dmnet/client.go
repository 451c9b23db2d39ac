package dmnet

import (
	"fmt"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// defaultTransport returns the transport tuning used by DM traffic.
func defaultTransport() transport.Config { return transport.DefaultConfig() }

// Addresses returned by the client pool carry the owning server's pool
// index in the top byte, so every later operation routes to the right
// server without client-side region tables.
const serverShift = 56

func tagAddr(server int, a dm.RemoteAddr) dm.RemoteAddr {
	return dm.RemoteAddr(uint64(server)<<serverShift | uint64(a))
}

func splitAddr(a dm.RemoteAddr) (server int, raw dm.RemoteAddr) {
	return int(uint64(a) >> serverShift), dm.RemoteAddr(uint64(a) & (1<<serverShift - 1))
}

// Client is a process's handle on the disaggregated memory pool. It
// implements dm.Space by issuing DM RPCs through the process's rpc.Node;
// allocation requests are "routed in a round-robin fashion" across the
// pool's servers (§VI-C). Request and response bodies are the shared
// dmwire codecs, identical to the live TCP client's. A server knows the
// caller by its node's address, so each Client needs an rpc.Node of its
// own.
type Client struct {
	node    *rpc.Node
	servers []simnet.Addr
	ready   bool
	rr      int
}

// Statically assert the interfaces.
var (
	_ dm.Space     = (*Client)(nil)
	_ dm.RefStager = (*Client)(nil)
	_ dm.RefReader = (*Client)(nil)
)

// NewClient creates a pool client that calls through node. The server list
// must be identical (same order) in every process sharing refs, since Ref
// carries the pool index.
func NewClient(node *rpc.Node, servers []simnet.Addr) *Client {
	if len(servers) == 0 {
		panic("dmnet: client needs at least one DM server")
	}
	return &Client{node: node, servers: servers}
}

// Register registers this process with every DM server. It must
// complete before any other call. The paper's servers assign a global PID
// here (§V-A); ours key the process's state by its node address instead,
// so no PID rides any later request.
func (c *Client) Register(p *sim.Proc) error {
	for i, srv := range c.servers {
		resp, err := c.node.Call(p, srv, MRegister, nil)
		if err != nil {
			return fmt.Errorf("dmnet: register with server %d: %w", i, err)
		}
		if _, err := dmwire.UnmarshalRegisterResp(resp); err != nil {
			return err
		}
	}
	c.ready = true
	return nil
}

func (c *Client) server(i int) (simnet.Addr, error) {
	if !c.ready {
		return simnet.Addr{}, fmt.Errorf("dmnet: client not registered")
	}
	if i < 0 || i >= len(c.servers) {
		return simnet.Addr{}, dm.ErrBadAddress
	}
	return c.servers[i], nil
}

// Alloc reserves size bytes on the next server in round-robin order.
func (c *Client) Alloc(p *sim.Proc, size int64) (dm.RemoteAddr, error) {
	idx := c.rr
	c.rr = (c.rr + 1) % len(c.servers)
	srv, err := c.server(idx)
	if err != nil {
		return 0, err
	}
	resp, err := c.node.Call(p, srv, MAlloc, dmwire.AllocReq{Size: size}.Marshal())
	if err != nil {
		return 0, fromAppError(err)
	}
	r, err := dmwire.UnmarshalAllocResp(resp)
	if err != nil {
		return 0, err
	}
	return tagAddr(idx, r.Addr), nil
}

// Free releases the region based at addr.
func (c *Client) Free(p *sim.Proc, addr dm.RemoteAddr) error {
	idx, raw := splitAddr(addr)
	srv, err := c.server(idx)
	if err != nil {
		return err
	}
	_, err = c.node.Call(p, srv, MFree, dmwire.FreeReq{Addr: raw}.Marshal())
	return fromAppError(err)
}

// CreateRef marks [addr, addr+size) shared read-only and returns its Ref.
func (c *Client) CreateRef(p *sim.Proc, addr dm.RemoteAddr, size int64) (dm.Ref, error) {
	idx, raw := splitAddr(addr)
	srv, err := c.server(idx)
	if err != nil {
		return dm.Ref{}, err
	}
	resp, err := c.node.Call(p, srv, MCreateRef,
		dmwire.CreateRefReq{Addr: raw, Size: size}.Marshal())
	if err != nil {
		return dm.Ref{}, fromAppError(err)
	}
	r, err := dmwire.UnmarshalRefKeyResp(resp)
	if err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Server: uint32(idx), Key: r.Key, Size: size}, nil
}

// MapRef maps the pages named by ref into this process's DM address space.
func (c *Client) MapRef(p *sim.Proc, ref dm.Ref) (dm.RemoteAddr, error) {
	srv, err := c.server(int(ref.Server))
	if err != nil {
		return 0, err
	}
	resp, err := c.node.Call(p, srv, MMapRef,
		dmwire.MapRefReq{Key: ref.Key}.Marshal())
	if err != nil {
		return 0, fromAppError(err)
	}
	r, err := dmwire.UnmarshalMapRefResp(resp)
	if err != nil {
		return 0, err
	}
	return tagAddr(int(ref.Server), r.Addr), nil
}

// FreeRef releases the reference's own hold on the shared pages. This is a
// repo extension over the paper's Table II: without it the +1 taken by
// create_ref can never be returned and pages leak (see DESIGN.md D-notes).
func (c *Client) FreeRef(p *sim.Proc, ref dm.Ref) error {
	srv, err := c.server(int(ref.Server))
	if err != nil {
		return err
	}
	_, err = c.node.Call(p, srv, MFreeRef, dmwire.FreeRefReq{Key: ref.Key}.Append(nil))
	return fromAppError(err)
}

// StageRef stages data into fresh DM pages and returns a ref holding them,
// in a single round trip (the fused fast path; see dm.RefStager). The
// target server is chosen round-robin like Alloc.
func (c *Client) StageRef(p *sim.Proc, data []byte) (dm.Ref, error) {
	idx := c.rr
	c.rr = (c.rr + 1) % len(c.servers)
	srv, err := c.server(idx)
	if err != nil {
		return dm.Ref{}, err
	}
	resp, err := c.node.Call(p, srv, MStage, dmwire.StageReq{Data: data}.Marshal())
	if err != nil {
		return dm.Ref{}, fromAppError(err)
	}
	r, err := dmwire.UnmarshalRefKeyResp(resp)
	if err != nil {
		return dm.Ref{}, err
	}
	return dm.Ref{Server: uint32(idx), Key: r.Key, Size: int64(len(data))}, nil
}

// ReadRef reads [off, off+len(dst)) of the ref's snapshot without mapping
// it (see dm.RefReader).
func (c *Client) ReadRef(p *sim.Proc, ref dm.Ref, off int64, dst []byte) error {
	srv, err := c.server(int(ref.Server))
	if err != nil {
		return err
	}
	resp, err := c.node.Call(p, srv, MReadRef,
		dmwire.ReadRefReq{Key: ref.Key, Off: uint32(off), Size: uint32(len(dst))}.Append(nil))
	if err != nil {
		return fromAppError(err)
	}
	if len(resp) != len(dst) {
		return fmt.Errorf("dmnet: readref returned %d bytes, want %d", len(resp), len(dst))
	}
	copy(dst, resp)
	return nil
}

// Write stores src at addr (the paper's rwrite: explicit API, data moves
// over the network to the DM server).
func (c *Client) Write(p *sim.Proc, addr dm.RemoteAddr, src []byte) error {
	idx, raw := splitAddr(addr)
	srv, err := c.server(idx)
	if err != nil {
		return err
	}
	_, err = c.node.Call(p, srv, MWrite, dmwire.WriteReq{Addr: raw, Data: src}.Marshal())
	return fromAppError(err)
}

// Read loads len(dst) bytes from addr into dst (the paper's rread).
func (c *Client) Read(p *sim.Proc, addr dm.RemoteAddr, dst []byte) error {
	idx, raw := splitAddr(addr)
	srv, err := c.server(idx)
	if err != nil {
		return err
	}
	resp, err := c.node.Call(p, srv, MRead,
		dmwire.ReadReq{Addr: raw, Size: uint32(len(dst))}.Marshal())
	if err != nil {
		return fromAppError(err)
	}
	if len(resp) != len(dst) {
		return fmt.Errorf("dmnet: read returned %d bytes, want %d", len(resp), len(dst))
	}
	copy(dst, resp)
	return nil
}
