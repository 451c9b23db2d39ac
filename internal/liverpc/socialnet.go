package liverpc

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/rpc"
)

// A trimmed DeathStarBench-style social network (paper §VI-F, Fig 11)
// on real sockets: the compose-post, read-home-timeline and
// read-user-timeline paths through a frontend data mover, with post
// media as size-aware payloads. On compose, the media payload crosses
// frontend → compose → storage; with pass-by-reference only the staged
// ref travels and storage *adopts* it (the ref moves under storage's own
// DM session in one exchange), so the post survives the composing
// client's exit or crash — the ownership-handoff half of the paper's
// argument. On read, storage returns a page of posts; by-ref timelines
// unwind as descriptors and the reader fetches media straight from the
// DM server, never through the service chain. The user-timeline tier
// filters the same store by author, exercising a second read path with
// a different storage access pattern.

// SocialNet method names.
const (
	snCompose   = "sn.compose" // client → frontend → compose
	snRead      = "sn.read"    // client → frontend → home
	snUser      = "sn.user"    // client → frontend → user-timeline
	snStore     = "sn.store"   // compose → storage
	snFetch     = "sn.fetch"   // home → storage
	snFetchUser = "sn.fetchu"  // user-timeline → storage
)

// snParams encodes a timeline read's (start, count) page request.
func snParams(start uint64, count uint16) Payload {
	return Inline(rpc.NewEnc(10).U64(start).U16(count).Bytes())
}

func decodeSNParams(p Payload) (uint64, uint16, error) {
	d := rpc.NewDec(p.Inline())
	start, count := d.U64(), d.U16()
	if p.IsRef() || d.Err() != nil {
		return 0, 0, fmt.Errorf("liverpc: malformed timeline params")
	}
	return start, count, nil
}

// snUserParams encodes a user-timeline read's (user, start, count) page
// request.
func snUserParams(user, start uint64, count uint16) Payload {
	return Inline(rpc.NewEnc(18).U64(user).U64(start).U16(count).Bytes())
}

func decodeSNUserParams(p Payload) (uint64, uint64, uint16, error) {
	d := rpc.NewDec(p.Inline())
	user, start, count := d.U64(), d.U64(), d.U16()
	if p.IsRef() || d.Err() != nil {
		return 0, 0, 0, fmt.Errorf("liverpc: malformed user-timeline params")
	}
	return user, start, count, nil
}

// newSNStorage deploys the post-storage service: it adopts incoming
// media (the composer's ref moves under storage's own DM session, and
// the composer's key dies) and serves pages of posts back to timeline
// reads — the whole store for home timelines, one author's posts for
// user timelines.
func newSNStorage(dmc DM, cfg Config) *Service {
	s := NewService("sn-storage", dmc, cfg)
	var mu sync.Mutex
	var posts []Payload
	byUser := make(map[uint64][]uint64) // author → post ids, compose order
	s.Handle(snStore, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("liverpc: sn.store wants 1 or 2 arguments, got %d", len(args))
		}
		var user uint64
		if len(args) == 2 {
			u, err := args[1].AsU64()
			if err != nil {
				return nil, err
			}
			user = u
		}
		// Adopt before publishing: inline media is copied out of the
		// transport buffer, ref media moves to storage's session in one
		// adopt_ref, so the composer's session can die without losing
		// the post.
		own, err := ctx.Adopt(args[0])
		if err != nil {
			return nil, err
		}
		mu.Lock()
		id := uint64(len(posts))
		posts = append(posts, own)
		byUser[user] = append(byUser[user], id)
		mu.Unlock()
		return []Payload{U64(id)}, nil
	})
	s.Handle(snFetch, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("liverpc: sn.fetch wants 1 argument, got %d", len(args))
		}
		start, count, err := decodeSNParams(args[0])
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if len(posts) == 0 {
			return nil, &rpc.AppError{Status: 2, Msg: "sn: no posts"}
		}
		page := make([]Payload, 0, count)
		for i := 0; i < int(count); i++ {
			page = append(page, posts[(start+uint64(i))%uint64(len(posts))])
		}
		return page, nil
	})
	s.Handle(snFetchUser, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("liverpc: sn.fetchu wants 1 argument, got %d", len(args))
		}
		user, start, count, err := decodeSNUserParams(args[0])
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		ids := byUser[user]
		if len(ids) == 0 {
			return nil, &rpc.AppError{Status: 2, Msg: "sn: user has no posts"}
		}
		page := make([]Payload, 0, count)
		for i := 0; i < int(count); i++ {
			page = append(page, posts[ids[(start+uint64(i))%uint64(len(ids))]])
		}
		return page, nil
	})
	return s
}

// newSNCompose deploys the compose-post service, a thin application tier
// that persists the media argument in storage.
func newSNCompose(dmc DM, storage string, cfg Config) *Service {
	s := NewService("sn-compose", dmc, cfg)
	s.Handle(snCompose, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(storage, snStore, args...)
	})
	return s
}

// newSNHome deploys the home-timeline service: it asks storage for a
// page of posts and forwards the result payloads unchanged — a data
// mover on the response path.
func newSNHome(dmc DM, storage string, cfg Config) *Service {
	s := NewService("sn-home", dmc, cfg)
	s.Handle(snRead, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(storage, snFetch, args...)
	})
	return s
}

// newSNUserTimeline deploys the user-timeline service: the same mover
// shape as home, but the storage fetch filters by author.
func newSNUserTimeline(dmc DM, storage string, cfg Config) *Service {
	s := NewService("sn-user", dmc, cfg)
	s.Handle(snUser, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(storage, snFetchUser, args...)
	})
	return s
}

// newSNFrontend deploys the frontend mover routing all three operations.
func newSNFrontend(dmc DM, compose, home, user string, cfg Config) *Service {
	s := NewService("sn-frontend", dmc, cfg)
	s.Handle(snCompose, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(compose, snCompose, args...)
	})
	s.Handle(snRead, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(home, snRead, args...)
	})
	s.Handle(snUser, func(ctx *Ctx, args []Payload) ([]Payload, error) {
		return ctx.Call(user, snUser, args...)
	})
	return s
}

// SocialNetDeployment is the running trimmed social network: frontends,
// compose, home-timeline, user-timeline and storage services on loopback
// TCP, each with its own DM session.
type SocialNetDeployment struct {
	Frontend  string   // first client-facing address
	Frontends []string // every client-facing address (load balancing)

	svcs []*Service
	dms  []DM
	lns  []net.Listener
}

// DeploySocialNetWith starts the social network with every service's DM
// session minted by newSession (mirroring DeployChainWith) and frontends
// frontend movers sharing the same compose/home/user tiers, so load
// generators can spread clients across client-facing endpoints.
// newSession is not called when cfg.ForceInline is set (the by-value
// baseline needs no DM). The sessions are closed with the deployment,
// which callers must Close.
func DeploySocialNetWith(newSession func() (DM, error), frontends int, cfg Config) (*SocialNetDeployment, error) {
	if frontends < 1 {
		frontends = 1
	}
	d := &SocialNetDeployment{}
	serve := func(build func(dmc DM) *Service) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			return "", err
		}
		d.lns = append(d.lns, ln)
		var dmc DM
		if !cfg.ForceInline {
			dmc, err = newSession()
			if err != nil {
				d.Close()
				return "", err
			}
			d.dms = append(d.dms, dmc)
		}
		s := build(dmc)
		d.svcs = append(d.svcs, s)
		go s.Serve(ln)
		return ln.Addr().String(), nil
	}

	storage, err := serve(func(dmc DM) *Service { return newSNStorage(dmc, cfg) })
	if err != nil {
		return nil, err
	}
	compose, err := serve(func(dmc DM) *Service { return newSNCompose(dmc, storage, cfg) })
	if err != nil {
		return nil, err
	}
	home, err := serve(func(dmc DM) *Service { return newSNHome(dmc, storage, cfg) })
	if err != nil {
		return nil, err
	}
	user, err := serve(func(dmc DM) *Service { return newSNUserTimeline(dmc, storage, cfg) })
	if err != nil {
		return nil, err
	}
	for i := 0; i < frontends; i++ {
		front, err := serve(func(dmc DM) *Service { return newSNFrontend(dmc, compose, home, user, cfg) })
		if err != nil {
			return nil, err
		}
		d.Frontends = append(d.Frontends, front)
	}
	d.Frontend = d.Frontends[0]
	return d, nil
}

// Close tears down every service and DM session.
func (d *SocialNetDeployment) Close() {
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

// SocialNetClient is a workload generator for the deployment.
type SocialNetClient struct {
	caller   *Caller
	frontend string
}

// NewSocialNetClient builds a client stub against the frontend over the
// DM session dmc.
func NewSocialNetClient(dmc DM, frontend string, cfg Config) *SocialNetClient {
	return &SocialNetClient{caller: NewCaller(dmc, cfg), frontend: frontend}
}

// Close tears down the client's transport.
func (c *SocialNetClient) Close() error { return c.caller.Close() }

// Compose publishes one post by user 0 and returns its id.
func (c *SocialNetClient) Compose(media []byte) (uint64, error) {
	return c.ComposeAs(0, media)
}

// ComposeAs publishes one post authored by user and returns its id.
// Large media is staged once and storage adopts the staged ref, so the
// client releases it only when the call failed (see Caller.handOff).
func (c *SocialNetClient) ComposeAs(user uint64, media []byte) (uint64, error) {
	res, err := c.caller.handOff(c.frontend, snCompose, media, U64(user))
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("liverpc: compose returned %d payloads, want 1", len(res))
	}
	return res[0].AsU64()
}

// ReadHome reads a page of count posts starting at start and
// materializes each one's media (by-ref posts read straight from the DM
// server). The returned buffers are the caller's.
func (c *SocialNetClient) ReadHome(start uint64, count uint16) ([][]byte, error) {
	res, err := c.caller.Call(c.frontend, snRead, snParams(start, count))
	if err != nil {
		return nil, err
	}
	return c.fetchAll(res)
}

// ReadUser reads a page of count posts authored by user, starting at
// the author's start-th post, and materializes each one's media.
func (c *SocialNetClient) ReadUser(user, start uint64, count uint16) ([][]byte, error) {
	res, err := c.caller.Call(c.frontend, snUser, snUserParams(user, start, count))
	if err != nil {
		return nil, err
	}
	return c.fetchAll(res)
}

func (c *SocialNetClient) fetchAll(res []Payload) ([][]byte, error) {
	out := make([][]byte, 0, len(res))
	for _, p := range res {
		buf, err := c.caller.Fetch(p)
		if err != nil {
			return nil, err
		}
		out = append(out, buf)
	}
	return out, nil
}
