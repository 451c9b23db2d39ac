package dmnet

import (
	"errors"
	"fmt"

	"repro/internal/dm"
	"repro/internal/dmwire"
	"repro/internal/memsim"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// ServerConfig tunes a DM server.
type ServerConfig struct {
	// Memory describes the pinned disaggregated memory device.
	Memory memsim.Config
	// RPC is the server node configuration. Workers models the CPU cores
	// dispatching DM requests ("Concurrent requests received in a single
	// memory server will be dispatched to its different CPU cores", §VI-C).
	RPC rpc.Config
	// TranslateTime is the software address-translation cost per page
	// lookup in the hash table (§V-A2; the paper measures it at 0.17% of a
	// DM access).
	TranslateTime sim.Time
	// CopyBytesPerSecond is the effective single-core memcpy bandwidth of
	// a DM server core performing page copies (CoW and -copy mode).
	CopyBytesPerSecond int64
	// UnconditionalCopy switches create_ref to the naive copy-the-region
	// behaviour, producing the paper's -copy baselines (Fig 7).
	UnconditionalCopy bool
	// VABase/VALimit bound each process's DM virtual address space.
	VABase, VALimit uint64
}

// DefaultServerConfig sizes a server like one of the paper's DM servers:
// local-DRAM access latency, 4 KiB pages.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Memory: memsim.Config{
			NumPages:       1 << 16, // 256 MiB
			PageSize:       4096,
			AccessLatency:  75, // ns, local DDR
			BytesPerSecond: 76_800_000_000,
		},
		RPC:                rpc.Config{Transport: defaultTransport(), Workers: 1},
		TranslateTime:      20,             // ns hash lookup
		CopyBytesPerSecond: 12_000_000_000, // one core's memcpy rate
		VABase:             1 << 16,
		VALimit:            1 << 40,
	}
}

// Server is a DmRPC-net DM server: page manager + address translator.
type Server struct {
	id   uint32
	node *rpc.Node
	cfg  ServerConfig
	dev  *memsim.Device
	free *memsim.FreeList

	// vas is each registered process's VA allocation tree, keyed by the
	// address of the node it calls from.
	vas map[simnet.Addr]*dm.VAAllocator

	// trans is the single in-memory hash table holding all processes'
	// translation entries (§V-A2).
	trans map[transKey]memsim.FrameID

	refs       map[uint64]*refEntry
	nextRefKey uint64

	// Counters for experiment reporting.
	faults    int64
	cowCopies int64
}

type transKey struct {
	from  simnet.Addr // the process's node
	vpage uint64      // DM virtual address >> page shift (byte addr / page size)
}

type refEntry struct {
	frames []memsim.FrameID
	size   int64
}

// NewServer creates a DM server with identity id on host h, serving on
// port.
func NewServer(h *simnet.Host, port int, id uint32, cfg ServerConfig) *Server {
	s := &Server{
		id:    id,
		node:  rpc.NewNode(h, port, fmt.Sprintf("dmserver-%d", id), cfg.RPC),
		cfg:   cfg,
		dev:   memsim.New(h.Network().Engine(), fmt.Sprintf("dm%d", id), cfg.Memory),
		free:  memsim.NewFreeList(cfg.Memory.NumPages),
		vas:   make(map[simnet.Addr]*dm.VAAllocator),
		trans: make(map[transKey]memsim.FrameID),
		refs:  make(map[uint64]*refEntry),
	}
	s.node.Handle(MRegister, s.handleRegister)
	s.node.Handle(MAlloc, s.handleAlloc)
	s.node.Handle(MFree, s.handleFree)
	s.node.Handle(MCreateRef, s.handleCreateRef)
	s.node.Handle(MMapRef, s.handleMapRef)
	s.node.Handle(MFreeRef, s.handleFreeRef)
	s.node.Handle(MRead, s.handleRead)
	s.node.Handle(MWrite, s.handleWrite)
	s.node.Handle(MStage, s.handleStage)
	s.node.Handle(MReadRef, s.handleReadRef)
	s.node.Handle(MConsumeRef, s.handleConsumeRef)
	s.node.Handle(MAdoptRef, s.handleAdoptRef)
	return s
}

// Start launches the server's RPC stack.
func (s *Server) Start() { s.node.Start() }

// Addr returns the server's RPC address.
func (s *Server) Addr() simnet.Addr { return s.node.Addr() }

// ID returns the server's pool identity.
func (s *Server) ID() uint32 { return s.id }

// Device exposes the underlying memory device for traffic accounting in
// experiments.
func (s *Server) Device() *memsim.Device { return s.dev }

// FreePages returns the number of frames on the free FIFO.
func (s *Server) FreePages() int { return s.free.Len() }

// Faults returns how many page faults (first-write allocations) occurred.
func (s *Server) Faults() int64 { return s.faults }

// CoWCopies returns how many copy-on-write page copies occurred.
func (s *Server) CoWCopies() int64 { return s.cowCopies }

// LiveRefs returns the number of outstanding Refs.
func (s *Server) LiveRefs() int { return len(s.refs) }

func (s *Server) pageSize() int64 { return int64(s.cfg.Memory.PageSize) }

// --- handlers ---

// handleRegister gives the calling node a VA allocation tree, once: a
// second register from the same node keeps the first one's.
func (s *Server) handleRegister(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	if _, ok := s.vas[ctx.From]; !ok {
		s.vas[ctx.From] = dm.NewVAAllocator(s.cfg.Memory.PageSize, s.cfg.VABase, s.cfg.VALimit)
	}
	return dmwire.RegisterResp{}.Marshal(), nil
}

func (s *Server) va(from simnet.Addr) (*dm.VAAllocator, error) {
	va, ok := s.vas[from]
	if !ok {
		return nil, dm.ErrBadAddress
	}
	return va, nil
}

func (s *Server) handleAlloc(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalAllocReq(body)
	if err != nil {
		return nil, err
	}
	from, size := ctx.From, req.Size
	va, err := s.va(from)
	if err != nil {
		return nil, toAppError(err)
	}
	// The VA tree lookup is the only work: pages are allocated lazily on
	// first write ("When the process first writes to a DM virtual address,
	// a page fault would be triggered", §V-A1).
	ctx.P.Sleep(s.cfg.TranslateTime)
	addr, err := va.Alloc(size)
	if err != nil {
		return nil, toAppError(err)
	}
	return dmwire.AllocResp{Addr: addr}.Marshal(), nil
}

func (s *Server) handleFree(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalFreeReq(body)
	if err != nil {
		return nil, err
	}
	from, addr := ctx.From, req.Addr
	va, err := s.va(from)
	if err != nil {
		return nil, toAppError(err)
	}
	size, err := va.Free(addr)
	if err != nil {
		return nil, toAppError(err)
	}
	pages := dm.PageCount(size, s.cfg.Memory.PageSize)
	if pages == 0 {
		pages = 1 // zero-size regions still own one VA page
	}
	base := uint64(addr) / uint64(s.pageSize())
	var held []memsim.FrameID
	for i := 0; i < pages; i++ {
		key := transKey{from: from, vpage: base + uint64(i)}
		f, ok := s.trans[key]
		if !ok {
			continue // never materialized
		}
		ctx.P.Sleep(s.cfg.TranslateTime)
		delete(s.trans, key)
		held = append(held, f)
	}
	counts := s.dev.AddRefBatch(ctx.P, held, -1)
	for i, f := range held {
		if counts[i] == 0 {
			s.free.Push(f)
		}
	}
	return nil, nil
}

// materialize returns the frame backing (from, vpage), allocating and
// mapping a fresh zeroed frame on first touch (the page-fault path).
func (s *Server) materialize(p *sim.Proc, key transKey) (memsim.FrameID, error) {
	p.Sleep(s.cfg.TranslateTime)
	if f, ok := s.trans[key]; ok {
		return f, nil
	}
	f, ok := s.free.Pop()
	if !ok {
		return memsim.NoFrame, dm.ErrOutOfMemory
	}
	s.faults++
	s.dev.ZeroFrame(p, f)
	s.dev.SetRef(f, 1)
	s.trans[key] = f
	return f, nil
}

// checkRange validates that [addr, addr+size) lies inside one allocated
// region of from's address space and returns the region's first vpage.
func (s *Server) checkRange(from simnet.Addr, addr dm.RemoteAddr, size int64) error {
	va, err := s.va(from)
	if err != nil {
		return err
	}
	base, regSize, err := va.Lookup(addr)
	if err != nil {
		return err
	}
	// Accesses may extend into the page-rounded extent but not past it;
	// match a real allocator's page-granular protection.
	extent := int64(dm.PageCount(regSize, s.cfg.Memory.PageSize)) * s.pageSize()
	if extent == 0 {
		extent = s.pageSize()
	}
	if int64(addr)-int64(base)+size > extent {
		return dm.ErrOutOfRange
	}
	return nil
}

func (s *Server) handleCreateRef(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalCreateRefReq(body)
	if err != nil {
		return nil, err
	}
	from, addr, size := ctx.From, req.Addr, req.Size
	if size <= 0 {
		return nil, toAppError(dm.ErrOutOfRange)
	}
	if err := s.checkRange(from, addr, size); err != nil {
		return nil, toAppError(err)
	}
	basePage := uint64(addr) / uint64(s.pageSize())
	pages := dm.PageCount(int64(uint64(addr)%uint64(s.pageSize()))+size, s.cfg.Memory.PageSize)
	src := make([]memsim.FrameID, 0, pages)
	for i := 0; i < pages; i++ {
		key := transKey{from: from, vpage: basePage + uint64(i)}
		f, err := s.materialize(ctx.P, key)
		if err != nil {
			return nil, toAppError(err)
		}
		src = append(src, f)
	}
	var frames []memsim.FrameID
	if s.cfg.UnconditionalCopy {
		// Naive decoupling: physically copy every page so the ref owns a
		// private snapshot (the -copy baselines of Fig 7). The copy runs
		// at one server core's memcpy rate.
		frames = make([]memsim.FrameID, 0, pages)
		for range src {
			nf, ok := s.free.Pop()
			if !ok {
				s.free.PushAll(frames)
				return nil, toAppError(dm.ErrOutOfMemory)
			}
			frames = append(frames, nf)
		}
		s.dev.CopyFramesCPU(ctx.P, frames, src, s.cfg.CopyBytesPerSecond)
		for _, nf := range frames {
			s.dev.SetRef(nf, 1)
		}
	} else {
		// Copy-on-write: the ref just takes a (batched, pipelined)
		// reference on every page; the refcount > 1 condition is what
		// makes the region effectively read-only for every sharer
		// including the creator (§V-A1).
		s.dev.AddRefBatch(ctx.P, src, 1)
		frames = src
	}
	key := s.nextRefKey
	s.nextRefKey++
	s.refs[key] = &refEntry{frames: frames, size: size}
	return dmwire.RefKeyResp{Key: key}.Append(nil), nil
}

func (s *Server) handleMapRef(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalMapRefReq(body)
	if err != nil {
		return nil, err
	}
	from, key := ctx.From, req.Key
	va, err := s.va(from)
	if err != nil {
		return nil, toAppError(err)
	}
	ref, ok := s.refs[key]
	if !ok {
		return nil, toAppError(dm.ErrBadRef)
	}
	addr, err := va.Alloc(ref.size)
	if err != nil {
		return nil, toAppError(err)
	}
	basePage := uint64(addr) / uint64(s.pageSize())
	for i, f := range ref.frames {
		ctx.P.Sleep(s.cfg.TranslateTime)
		s.trans[transKey{from: from, vpage: basePage + uint64(i)}] = f
	}
	s.dev.AddRefBatch(ctx.P, ref.frames, 1)
	return dmwire.MapRefResp{Addr: addr, Size: ref.size}.Marshal(), nil
}

func (s *Server) handleFreeRef(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalFreeRefReq(body)
	if err != nil {
		return nil, err
	}
	key := req.Key
	ref, ok := s.refs[key]
	if !ok {
		return nil, toAppError(dm.ErrBadRef)
	}
	delete(s.refs, key)
	counts := s.dev.AddRefBatch(ctx.P, ref.frames, -1)
	for i, f := range ref.frames {
		if counts[i] == 0 {
			s.free.Push(f)
		}
	}
	return nil, nil
}

func (s *Server) handleRead(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalReadReq(body)
	if err != nil {
		return nil, err
	}
	from, addr, size := ctx.From, req.Addr, int64(req.Size)
	if err := s.checkRange(from, addr, size); err != nil {
		return nil, toAppError(err)
	}
	out := make([]byte, size)
	off := int64(0)
	for off < size {
		vpage := (uint64(addr) + uint64(off)) / uint64(s.pageSize())
		pageOff := (int64(addr) + off) % s.pageSize()
		n := s.pageSize() - pageOff
		if n > size-off {
			n = size - off
		}
		ctx.P.Sleep(s.cfg.TranslateTime)
		f, mapped := s.trans[transKey{from: from, vpage: vpage}]
		if mapped {
			// "it directly returns the content in the pinned pages without
			// checking the reference count" (§V-A2).
			s.dev.Read(ctx.P, f, int(pageOff), out[off:off+n])
		}
		// Unmapped pages read as zeros without allocating.
		off += n
	}
	return out, nil
}

func (s *Server) handleWrite(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalWriteReq(body)
	if err != nil {
		return nil, err
	}
	from, addr, data := ctx.From, req.Addr, req.Data
	size := int64(len(data))
	if err := s.checkRange(from, addr, size); err != nil {
		return nil, toAppError(err)
	}
	off := int64(0)
	for off < size {
		vpage := (uint64(addr) + uint64(off)) / uint64(s.pageSize())
		pageOff := (int64(addr) + off) % s.pageSize()
		n := s.pageSize() - pageOff
		if n > size-off {
			n = size - off
		}
		f, err := s.writableFrame(ctx.P, transKey{from: from, vpage: vpage})
		if err != nil {
			return nil, toAppError(err)
		}
		s.dev.Write(ctx.P, f, int(pageOff), data[off:off+n])
		off += n
	}
	return nil, nil
}

// handleStage implements the fused staging fast path: allocate fresh
// frames for the payload, fill them, and return a ref holding them — no VA
// region, no extra round trips. Equivalent (including refcounts) to
// ralloc+rwrite+create_ref+rfree.
func (s *Server) handleStage(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalStageReq(body)
	if err != nil {
		return nil, err
	}
	data := req.Data // staging is per-ref: no VA region is involved
	if len(data) == 0 {
		return nil, toAppError(dm.ErrOutOfRange)
	}
	pages := dm.PageCount(int64(len(data)), s.cfg.Memory.PageSize)
	frames := make([]memsim.FrameID, 0, pages)
	for i := 0; i < pages; i++ {
		f, ok := s.free.Pop()
		if !ok {
			// Roll back partial allocation.
			for _, g := range frames {
				s.free.Push(g)
			}
			return nil, toAppError(dm.ErrOutOfMemory)
		}
		s.faults++
		lo := i * s.cfg.Memory.PageSize
		hi := lo + s.cfg.Memory.PageSize
		if hi > len(data) {
			hi = len(data)
		}
		s.dev.Write(ctx.P, f, 0, data[lo:hi])
		s.dev.SetRef(f, 1)
		frames = append(frames, f)
	}
	key := s.nextRefKey
	s.nextRefKey++
	s.refs[key] = &refEntry{frames: frames, size: int64(len(data))}
	return dmwire.RefKeyResp{Key: key}.Append(nil), nil
}

// handleReadRef serves reads straight through a ref key: translation is a
// single ref-map lookup instead of per-page hash probes.
func (s *Server) handleReadRef(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalReadRefReq(body)
	if err != nil {
		return nil, err
	}
	key, off, size := req.Key, int64(req.Off), int64(req.Size)
	ref, ok := s.refs[key]
	if !ok {
		return nil, toAppError(dm.ErrBadRef)
	}
	if off < 0 || size < 0 || off+size > ref.size {
		return nil, toAppError(dm.ErrOutOfRange)
	}
	ctx.P.Sleep(s.cfg.TranslateTime)
	out := make([]byte, size)
	pos := int64(0)
	for pos < size {
		page := int((off + pos) / s.pageSize())
		pageOff := (off + pos) % s.pageSize()
		n := s.pageSize() - pageOff
		if n > size-pos {
			n = size - pos
		}
		s.dev.Read(ctx.P, ref.frames[page], int(pageOff), out[pos:pos+n])
		pos += n
	}
	return out, nil
}

// handleConsumeRef is read_ref followed by free_ref, so the simulated
// server serves the same Table II ops as the live one.
func (s *Server) handleConsumeRef(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	out, err := s.handleReadRef(ctx, body)
	if err != nil {
		return nil, err
	}
	req, _ := dmwire.UnmarshalReadRefReq(body) // handleReadRef decoded it
	if _, err := s.handleFreeRef(ctx, dmwire.FreeRefReq{Key: req.Key}.Append(nil)); err != nil {
		return nil, err
	}
	return out, nil
}

// handleAdoptRef republishes a ref under a new key, as the live server's
// adopt_ref does: the old key dies, no frame is copied and no refcount
// moves. The simulated server keeps neither ref owners nor a directory,
// so ownership passes with the key alone and the replica list is unused.
func (s *Server) handleAdoptRef(ctx *rpc.Ctx, body []byte) ([]byte, error) {
	req, err := dmwire.UnmarshalAdoptRefReq(body)
	if err != nil {
		return nil, err
	}
	if req.NewKey != 0 && req.NewKey&dmwire.ReplicaKeyBit == 0 {
		return nil, toAppError(errAdoptKeySpace)
	}
	if _, err := s.va(ctx.From); err != nil {
		return nil, toAppError(err)
	}
	ctx.P.Sleep(s.cfg.TranslateTime)
	ref, ok := s.refs[req.Key]
	if !ok {
		return nil, toAppError(dm.ErrBadRef)
	}
	key := req.NewKey
	if key == 0 {
		key = s.nextRefKey
		s.nextRefKey++
	}
	if _, dup := s.refs[key]; dup {
		return nil, toAppError(dm.ErrRefExists)
	}
	delete(s.refs, req.Key)
	s.refs[key] = ref
	return dmwire.RefKeyResp{Key: key}.Append(nil), nil
}

// errAdoptKeySpace rejects a caller-chosen adopt_ref key that could
// collide with the server's own counter-minted keys.
var errAdoptKeySpace = errors.New("dmnet: adopt_ref key outside replica key space")

// CheckInvariants validates the page manager's bookkeeping:
//
//  1. every frame's device refcount equals the number of translation
//     entries pointing at it plus the number of refs holding it;
//  2. no frame is both free and referenced;
//  3. free + live frames account for every frame exactly once.
//
// It exists for tests and property checks; it is O(pages) and takes no
// simulated time.
func (s *Server) CheckInvariants() error {
	holds := make(map[memsim.FrameID]int32)
	for _, f := range s.trans {
		holds[f]++
	}
	for _, ref := range s.refs {
		for _, f := range ref.frames {
			holds[f]++
		}
	}
	for f, want := range holds {
		if got := s.dev.RefCount(f); got != want {
			return fmt.Errorf("frame %d refcount %d, want %d holds", f, got, want)
		}
	}
	free := make(map[memsim.FrameID]bool)
	freeN := s.free.Len()
	for _, f := range s.free.PopN(freeN) {
		if free[f] {
			return fmt.Errorf("frame %d on free list twice", f)
		}
		free[f] = true
		s.free.Push(f)
	}
	for f := range holds {
		if free[f] {
			return fmt.Errorf("frame %d is both free and referenced", f)
		}
		if got := s.dev.RefCount(f); got == 0 {
			return fmt.Errorf("live frame %d has zero refcount", f)
		}
	}
	if len(free)+len(holds) != s.cfg.Memory.NumPages {
		return fmt.Errorf("frames leak: %d free + %d live != %d total",
			len(free), len(holds), s.cfg.Memory.NumPages)
	}
	return nil
}

// writableFrame returns a frame the caller may write through (from, vpage),
// running the copy-on-write protocol of §V-A2: if the page is shared
// (refcount > 1), pop a fresh page, copy, drop one reference on the old
// page and retarget the translation entry.
func (s *Server) writableFrame(p *sim.Proc, key transKey) (memsim.FrameID, error) {
	f, err := s.materialize(p, key)
	if err != nil {
		return memsim.NoFrame, err
	}
	if s.dev.LoadRef(p, f) > 1 {
		nf, ok := s.free.Pop()
		if !ok {
			return memsim.NoFrame, dm.ErrOutOfMemory
		}
		s.cowCopies++
		s.dev.CopyFramesCPU(p, []memsim.FrameID{nf}, []memsim.FrameID{f}, s.cfg.CopyBytesPerSecond)
		s.dev.AddRef(p, f, -1)
		s.dev.SetRef(nf, 1)
		s.trans[key] = nf
		f = nf
	}
	return f, nil
}
