// Package dmnet implements DmRPC-net's disaggregated memory layer (paper
// §V-A) over the simulated datacenter: a DM server with a page manager
// (FIFO free list, per-process VA allocation trees, page reference counts,
// a ref key map) and an address translator (hash table from DM virtual
// pages to pinned frames), plus the client library issuing
// ralloc/rfree/create_ref/map_ref/rread/rwrite over the RPC layer, with
// allocation requests round-robined across servers.
//
// The wire protocol lives in internal/dmwire and is shared with the live
// TCP implementation in internal/live.
package dmnet

import (
	"repro/internal/dmwire"
	"repro/internal/rpc"
)

// Method aliases, re-exported from dmwire for callers of this backend.
const (
	MRegister  = dmwire.MRegister
	MAlloc     = dmwire.MAlloc
	MFree      = dmwire.MFree
	MCreateRef = dmwire.MCreateRef
	MMapRef    = dmwire.MMapRef
	MFreeRef   = dmwire.MFreeRef
	MRead      = dmwire.MRead
	MWrite     = dmwire.MWrite
	MStage     = dmwire.MStage
	MReadRef   = dmwire.MReadRef
	// MConsumeRef is read_ref and free_ref in one exchange.
	MConsumeRef = dmwire.MConsumeRef
	// MAdoptRef moves a ref to a new key in one exchange.
	MAdoptRef = dmwire.MAdoptRef
)

// toAppError maps shared dm errors onto wire statuses.
func toAppError(err error) *rpc.AppError {
	return &rpc.AppError{Status: dmwire.StatusOf(err), Msg: err.Error()}
}

// fromAppError maps wire statuses back to shared dm errors so client code
// can compare against dm.Err* sentinels.
func fromAppError(err error) error {
	ae, ok := err.(*rpc.AppError)
	if !ok {
		return err
	}
	return dmwire.ErrOf(ae.Status, ae.Msg)
}
