// Package packet defines the packet taxonomy shared by every protocol in
// the simulator, plus the wire encodings of SCMP's self-routing TREE and
// BRANCH packets (§III-E of the paper).
//
// Overhead accounting follows the paper: a packet crossing a link
// contributes that link's cost to either the data overhead or the
// protocol overhead, depending on the packet's Class. Byte sizes are
// additionally tracked so the TREE-vs-BRANCH trade-off (a whole-subtree
// packet is "too expensive" for a minor change) is measurable.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"scmp/internal/topology"
)

// GroupID identifies a multicast group.
type GroupID uint32

// Kind enumerates every packet type any protocol sends.
type Kind int

const (
	// Shared.
	Data      Kind = iota // native multicast data
	EncapData             // data unicast-encapsulated toward the m-router/core

	// SCMP control (§III).
	Join   // DR -> m-router: group membership gained
	Leave  // DR -> m-router: group membership lost
	Tree   // m-router -> subtree: self-routing whole-subtree install
	Branch // m-router -> new member: single-path install
	Prune  // leaf -> upstream: hop-by-hop branch teardown
	Flush  // upstream -> stale child: cascade teardown after restructure

	// SCMP hot-standby replication (§V): the primary m-router streams
	// membership changes to the secondary so it can take over.
	Replicate

	// SCMP reliability and local repair (fault model): the m-router
	// acknowledges reliable JOIN/LEAVE/REJOIN requests, and an i-router
	// whose upstream link died re-homes its orphaned subtree with a
	// REJOIN toward the m-router.
	Ack
	Rejoin

	// DVMRP control.
	DvmrpPrune
	DvmrpGraft

	// MOSPF control.
	GroupLSA // flooded group-membership LSA

	// CBT control.
	CbtJoin
	CbtJoinAck
	CbtQuit

	// SCMP overload protection (churn model): the m-router refuses an
	// admission-controlled JOIN and tells the requester when to retry.
	Nack
)

// NumKinds is the number of defined packet kinds. Kind values are dense
// from 0, so hot-path per-kind counters can live in fixed-size arrays
// indexed by Kind instead of maps (internal/metrics).
const NumKinds = int(Nack) + 1

var kindNames = map[Kind]string{
	Data: "DATA", EncapData: "ENCAP-DATA",
	Join: "JOIN", Leave: "LEAVE", Tree: "TREE", Branch: "BRANCH",
	Prune: "PRUNE", Flush: "FLUSH", Replicate: "REPLICATE",
	Ack: "ACK", Rejoin: "REJOIN",
	DvmrpPrune: "DVMRP-PRUNE", DvmrpGraft: "DVMRP-GRAFT",
	GroupLSA: "GROUP-LSA",
	CbtJoin:  "CBT-JOIN", CbtJoinAck: "CBT-JOIN-ACK", CbtQuit: "CBT-QUIT",
	Nack: "NACK",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Class partitions packets into the paper's two overhead buckets.
type Class int

const (
	ClassData     Class = iota // counted as data overhead
	ClassProtocol              // counted as protocol overhead
)

// ClassOf returns the overhead bucket for a packet kind. Encapsulated
// data is still data: the paper charges its detour to data overhead.
func ClassOf(k Kind) Class {
	switch k {
	case Data, EncapData:
		return ClassData
	default:
		return ClassProtocol
	}
}

// Nominal byte sizes. Control packets are small and fixed; a TREE or
// BRANCH packet is its encoding behind a TreeHeaderSize header; data
// defaults to DefaultDataSize, and data encapsulated toward the
// m-router (or CBT's core) carries EncapHeaderSize more.
const (
	ControlSize     = 64
	DefaultDataSize = 1000
	TreeHeaderSize  = 8  // in front of a TREE or BRANCH encoding
	EncapHeaderSize = 20 // IP-in-IP encapsulation
)

// --- TREE packet encoding (§III-E) -----------------------------------
//
// The paper's TREE packet for a router lists the router's downstream
// routers and, per downstream router, a recursive subpacket describing
// the subtree hanging below it:
//
//	count | addr_1 len_1 sub_1 | addr_2 len_2 sub_2 | ...
//
// We encode count/addr/len as big-endian uint32. A leaf subtree encodes
// to the 4 bytes 00 00 00 00, the paper's "(0)".

// Subtree is the decoded form of a TREE packet: the children hanging
// below the receiving router, each with its own subtree.
type Subtree struct {
	Children []Child
}

// Child pairs a downstream router with the subtree below it.
type Child struct {
	Addr topology.NodeID
	Sub  Subtree
}

// EncodeSubtree renders a Subtree in the paper's recursive TREE format.
func EncodeSubtree(s Subtree) []byte {
	return AppendSubtree(make([]byte, 0, s.EncodedSize()), s)
}

// AppendSubtree appends the TREE encoding of s to buf and returns the
// extended buffer. Subpacket lengths are precomputed (EncodedSize), so
// the encode is one pass over the output with no temporary buffers —
// the caller controls the only allocation.
func AppendSubtree(buf []byte, s Subtree) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Children)))
	for _, c := range s.Children {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.Addr))
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.Sub.EncodedSize()))
		buf = AppendSubtree(buf, c.Sub)
	}
	return buf
}

// EncodedSize returns the exact byte length of s's TREE encoding.
func (s Subtree) EncodedSize() int {
	n := 4
	for _, c := range s.Children {
		n += 8 + c.Sub.EncodedSize()
	}
	return n
}

// ErrTruncated reports a TREE/BRANCH payload shorter than its headers
// claim.
var ErrTruncated = errors.New("packet: truncated payload")

// DecodeSubtree parses a TREE payload. It rejects trailing garbage and
// truncated subpackets.
func DecodeSubtree(b []byte) (Subtree, error) {
	s, rest, err := decodeSubtree(b)
	if err != nil {
		return Subtree{}, err
	}
	if len(rest) != 0 {
		return Subtree{}, fmt.Errorf("packet: %d trailing bytes after TREE payload", len(rest))
	}
	return s, nil
}

func decodeSubtree(b []byte) (Subtree, []byte, error) {
	if len(b) < 4 {
		return Subtree{}, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	s := Subtree{}
	for i := uint32(0); i < n; i++ {
		if len(b) < 8 {
			return Subtree{}, nil, ErrTruncated
		}
		addr := topology.NodeID(binary.BigEndian.Uint32(b))
		subLen := binary.BigEndian.Uint32(b[4:])
		b = b[8:]
		if uint32(len(b)) < subLen {
			return Subtree{}, nil, ErrTruncated
		}
		sub, rest, err := decodeSubtree(b[:subLen])
		if err != nil {
			return Subtree{}, nil, err
		}
		if len(rest) != 0 {
			return Subtree{}, nil, fmt.Errorf("packet: subpacket length mismatch at child %d", addr)
		}
		b = b[subLen:]
		s.Children = append(s.Children, Child{Addr: addr, Sub: sub})
	}
	return s, b, nil
}

// ChildPayload pairs a downstream router with the verbatim TREE
// sub-payload encoding the subtree below it.
type ChildPayload struct {
	Addr topology.NodeID
	Sub  []byte
}

// SplitSubtree validates a TREE payload and splits it into its
// immediate children, each paired with the sub-payload slice (aliasing
// b) that encodes the subtree below it. The recursive format embeds
// every child's encoding verbatim, so a router forwarding a TREE
// packet hands those slices on unchanged — per-hop TREE forwarding
// re-encodes nothing. Children are appended to out (pass a reusable
// scratch slice to avoid allocation). The whole payload is walked, so
// validation is as strict as DecodeSubtree's.
func SplitSubtree(b []byte, out []ChildPayload) ([]ChildPayload, error) {
	if len(b) < 4 {
		return out, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < n; i++ {
		if len(b) < 8 {
			return out, ErrTruncated
		}
		addr := topology.NodeID(binary.BigEndian.Uint32(b))
		subLen := binary.BigEndian.Uint32(b[4:])
		b = b[8:]
		if uint32(len(b)) < subLen {
			return out, ErrTruncated
		}
		sub := b[:subLen:subLen]
		if err := validateSubtree(sub); err != nil {
			return out, err
		}
		b = b[subLen:]
		out = append(out, ChildPayload{Addr: addr, Sub: sub})
	}
	if len(b) != 0 {
		return out, fmt.Errorf("packet: %d trailing bytes after TREE payload", len(b))
	}
	return out, nil
}

// validateSubtree checks one subpacket is exactly one well-formed TREE
// encoding, without materialising it.
func validateSubtree(b []byte) error {
	rest, err := skipSubtree(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("packet: %d trailing bytes after TREE subpacket", len(rest))
	}
	return nil
}

func skipSubtree(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < n; i++ {
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		addr := topology.NodeID(binary.BigEndian.Uint32(b))
		subLen := binary.BigEndian.Uint32(b[4:])
		b = b[8:]
		if uint32(len(b)) < subLen {
			return nil, ErrTruncated
		}
		if err := validateSubtree(b[:subLen]); err != nil {
			if err == ErrTruncated {
				return nil, ErrTruncated
			}
			return nil, fmt.Errorf("packet: subpacket length mismatch at child %d", addr)
		}
		b = b[subLen:]
	}
	return b, nil
}

// TreeLike is the read-only view of a multicast tree that BuildSubtree
// needs; *mtree.Tree satisfies it.
type TreeLike interface {
	Children(v topology.NodeID) []topology.NodeID
}

// BuildSubtree extracts the Subtree below node v from a tree, children
// in ascending-address order (deterministic encodings).
func BuildSubtree(t TreeLike, v topology.NodeID) Subtree {
	kids := append([]topology.NodeID(nil), t.Children(v)...)
	sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	s := Subtree{}
	for _, c := range kids {
		s.Children = append(s.Children, Child{Addr: c, Sub: BuildSubtree(t, c)})
	}
	return s
}

// AppendTree appends the TREE encoding of the subtree below v in t to
// buf — the bytes AppendSubtree(buf, BuildSubtree(t, v)) produces —
// without materialising the Subtree: children are taken in ascending
// order by selection, and each subpacket's length field is filled in
// once the subpacket is written. Steady-state encodes into a reused
// buffer allocate nothing.
func AppendTree(buf []byte, t TreeLike, v topology.NodeID) []byte {
	kids := t.Children(v)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(kids)))
	for i, last := 0, topology.NodeID(-1); i < len(kids); i++ {
		next := topology.NodeID(-1)
		for _, c := range kids {
			if c > last && (next < 0 || c < next) {
				next = c
			}
		}
		last = next
		buf = binary.BigEndian.AppendUint32(buf, uint32(next))
		at := len(buf)
		buf = AppendTree(append(buf, 0, 0, 0, 0), t, next)
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf
}

// --- BRANCH packet encoding (§III-E) ----------------------------------
//
// A BRANCH packet is the ordered list of routers from the current router
// to the new group member: count | addr_1 | ... | addr_count.

// EncodeBranch renders the router sequence of a BRANCH packet.
func EncodeBranch(path []topology.NodeID) []byte {
	return AppendBranch(make([]byte, 0, 4+4*len(path)), path)
}

// AppendBranch appends the BRANCH encoding of path to buf.
func AppendBranch(buf []byte, path []topology.NodeID) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(path)))
	for _, v := range path {
		buf = binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// DecodeBranch parses a BRANCH payload.
func DecodeBranch(b []byte) ([]topology.NodeID, error) {
	return DecodeBranchTo(b, make([]topology.NodeID, 0, max(len(b)-4, 0)/4))
}

// DecodeBranchTo parses a BRANCH payload, appending the path to out
// (pass a reusable scratch slice to avoid allocation). On error it
// returns nil.
func DecodeBranchTo(b []byte, out []topology.NodeID) ([]topology.NodeID, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) != 4*uint64(n) {
		return nil, fmt.Errorf("packet: BRANCH claims %d hops, has %d bytes", n, len(b))
	}
	for ; len(b) > 0; b = b[4:] {
		out = append(out, topology.NodeID(binary.BigEndian.Uint32(b)))
	}
	return out, nil
}

// --- REPLICATE payload (§V hot standby) ---------------------------------
//
// A REPLICATE snapshot carries a group's full member set from the
// primary m-router to the hot standby, in the same count|addr_1|...
// layout as BRANCH (AppendBranch, DecodeBranchTo). Snapshots (rather
// than join/leave deltas) keep replication idempotent: a retransmitted
// or superseded copy can never roll the replica back, so the
// reliable-signalling machinery can carry it over a lossy control
// channel.

// --- ACK packet encoding (fault model) ---------------------------------
//
// An ACK confirms one reliable control request. It echoes the request's
// kind and sequence number so the requester can match it against its
// retransmission state: req_kind (uint32) | req_seq (uint64), all
// big-endian.

// AckInfo is the decoded form of an ACK payload.
type AckInfo struct {
	Req Kind   // the request kind being acknowledged (Join, Leave, Rejoin)
	Seq uint64 // the request's sequence number, echoed verbatim
}

// EncodeAck renders an ACK payload.
func EncodeAck(a AckInfo) []byte {
	return AppendAck(make([]byte, 0, 12), a)
}

// AppendAck appends the ACK encoding of a to buf.
func AppendAck(buf []byte, a AckInfo) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Req))
	return binary.BigEndian.AppendUint64(buf, a.Seq)
}

// DecodeAck parses an ACK payload, rejecting truncation and trailing
// garbage.
func DecodeAck(b []byte) (AckInfo, error) {
	if len(b) < 12 {
		return AckInfo{}, ErrTruncated
	}
	if len(b) != 12 {
		return AckInfo{}, fmt.Errorf("packet: %d trailing bytes after ACK payload", len(b)-12)
	}
	return AckInfo{
		Req: Kind(binary.BigEndian.Uint32(b)),
		Seq: binary.BigEndian.Uint64(b[4:]),
	}, nil
}

// --- REJOIN packet encoding (fault model) ------------------------------
//
// A REJOIN is sent by an i-router whose upstream tree link died: it asks
// the m-router to prune the orphaned subtree from its tree copy and
// re-graft the stranded members. The payload names the detached router
// (the subtree root) and the dead upstream neighbour:
// detached (uint32) | dead_upstream (uint32), big-endian.

// RejoinInfo is the decoded form of a REJOIN payload.
type RejoinInfo struct {
	Detached topology.NodeID // the router whose upstream link died
	Dead     topology.NodeID // the unreachable upstream neighbour
}

// AppendRejoin appends the REJOIN encoding of r to buf.
func AppendRejoin(buf []byte, r RejoinInfo) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Detached))
	return binary.BigEndian.AppendUint32(buf, uint32(r.Dead))
}

// DecodeRejoin parses a REJOIN payload, rejecting truncation and
// trailing garbage.
func DecodeRejoin(b []byte) (RejoinInfo, error) {
	if len(b) < 8 {
		return RejoinInfo{}, ErrTruncated
	}
	if len(b) != 8 {
		return RejoinInfo{}, fmt.Errorf("packet: %d trailing bytes after REJOIN payload", len(b)-8)
	}
	return RejoinInfo{
		Detached: topology.NodeID(binary.BigEndian.Uint32(b)),
		Dead:     topology.NodeID(binary.BigEndian.Uint32(b[4:])),
	}, nil
}

// --- NACK packet encoding (overload model) -----------------------------
//
// A NACK is the m-router's admission-control refusal of one reliable
// control request: it echoes the request's kind and sequence number
// (like an ACK) and adds a retry-after hint — the seconds the requester
// should wait before retransmitting, derived from the m-router's
// current service backlog: req_kind (uint32) | req_seq (uint64) |
// retry_after (float64 bits as uint64), all big-endian.

// NackInfo is the decoded form of a NACK payload.
type NackInfo struct {
	Req        Kind    // the refused request kind (Join, Rejoin)
	Seq        uint64  // the request's sequence number, echoed verbatim
	RetryAfter float64 // seconds to wait before retransmitting
}

// AppendNack appends the NACK encoding of n to buf.
func AppendNack(buf []byte, n NackInfo) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(n.Req))
	buf = binary.BigEndian.AppendUint64(buf, n.Seq)
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(n.RetryAfter))
}

// DecodeNack parses a NACK payload, rejecting truncation, trailing
// garbage, and a retry-after that is not a finite non-negative delay —
// scheduling a timer NaN or ±Inf seconds out would corrupt the event
// queue's time order.
func DecodeNack(b []byte) (NackInfo, error) {
	if len(b) < 20 {
		return NackInfo{}, ErrTruncated
	}
	if len(b) != 20 {
		return NackInfo{}, fmt.Errorf("packet: %d trailing bytes after NACK payload", len(b)-20)
	}
	wait := math.Float64frombits(binary.BigEndian.Uint64(b[12:]))
	if math.IsNaN(wait) || math.IsInf(wait, 0) || wait < 0 {
		return NackInfo{}, fmt.Errorf("packet: NACK retry-after %g is not a finite non-negative delay", wait)
	}
	return NackInfo{
		Req:        Kind(binary.BigEndian.Uint32(b)),
		Seq:        binary.BigEndian.Uint64(b[4:]),
		RetryAfter: wait,
	}, nil
}
