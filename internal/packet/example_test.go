package packet_test

import (
	"fmt"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// ExampleEncodeSubtree encodes the paper's §III-E worked example: the
// subtree rooted at node 2 with children 4 (a leaf), 5 (children 7 and
// 8) and 6 (child 9).
func ExampleEncodeSubtree() {
	sub := packet.Subtree{Children: []packet.Child{
		{Addr: 4},
		{Addr: 5, Sub: packet.Subtree{Children: []packet.Child{{Addr: 7}, {Addr: 8}}}},
		{Addr: 6, Sub: packet.Subtree{Children: []packet.Child{{Addr: 9}}}},
	}}
	enc := packet.EncodeSubtree(sub)
	dec, err := packet.DecodeSubtree(enc)
	if err != nil {
		fmt.Println("decode:", err)
		return
	}
	fmt.Println("bytes:", len(enc))
	// An i-router splits the packet: child 5's subpacket describes its
	// own subtree.
	fmt.Println("node 5's children:", len(dec.Children[1].Sub.Children))
	// Output:
	// bytes: 76
	// node 5's children: 2
}

// ExampleEncodeBranch encodes the paper's BRANCH example: the path
// (2, 4, 10) toward new member 10.
func ExampleEncodeBranch() {
	path := []topology.NodeID{2, 4, 10}
	dec, _ := packet.DecodeBranch(packet.EncodeBranch(path))
	fmt.Println(dec)
	// The receiving router pops itself and forwards the rest.
	rest := dec[1:]
	fmt.Println(rest)
	// Output:
	// [2 4 10]
	// [4 10]
}
