//go:build invariants

package core

import (
	"fmt"

	"scmp/internal/mtree"
	"scmp/internal/topology"
)

// commitCheck re-checks every tree the m-router commits: rooted at the
// active m-router's home node, then everything (*mtree.Tree).Validate
// proves — acyclic, connected over real links, symmetric pointers,
// members on-tree, no unpruned leaf. The delay bound is deliberately
// not asserted here — DCDM's relative bound shrinks when the farthest
// member leaves without restructuring the survivors, so committed trees
// only promise the bound at join time. A failure is a protocol bug and
// panics.
func commitCheck(home topology.NodeID, t *mtree.Tree) {
	if root := t.Root(); root != home {
		panic(fmt.Sprintf("core: committed tree rooted at %d, want m-router home %d", root, home))
	}
	if err := t.Validate(); err != nil {
		panic("core: committed tree violates invariant: " + err.Error())
	}
}
