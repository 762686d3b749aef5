//go:build !invariants

package core

import (
	"scmp/internal/mtree"
	"scmp/internal/topology"
)

// commitCheck is a no-op unless built with -tags invariants, which
// turns it into a root check plus (*mtree.Tree).Validate on every tree
// the m-router commits.
func commitCheck(topology.NodeID, *mtree.Tree) {}
