//go:build invariants

package mtree

import "fmt"

// InvariantChecksArmed reports whether the runtime invariant hooks are
// compiled in. Allocation-floor tests consult it: the per-mutation
// Validate pass allocates freely, so steady-state alloc budgets only
// hold in untagged builds.
const InvariantChecksArmed = true

// treeCheckHook re-validates the tree after every DCDM Join/Leave. The
// safe mutators are supposed to make corruption impossible, so a
// failure here is a bug in this package and panics. (Rootedness at the
// active m-router's home is checked in core's commit hook, which knows
// the home; a Tree only knows its own root.)
func treeCheckHook(t *Tree) {
	if err := t.Validate(); err != nil {
		panic("mtree: invariant violated after tree mutation: " + err.Error())
	}
}

// hierCheckHook re-validates the hierarchical composer's composed/local
// consistency contract after every HierDCDM mutation (see
// HierDCDM.Validate).
func hierCheckHook(h *HierDCDM) {
	if err := h.Validate(); err != nil {
		panic("mtree: hierarchical invariant violated: " + err.Error())
	}
}

// dcdmCheckHook extends treeCheckHook with the bound cross-check: maxUL
// must agree exactly with a from-scratch rescan of the member set.
func dcdmCheckHook(d *DCDM) {
	treeCheckHook(d.tree)
	if got, want := d.maxUL, d.recomputeMaxUL(); got != want {
		panic(fmt.Sprintf("mtree: incremental maxUL %g diverged from member rescan %g", got, want))
	}
}
