package mtree

// Rescans returns how many member rescans of the delay bound Leave and
// DetachSubtree have run.
func (d *DCDM) Rescans() int { return d.rescans }

// Visits returns how many routers the tree's prune walks have tested.
func (t *Tree) Visits() int { return t.visits }
