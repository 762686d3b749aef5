package mtree

// Rescans returns how many member rescans of the delay bound Leave and
// DetachSubtree have run.
func (d *DCDM) Rescans() int { return d.rescans }
