package lib

// checkedByHook is called only from the -tags invariants build.
func checkedByHook() bool { return true }
