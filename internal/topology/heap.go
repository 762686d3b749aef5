package topology

// frontier is the indexed 4-ary min-heap of a Dijkstra search's queued
// routers. It holds router ids only — four bytes an entry — and reads
// each key through the row's dist array, so the heap can live inside
// the row it serves (see Paths) and a suspended search costs no memory
// a complete row does not. The 4-ary shape halves the tree depth of a
// binary heap, trading slightly wider sift-down scans for fewer levels
// per percolation.
//
// The heap is *indexed*: pos tracks each queued router's heap index, so a
// relaxation that improves an already-queued router decreases its key
// in place instead of pushing a duplicate. The heap never exceeds |V|
// entries and each router pops exactly once.
//
// Ordering is the explicit tie-break ladder (dist, then router id):
// strictly smaller dist wins, and an exact dist tie is broken by the
// lower id. Exact float ties between independently summed path lengths
// are representation-dependent, so the ladder never decides them
// implicitly by heap layout — pop order is a pure function of the set
// of queued (router, key) pairs.
//
// A frontier is a view: items, pos and dist alias the row's arrays, and
// the caller stores len(items) back when it is done.
type frontier struct {
	items []int32   // heap of routers; cap is the row's whole order array
	pos   []int32   // pos[v]: v's heap index while queued, posUnseen / posSettled otherwise
	dist  []float64 // dist[v]: v's key
}

const (
	posUnseen  int32 = -1 // never labelled
	posSettled int32 = -2 // popped: label and parent are final
)

// less is the (dist, id) ladder over routers a and b with keys da and db.
// Written as two strict comparisons — never float equality — so NaNs
// sink and exact ties fall through to the id comparison.
func (h *frontier) less(a int32, da float64, b int32, db float64) bool {
	if da < db {
		return true
	}
	if db < da {
		return false
	}
	return a < b
}

// push queues router v, or restores the heap after v's key decreased when
// it is already queued; dist[v] holds the new key. Keys never increase
// during Dijkstra, so an existing entry only ever sifts up.
func (h *frontier) push(v int32) {
	i := int(h.pos[v])
	if i < 0 {
		i = len(h.items)
		h.items = h.items[:i+1]
	}
	dv := h.dist[v]
	for i > 0 {
		parent := (i - 1) >> 2
		q := h.items[parent]
		if !h.less(v, dv, q, h.dist[q]) {
			break
		}
		h.items[i] = q
		h.pos[q] = int32(i)
		i = parent
	}
	h.items[i] = v
	h.pos[v] = int32(i)
}

// pop removes and returns the minimum router, marking it settled.
func (h *frontier) pop() int32 {
	top := h.items[0]
	h.pos[top] = posSettled
	last := len(h.items) - 1
	it := h.items[last]
	h.items = h.items[:last]
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root.
	dit := h.dist[it]
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		end := first + 4
		if end > last {
			end = last
		}
		mi, min := first, h.items[first]
		dmin := h.dist[min]
		for c := first + 1; c < end; c++ {
			q := h.items[c]
			if dq := h.dist[q]; h.less(q, dq, min, dmin) {
				mi, min, dmin = c, q, dq
			}
		}
		if !h.less(min, dmin, it, dit) {
			break
		}
		h.items[i] = min
		h.pos[min] = int32(i)
		i = mi
	}
	h.items[i] = it
	h.pos[it] = int32(i)
	return top
}
