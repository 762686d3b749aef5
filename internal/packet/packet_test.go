package packet

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"scmp/internal/topology"
)

func TestKindStrings(t *testing.T) {
	if Data.String() != "DATA" || Tree.String() != "TREE" || CbtQuit.String() != "CBT-QUIT" {
		t.Fatal("kind names wrong")
	}
	if Kind(999).String() != "Kind(999)" {
		t.Fatalf("unknown kind = %q", Kind(999).String())
	}
	// Kinds are dense from 0 and NACK is the last: every kind below
	// NumKinds is named, and none at or above it.
	if Nack.String() != "NACK" || int(Nack) != NumKinds-1 || len(kindNames) != NumKinds {
		t.Fatalf("NACK = %d %q, NumKinds = %d, %d names", Nack, Nack, NumKinds, len(kindNames))
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if _, ok := kindNames[k]; !ok {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(Data) != ClassData || ClassOf(EncapData) != ClassData {
		t.Fatal("data kinds misclassified")
	}
	for _, k := range []Kind{Join, Leave, Tree, Branch, Prune, Flush, Replicate, Ack, Rejoin, DvmrpPrune, DvmrpGraft, GroupLSA, CbtJoin, CbtJoinAck, CbtQuit, Nack} {
		if ClassOf(k) != ClassProtocol {
			t.Fatalf("%v misclassified as data", k)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	in := AckInfo{Req: Rejoin, Seq: 1<<40 | 17}
	out, err := DecodeAck(EncodeAck(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

func TestAckErrors(t *testing.T) {
	full := EncodeAck(AckInfo{Req: Join, Seq: 9})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeAck(full[:i]); err == nil {
			t.Errorf("truncated ACK of %d bytes accepted", i)
		}
	}
	if _, err := DecodeAck(append(full, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestNackRoundTrip(t *testing.T) {
	in := NackInfo{Req: Join, Seq: 1<<33 | 5, RetryAfter: 0.125}
	out, err := DecodeNack(AppendNack(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

func TestNackErrors(t *testing.T) {
	full := AppendNack(nil, NackInfo{Req: Join, Seq: 3, RetryAfter: 1})
	if len(full) != 20 {
		t.Fatalf("NACK payload = %d bytes, want 20", len(full))
	}
	for i := 0; i < len(full); i++ {
		if _, err := DecodeNack(full[:i]); err == nil {
			t.Errorf("truncated NACK of %d bytes accepted", i)
		}
	}
	if _, err := DecodeNack(append(full, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	for _, wait := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if n, err := DecodeNack(AppendNack(nil, NackInfo{Req: Join, Seq: 3, RetryAfter: wait})); err == nil {
			t.Errorf("retry-after %g accepted as %+v", wait, n)
		}
	}
}

func TestRejoinRoundTrip(t *testing.T) {
	in := RejoinInfo{Detached: 12, Dead: 4}
	out, err := DecodeRejoin(AppendRejoin(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

func TestRejoinErrors(t *testing.T) {
	full := AppendRejoin(nil, RejoinInfo{Detached: 1, Dead: 2})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeRejoin(full[:i]); err == nil {
			t.Errorf("truncated REJOIN of %d bytes accepted", i)
		}
	}
	if _, err := DecodeRejoin(append(full, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestEncodeLeafSubtree(t *testing.T) {
	b := EncodeSubtree(Subtree{})
	if !bytes.Equal(b, []byte{0, 0, 0, 0}) {
		t.Fatalf("leaf encoding = %v, want the paper's (0)", b)
	}
}

// TestPaperExample reproduces the §III-E worked example: the subtree
// rooted at node 2 with children 4 (leaf), 5 (children 7, 8) and
// 6 (child 9). The paper writes the packet as
// (3; 4,1,(0); 5,7,(2;7,1,(0);8,1,(0)); 6,4,(1;9,1,(0)))
// with lengths in field counts; ours are in bytes but the structure is
// identical.
func TestPaperExample(t *testing.T) {
	node5 := Subtree{Children: []Child{{Addr: 7}, {Addr: 8}}}
	node6 := Subtree{Children: []Child{{Addr: 9}}}
	root := Subtree{Children: []Child{{Addr: 4}, {Addr: 5, Sub: node5}, {Addr: 6, Sub: node6}}}

	enc := EncodeSubtree(root)
	if got := binary.BigEndian.Uint32(enc); got != 3 {
		t.Fatalf("child count = %d, want 3", got)
	}
	dec, err := DecodeSubtree(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, root) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, root)
	}
	// The split an i-router performs: child 5's subpacket alone must
	// decode to node5.
	sub5 := EncodeSubtree(node5)
	dec5, err := DecodeSubtree(sub5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec5, node5) {
		t.Fatal("subpacket split mismatch")
	}
}

func TestDecodeSubtreeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"short count":      {0, 0, 0},
		"missing child":    {0, 0, 0, 1},
		"truncated subpkt": append(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), 7), 10), 1, 2),
		"trailing garbage": append(EncodeSubtree(Subtree{}), 0xFF),
	}
	for name, b := range cases {
		if _, err := DecodeSubtree(b); err == nil {
			t.Errorf("%s: decode accepted %v", name, b)
		}
	}
}

// SplitSubtree must hand out per-child slices byte-identical to
// re-encoding each child's subtree — that equivalence is what lets the
// TREE forwarding path slice instead of decode+encode.
func TestSplitSubtreeMatchesReencode(t *testing.T) {
	root := Subtree{Children: []Child{
		{Addr: 4},
		{Addr: 5, Sub: Subtree{Children: []Child{
			{Addr: 7, Sub: Subtree{Children: []Child{{Addr: 9}}}},
			{Addr: 8},
		}}},
	}}
	enc := EncodeSubtree(root)
	children, err := SplitSubtree(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != len(root.Children) {
		t.Fatalf("split %d children, want %d", len(children), len(root.Children))
	}
	for i, c := range children {
		if c.Addr != root.Children[i].Addr {
			t.Fatalf("child %d addr = %d, want %d", i, c.Addr, root.Children[i].Addr)
		}
		if want := EncodeSubtree(root.Children[i].Sub); !bytes.Equal(c.Sub, want) {
			t.Fatalf("child %d sub-payload = %x, want %x", i, c.Sub, want)
		}
	}
}

// SplitSubtree validates the full payload: everything DecodeSubtree
// rejects, it rejects too (a corrupt TREE packet must be dropped at the
// first hop, not forwarded).
func TestSplitSubtreeRejectsWhatDecodeRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"short count":      {0, 0, 0},
		"missing child":    {0, 0, 0, 1},
		"truncated subpkt": append(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), 7), 10), 1, 2),
		"trailing garbage": append(EncodeSubtree(Subtree{}), 0xFF),
		"deep mismatch": func() []byte {
			// Child 7's subpacket claims 5 bytes but holds a 4-byte leaf
			// plus garbage: only a recursive walk catches it.
			b := binary.BigEndian.AppendUint32(nil, 1)
			b = binary.BigEndian.AppendUint32(b, 7)
			b = binary.BigEndian.AppendUint32(b, 5)
			return append(b, 0, 0, 0, 0, 0xFF)
		}(),
	}
	for name, b := range cases {
		if _, err := SplitSubtree(b, nil); err == nil {
			t.Errorf("%s: split accepted %v", name, b)
		}
		if _, err := DecodeSubtree(b); err == nil {
			t.Errorf("%s: decode accepted %v", name, b)
		}
	}
}

// Property: SplitSubtree and DecodeSubtree agree on accept/reject for
// arbitrary bytes, and on the child list when both accept.
func TestPropertySplitAgreesWithDecode(t *testing.T) {
	f := func(b []byte) bool {
		dec, decErr := DecodeSubtree(b)
		children, splitErr := SplitSubtree(b, nil)
		if (decErr == nil) != (splitErr == nil) {
			return false
		}
		if decErr != nil {
			return true
		}
		if len(children) != len(dec.Children) {
			return false
		}
		for i, c := range children {
			if c.Addr != dec.Children[i].Addr {
				return false
			}
			if !bytes.Equal(c.Sub, EncodeSubtree(dec.Children[i].Sub)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomSubtree builds a random subtree with up to depth levels.
func randomSubtree(rng *rand.Rand, depth int, next *int) Subtree {
	s := Subtree{}
	if depth == 0 {
		return s
	}
	n := rng.Intn(3)
	for i := 0; i < n; i++ {
		*next++
		s.Children = append(s.Children, Child{
			Addr: topology.NodeID(*next),
			Sub:  randomSubtree(rng, depth-1, next),
		})
	}
	return s
}

// Property: encode/decode round-trips arbitrary subtrees.
func TestPropertySubtreeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		next := 0
		s := randomSubtree(rng, 5, &next)
		dec, err := DecodeSubtree(EncodeSubtree(s))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never panics on arbitrary bytes.
func TestPropertyDecodeRobust(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = DecodeSubtree(b)
		_, _ = DecodeBranch(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchRoundTrip(t *testing.T) {
	path := []topology.NodeID{2, 4, 10}
	dec, err := DecodeBranch(EncodeBranch(path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, path) {
		t.Fatalf("round trip = %v, want %v", dec, path)
	}
}

func TestBranchEmpty(t *testing.T) {
	dec, err := DecodeBranch(EncodeBranch(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("decoded = %v", dec)
	}
}

func TestBranchErrors(t *testing.T) {
	if _, err := DecodeBranch([]byte{0, 0}); err == nil {
		t.Error("short header accepted")
	}
	if _, err := DecodeBranch([]byte{0, 0, 0, 2, 0, 0, 0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

type fakeTree map[topology.NodeID][]topology.NodeID

func (f fakeTree) Children(v topology.NodeID) []topology.NodeID { return f[v] }

func TestBuildSubtree(t *testing.T) {
	ft := fakeTree{
		2: {5, 4, 6}, // deliberately unsorted
		5: {8, 7},
		6: {9},
	}
	s := BuildSubtree(ft, 2)
	if len(s.Children) != 3 || s.Children[0].Addr != 4 || s.Children[1].Addr != 5 || s.Children[2].Addr != 6 {
		t.Fatalf("children order = %+v", s.Children)
	}
	if len(s.Children[1].Sub.Children) != 2 || s.Children[1].Sub.Children[0].Addr != 7 {
		t.Fatalf("grandchildren = %+v", s.Children[1].Sub.Children)
	}
}

// AppendTree writes exactly the bytes of EncodeSubtree(BuildSubtree)
// on random trees whose child lists are unsorted, and reuses its buffer.
func TestAppendTreeMatchesBuildSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf []byte
	for trial := 0; trial < 200; trial++ {
		// Each router hangs below a random router placed before it, so
		// child lists come out in placement order, not sorted.
		perm := rng.Perm(1 + rng.Intn(60))
		ft := fakeTree{}
		for i := 1; i < len(perm); i++ {
			p := topology.NodeID(perm[rng.Intn(i)])
			ft[p] = append(ft[p], topology.NodeID(perm[i]))
		}
		v := topology.NodeID(perm[rng.Intn(len(perm))])
		want := EncodeSubtree(BuildSubtree(ft, v))
		if buf = AppendTree(buf[:0], ft, v); !bytes.Equal(buf, want) {
			t.Fatalf("trial %d: AppendTree = %x, want %x", trial, buf, want)
		}
	}
	ft := fakeTree{2: {5, 4, 6}, 5: {8, 7}, 6: {9}}
	if avg := testing.AllocsPerRun(100, func() { buf = AppendTree(buf[:0], ft, 2) }); avg != 0 {
		t.Fatalf("AppendTree into a warm buffer allocates %.1f/op", avg)
	}
}

// DecodeBranchTo appends to its scratch and rejects a hop count whose
// byte length overflows 32 bits instead of trusting the wrapped product.
func TestDecodeBranchTo(t *testing.T) {
	scratch := make([]topology.NodeID, 0, 8)
	path, err := DecodeBranchTo(EncodeBranch([]topology.NodeID{3, 1, 4}), scratch)
	if err != nil || !reflect.DeepEqual(path, []topology.NodeID{3, 1, 4}) || &path[0] != &scratch[:1][0] {
		t.Fatalf("DecodeBranchTo = %v, %v (scratch reused: %v)", path, err, err == nil && &path[0] == &scratch[:1][0])
	}
	wrap := binary.BigEndian.AppendUint32(nil, 1<<30+1) // 4*n wraps to 4 in uint32
	wrap = append(wrap, 0, 0, 0, 7)
	if _, err := DecodeBranchTo(wrap, nil); err == nil {
		t.Fatal("a hop count whose byte length wraps 32 bits was accepted")
	}
}

func BenchmarkEncodeSubtree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	next := 0
	s := randomSubtree(rng, 8, &next)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeSubtree(s)
	}
}

func BenchmarkDecodeSubtree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	next := 0
	enc := EncodeSubtree(randomSubtree(rng, 8, &next))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSubtree(enc); err != nil {
			b.Fatal(err)
		}
	}
}
