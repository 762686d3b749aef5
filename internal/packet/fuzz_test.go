package packet

import (
	"bytes"
	"math"
	"testing"

	"scmp/internal/topology"
)

// FuzzDecodeSubtree checks the TREE-packet decoder never panics and
// that accepted payloads round-trip through the encoder byte-for-byte
// (the encoding is canonical).
func FuzzDecodeSubtree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeSubtree(Subtree{Children: []Child{{Addr: 4}, {Addr: 5, Sub: Subtree{Children: []Child{{Addr: 7}}}}}}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSubtree(data)
		if err != nil {
			return
		}
		re := EncodeSubtree(s)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzSplitSubtree differentially checks the zero-copy TREE splitter
// against the full decoder: the two accept exactly the same payloads
// (SplitSubtree's validation is as strict as DecodeSubtree's), the
// split children agree with the decoded tree, and every child
// sub-payload is a full-capacity alias into the parent buffer at its
// encoded offset — never a copy, never reaching outside the parent's
// bounds. Malformed encodings must be rejected with an error, not a
// panic or an out-of-range slice.
func FuzzSplitSubtree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	deep := EncodeSubtree(Subtree{Children: []Child{
		{Addr: 4},
		{Addr: 5, Sub: Subtree{Children: []Child{{Addr: 7}, {Addr: 9}}}},
	}})
	f.Add(deep)
	for i := 1; i < len(deep); i++ {
		f.Add(deep[:i]) // truncations
	}
	f.Add(append(append([]byte{}, deep...), 0))               // trailing garbage
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 9, 255, 255, 255, 255}) // huge claimed sublen
	f.Fuzz(func(t *testing.T, data []byte) {
		children, err := SplitSubtree(data, nil)
		s, derr := DecodeSubtree(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("split err=%v but decode err=%v", err, derr)
		}
		if err != nil {
			return
		}
		if len(children) != len(s.Children) {
			t.Fatalf("%d split children, %d decoded", len(children), len(s.Children))
		}
		off := 4
		for i, c := range children {
			if c.Addr != s.Children[i].Addr {
				t.Fatalf("child %d addr %d, decoded %d", i, c.Addr, s.Children[i].Addr)
			}
			off += 8 // addr + length header
			sub := c.Sub
			if cap(sub) != len(sub) {
				t.Fatalf("child %d sub cap %d > len %d: append would scribble on the parent", i, cap(sub), len(sub))
			}
			if off+len(sub) > len(data) {
				t.Fatalf("child %d sub [%d, %d) exceeds parent length %d", i, off, off+len(sub), len(data))
			}
			if len(sub) > 0 && &sub[0] != &data[off] {
				t.Fatalf("child %d sub is not an alias of the parent at offset %d", i, off)
			}
			if !bytes.Equal(sub, EncodeSubtree(s.Children[i].Sub)) {
				t.Fatalf("child %d sub bytes disagree with the decoded subtree", i)
			}
			off += len(sub)
		}
		if off != len(data) {
			t.Fatalf("children cover [4, %d) of a %d-byte payload", off, len(data))
		}
		// Appending into caller scratch preserves the prefix.
		scratch := make([]ChildPayload, 1, 1+len(children))
		scratch[0] = ChildPayload{Addr: 42}
		again, err := SplitSubtree(data, scratch)
		if err != nil || len(again) != 1+len(children) || again[0].Addr != 42 {
			t.Fatalf("scratch reuse: err=%v len=%d", err, len(again))
		}
	})
}

// FuzzDecodeBranch checks the BRANCH decoder likewise: no panics,
// canonical round-trips, and graceful rejection of truncated payloads
// (every prefix of a valid encoding must error, never decode).
func FuzzDecodeBranch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeBranch([]topology.NodeID{2, 4, 10}))
	full := EncodeBranch([]topology.NodeID{1, 2, 3, 4})
	for i := 1; i < len(full); i++ {
		f.Add(full[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeBranch(data)
		if err != nil {
			return
		}
		re := EncodeBranch(p)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeAck checks the ACK decoder: decode∘encode identity on
// accepted payloads, errors (never panics) on everything else.
func FuzzDecodeAck(f *testing.F) {
	full := EncodeAck(AckInfo{Req: Join, Seq: 0xDEADBEEF})
	f.Add(full)
	for i := 1; i < len(full); i++ {
		f.Add(full[:i])
	}
	f.Add(append(full, 0)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAck(data)
		if err != nil {
			return
		}
		re := EncodeAck(a)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeNack checks the NACK decoder likewise, and that every
// retry-after it accepts is a finite non-negative delay.
func FuzzDecodeNack(f *testing.F) {
	full := AppendNack(nil, NackInfo{Req: Join, Seq: 0xCAFE, RetryAfter: 0.25})
	f.Add(full)
	for i := 1; i < len(full); i++ {
		f.Add(full[:i])
	}
	f.Add(append(full, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNack(data)
		if err != nil {
			return
		}
		if math.IsNaN(n.RetryAfter) || math.IsInf(n.RetryAfter, 0) || n.RetryAfter < 0 {
			t.Fatalf("accepted retry-after %g", n.RetryAfter)
		}
		re := AppendNack(nil, n)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeRejoin checks the REJOIN decoder likewise.
func FuzzDecodeRejoin(f *testing.F) {
	full := AppendRejoin(nil, RejoinInfo{Detached: 7, Dead: 3})
	f.Add(full)
	for i := 1; i < len(full); i++ {
		f.Add(full[:i])
	}
	f.Add(append(full, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRejoin(data)
		if err != nil {
			return
		}
		re := AppendRejoin(nil, r)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
