package fabric

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scmp/internal/packet"
)

func TestBenesIdentityAndReverse(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		id := make([]int, n)
		rev := make([]int, n)
		for i := range id {
			id[i] = i
			rev[i] = n - 1 - i
		}
		for name, perm := range map[string][]int{"identity": id, "reverse": rev} {
			b, err := routeBenes(perm)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			for i := range perm {
				if got := b.route(i); got != perm[i] {
					t.Fatalf("n=%d %s: route(%d) = %d, want %d", n, name, i, got, perm[i])
				}
			}
		}
	}
}

func TestBenesRejectsBadInput(t *testing.T) {
	cases := [][]int{
		{},        // empty
		{0},       // n=1
		{0, 1, 2}, // not a power of two
		{0, 0},    // duplicate output
		{0, 2},    // out of range
		{-1, 0},   // negative
	}
	for _, perm := range cases {
		if _, err := routeBenes(perm); err == nil {
			t.Errorf("routeBenes(%v) accepted", perm)
		}
	}
}

func TestBenesDepth(t *testing.T) {
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b, err := routeBenes(perm)
	if err != nil {
		t.Fatal(err)
	}
	if b.depth() != 5 { // 2*log2(8) - 1
		t.Fatalf("depth = %d, want 5", b.depth())
	}
}

// Property: Beneš realises arbitrary random permutations for all sizes
// up to 64.
func TestPropertyBenesArbitraryPermutations(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := []int{2, 4, 8, 16, 32, 64}[int(sizeSel)%6]
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		b, err := routeBenes(perm)
		if err != nil {
			return false
		}
		for i := range perm {
			if b.route(i) != perm[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFabricSizeValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
	if _, err := New(8); err != nil {
		t.Fatal(err)
	}
}

func TestConfigureManyToMany(t *testing.T) {
	f, _ := New(8)
	cfg, err := f.Configure(map[packet.GroupID]GroupConn{
		1: {Inputs: []int{0, 3, 5}, Output: 2},
		2: {Inputs: []int{1, 6}, Output: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every source of a group must emerge at the group's output port.
	for in, want := range map[int]struct {
		out int
		gid packet.GroupID
	}{
		0: {2, 1}, 3: {2, 1}, 5: {2, 1},
		1: {7, 2}, 6: {7, 2},
	} {
		out, gid, ok := cfg.Route(in)
		if !ok {
			t.Fatalf("input %d not routed", in)
		}
		if out != want.out || gid != want.gid {
			t.Fatalf("Route(%d) = (%d, %d), want (%d, %d)", in, out, gid, want.out, want.gid)
		}
	}
	// Idle inputs route nowhere.
	for _, idle := range []int{2, 4, 7} {
		if _, _, ok := cfg.Route(idle); ok {
			t.Fatalf("idle input %d routed", idle)
		}
	}
	if cfg.MergeDepth() != 2 { // largest run = 3 sources -> 2 levels
		t.Fatalf("MergeDepth = %d, want 2", cfg.MergeDepth())
	}
	if cfg.Stages() != 2*cfg.pn.depth()+2 {
		t.Fatalf("Stages = %d", cfg.Stages())
	}
}

func TestConfigureRejections(t *testing.T) {
	f, _ := New(4)
	cases := map[string]map[packet.GroupID]GroupConn{
		"no inputs":    {1: {Output: 0}},
		"dup inputs":   {1: {Inputs: []int{0}, Output: 0}, 2: {Inputs: []int{0}, Output: 1}},
		"dup outputs":  {1: {Inputs: []int{0}, Output: 3}, 2: {Inputs: []int{1}, Output: 3}},
		"input range":  {1: {Inputs: []int{9}, Output: 0}},
		"output range": {1: {Inputs: []int{0}, Output: 9}},
	}
	for name, groups := range cases {
		if _, err := f.Configure(groups); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConfigureEmpty(t *testing.T) {
	f, _ := New(4)
	cfg, err := f.Configure(nil)
	if err != nil {
		t.Fatal(err)
	}
	for in := 0; in < 4; in++ {
		if _, _, ok := cfg.Route(in); ok {
			t.Fatalf("input %d routed in empty config", in)
		}
	}
	if cfg.MergeDepth() != 0 {
		t.Fatalf("MergeDepth = %d", cfg.MergeDepth())
	}
}

// Property: for random many-to-many patterns, (a) every source reaches
// exactly its group's output, (b) sources of different groups are never
// merged — i.e. their PN positions land in disjoint runs — and (c) the
// full fabric (all ports busy) still routes.
func TestPropertyFabricIsolation(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := []int{4, 8, 16, 32, 64}[int(sizeSel)%5]
		rng := rand.New(rand.NewSource(seed))
		fab, err := New(n)
		if err != nil {
			return false
		}
		// Random grouping of a random subset of inputs.
		nGroups := 1 + rng.Intn(4)
		inPerm := rng.Perm(n)
		outPerm := rng.Perm(n)
		groups := make(map[packet.GroupID]GroupConn)
		idx := 0
		for gi := 0; gi < nGroups && idx < n; gi++ {
			size := 1 + rng.Intn(n/nGroups)
			if idx+size > n {
				size = n - idx
			}
			groups[packet.GroupID(gi+1)] = GroupConn{
				Inputs: append([]int(nil), inPerm[idx:idx+size]...),
				Output: outPerm[gi],
			}
			idx += size
		}
		cfg, err := fab.Configure(groups)
		if err != nil {
			return false
		}
		// (a) and (b): correct outputs, disjoint mid-stage runs.
		midOwner := make(map[int]packet.GroupID)
		for gid, gc := range groups {
			for _, in := range gc.Inputs {
				out, g2, ok := cfg.Route(in)
				if !ok || g2 != gid || out != gc.Output {
					return false
				}
				mid := cfg.pn.route(in)
				if owner, taken := midOwner[mid]; taken && owner != gid {
					return false // cross-group contact in the CCN
				}
				midOwner[mid] = gid
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Verify accepts a freshly routed configuration and rejects each
// corruption of it with an error naming the broken property: group 1's
// run relabelled as group 2's (a cross-group connection), and an idle
// input's middle line spliced into group 2's run.
func TestVerifyRejectsCorruption(t *testing.T) {
	configure := func() *Configuration {
		f, err := New(8)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := f.Configure(map[packet.GroupID]GroupConn{
			1: {Inputs: []int{0, 4, 6}, Output: 2},
			2: {Inputs: []int{1, 3}, Output: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	if err := configure().Verify(); err != nil {
		t.Fatalf("Verify rejected a freshly routed configuration: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Configuration)
		wantErr string
	}{
		{"cross-group relabel", func(c *Configuration) {
			c.groupOfRun[c.runStart[c.pn.route(0)]] = 2
		}, "cross-group connection — group 1 input 0 carries group 2's label"},
		{"idle input spliced into a run", func(c *Configuration) {
			c.runStart[c.pn.route(7)] = c.runStart[c.pn.route(1)]
		}, "idle input 7 routes as group 2"},
	} {
		cfg := configure()
		tc.corrupt(cfg)
		err := cfg.Verify()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func BenchmarkFabricConfigure64(b *testing.B) {
	fab, _ := New(64)
	groups := map[packet.GroupID]GroupConn{}
	for g := 0; g < 8; g++ {
		var ins []int
		for i := 0; i < 8; i++ {
			ins = append(ins, g*8+i)
		}
		groups[packet.GroupID(g+1)] = GroupConn{Inputs: ins, Output: g}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fab.Configure(groups); err != nil {
			b.Fatal(err)
		}
	}
}
