package fabric_test

import (
	"fmt"

	"scmp/internal/fabric"
	"scmp/internal/packet"
)

// Example routes two simultaneous conferences through one 8x8 sandwich
// fabric: each group's sources merge onto its own output port, and the
// groups never touch.
func Example() {
	f, _ := fabric.New(8)
	cfg, err := f.Configure(map[packet.GroupID]fabric.GroupConn{
		1: {Inputs: []int{0, 3, 5}, Output: 2},
		2: {Inputs: []int{1, 6}, Output: 7},
	})
	if err != nil {
		fmt.Println("configure:", err)
		return
	}
	for _, in := range []int{0, 3, 5, 1, 6} {
		out, gid, _ := cfg.Route(in)
		fmt.Printf("input %d -> output %d (group %d)\n", in, out, gid)
	}
	_, _, busy := cfg.Route(4)
	fmt.Println("input 4 busy:", busy)
	// Output:
	// input 0 -> output 2 (group 1)
	// input 3 -> output 2 (group 1)
	// input 5 -> output 2 (group 1)
	// input 1 -> output 7 (group 2)
	// input 6 -> output 7 (group 2)
	// input 4 busy: false
}
