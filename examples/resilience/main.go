// Resilience: the hot-standby m-router (§V) and the service database
// (§II-C) in action.
//
// A domain runs SCMP with a primary m-router and a concurrently-running
// secondary. Members join (each change is replicated to the secondary),
// a stream flows, then the primary dies mid-stream: the secondary takes
// over, rebuilds every tree rooted at itself from the replicated
// membership, and the stream continues. The run ends with the
// accounting view: per-member on-time and the event log an ISP would
// bill from.
//
//	go run ./examples/resilience
package main

import (
	"fmt"
	"scmp/internal/rng"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

const group packet.GroupID = 1

func main() {
	g, err := topology.Random(topology.DefaultRandom(30, 4), rng.New(17))
	if err != nil {
		panic(err)
	}
	g = g.ScaleDelays(1e-3)

	scmp := core.New(core.Config{
		MRouter: 1,
		Standby: 2,
		Kappa:   1.5,
		// Give the m-router a measurable control plane: 5 ms per
		// request across 2 processors (§II-B).
		ServiceTime: 0.005,
		Processors:  2,
	})
	net := netsim.New(g, scmp)

	// The script: members join half a second apart, a source sends one
	// packet a second, and at t=10 the primary m-router fails.
	members := []topology.NodeID{5, 9, 14, 20, 25}
	var steps []netsim.Step
	for i, m := range members {
		steps = append(steps, netsim.Step{At: des.Time(float64(i) * 0.5), Node: int32(m), Group: group, Kind: netsim.Join})
	}
	source := int32(7)
	for t := 1.0; t <= 20; t++ {
		steps = append(steps, netsim.Step{At: des.Time(t), Node: source, Arg: packet.DefaultDataSize, Group: group, Kind: netsim.Send})
	}
	steps = append(steps, netsim.Step{At: 10, Kind: netsim.Failover})
	sc := net.InstallScript(steps)
	fmt.Printf("t=10.0  PRIMARY m-router (node %d) fails; standby (node %d) takes over\n",
		scmp.MRouter(), 2)

	// Check each packet half a second after its send, once it has
	// propagated.
	missed, delivered := 0, 0
	for t := 1.0; t <= 20; t++ {
		net.RunUntil(des.Time(t + 0.5))
		missing, _ := net.CheckDelivery(sc.Sent()[delivered])
		missed += len(missing)
		delivered++
	}
	net.RunUntil(25)
	net.Run()

	tree := scmp.GroupTree(group)
	fmt.Printf("\nafter failover: active m-router = node %d, tree root = %d\n",
		scmp.MRouter(), tree.Root())
	fmt.Printf("tree cost %.0f, members %v\n", tree.Cost(), tree.Members())
	fmt.Printf("stream: %d packets checked, %d member-deliveries missed during the switchover\n",
		delivered, missed)

	stats := scmp.ServiceStats()
	fmt.Printf("\nm-router control plane: %d requests, mean wait %.4fs, max wait %.4fs\n",
		stats.Requests, stats.MeanWait, stats.MaxWait)

	acct := scmp.Accounting()
	fmt.Println("\naccounting (per-member on-time at the primary until failover):")
	for _, m := range members {
		fmt.Printf("  member %2d: %.1fs online\n", m, float64(acct.MemberOnTime(group, m)))
	}
	fmt.Printf("event log: %d records (ALLOCATE/JOIN/LEAVE/...)\n", len(acct.Log()))
}
