package core

import (
	"math"
	"testing"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// fuzzTimes are the step times a fuzz byte picks from: NaN, -0, +Inf,
// a past time, and times on and off the clock.
var fuzzTimes = [...]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), -1, 0, 0.25, 1, 2.5}

// FuzzScript installs arbitrary steps on SCMP over a line of 2 to 16
// routers with a chord and a fault layer, with or without a standby
// m-router: arbitrary times (NaN, -0,
// +Inf, before the clock), kinds, routers and links, out-of-range ones
// and non-edges included, in two rounds with the clock moved between
// them. CheckStep either rejects a step — and InstallScript then panics
// with its error and queues nothing — or the installed script runs to
// completion without a panic and its sends can be checked.
func FuzzScript(f *testing.F) {
	f.Add([]byte{6, 1, 4, 2, 0, 1, 0, 5, 3, 100, 1, 2, 6, 5, 0, 0, 3})
	f.Add([]byte{15, 9, 4, 0, 1, 1, 3, 4, 1, 2, 0, 7, 6, 3, 0, 0, 5, 7, 2, 0, 0, 6})
	f.Add([]byte{3, 0, 0, 200, 1, 1, 0, 2, 1, 0, 0, 8, 3, 3, 255, 0, 9})
	f.Add([]byte{0x86, 1, 4, 3, 0, 1, 0, 5, 0, 0, 0, 7}) // a join, then a failover with no standby
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		routers := 2 + int(data[0]%15)
		g := topology.New(routers)
		for v := 1; v < routers; v++ {
			g.MustAddEdge(topology.NodeID(v-1), topology.NodeID(v), 0.5, 1)
		}
		if c := 2 + int(data[1])%routers; routers > 3 && c < routers {
			g.MustAddEdge(0, topology.NodeID(c), 0.25, 3)
		}
		standby := topology.NodeID(1)
		if data[0]&0x80 != 0 {
			standby = 0 // disabled: a failover step must be rejected
		}
		n := netsim.New(g, New(Config{MRouter: 0, Standby: standby, Kappa: 1.5}))
		n.InstallFaults(netsim.FaultPlan{ControlLoss: float64(data[1]%4) / 8, Seed: 1})
		data = data[2:]
		for round := 0; round < 2; round++ {
			var steps []netsim.Step
			for ; len(data) >= 5 && len(steps) < 32; data = data[5:] {
				st := netsim.Step{
					At:    des.Time(fuzzTimes[data[0]%8]),
					Node:  int32(int8(data[1])),
					Arg:   int32(int8(data[2])),
					Group: packet.GroupID(data[3] % 3),
					Kind:  netsim.StepKind(data[4] % 10),
				}
				if st.Kind == netsim.Send {
					st.Arg *= 8
				}
				err := n.CheckStep(st)
				if err == nil {
					steps = append(steps, st)
					continue
				}
				pending := n.Sched.Pending()
				func() {
					defer func() {
						if got, want := recover(), "netsim: "+err.Error(); got != want {
							t.Fatalf("InstallScript(%+v) panicked %v, want %q", st, got, want)
						}
					}()
					n.InstallScript([]netsim.Step{st})
				}()
				if n.Sched.Pending() != pending {
					t.Fatalf("rejected step %+v was queued", st)
				}
			}
			sc := n.InstallScript(steps)
			n.RunUntil(1)
			n.Run()
			for _, seq := range sc.Sent() {
				n.CheckDelivery(seq)
			}
		}
	})
}
